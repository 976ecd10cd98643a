#include "core/study.hh"

namespace ccnuma::core {

sim::RunResult
runApp(const sim::MachineConfig& cfg, apps::App& app,
       const MachineHook& pre_run)
{
    sim::Machine m(cfg);
    app.setup(m);
    if (pre_run)
        pre_run(m);
    return m.run(app.program());
}

sim::Cycles
seqBaseline(const sim::MachineConfig& cfg, const AppFactory& factory,
            SeqBaselineCache* seq_cache, const std::string& seq_key)
{
    const auto simulate_baseline = [&]() -> sim::Cycles {
        apps::AppPtr seq_app = factory();
        return runApp(cfg.baseline(), *seq_app).time;
    };
    return seq_cache ? seq_cache->getOrCompute(seq_key, simulate_baseline)
                     : simulate_baseline();
}

Measurement
measure(const sim::MachineConfig& cfg, const AppFactory& factory,
        SeqBaselineCache* seq_cache, const std::string& seq_key,
        const MachineHook& pre_run)
{
    Measurement out;
    out.nprocs = cfg.numProcs;
    out.seqTime = seqBaseline(cfg, factory, seq_cache, seq_key);

    apps::AppPtr par_app = factory();
    out.par = runApp(cfg, *par_app, pre_run);
    out.parTime = out.par.time;
    return out;
}

} // namespace ccnuma::core
