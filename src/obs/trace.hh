/**
 * @file
 * The observability core: protocol event traces, interval (epoch)
 * metrics, miss-latency histograms and the line/page sharing profiler.
 *
 * Design rules:
 *  - Purely observational: hooks never alter simulated state or timing,
 *    so a traced run's cycle counts are identical to an untraced one.
 *  - Near-zero cost when off: every hook call in the simulator is
 *    guarded by a `trace_ != nullptr` test, which an untraced run
 *    always predicts correctly.
 *  - Layering: this library depends only on sim *headers* (types,
 *    stats, config structs), never on symbols defined in sim .cc files,
 *    so `ccnuma_sim` can link against `ccnuma_obs` without a cycle.
 */

#ifndef CCNUMA_OBS_TRACE_HH
#define CCNUMA_OBS_TRACE_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ccnuma::obs {

using sim::Addr;
using sim::Cycles;
using sim::LineAddr;
using sim::NodeId;
using sim::ProcId;

/** Typed protocol events captured in the ring buffer. */
enum class EventKind : std::uint8_t {
    MissLocal,       ///< L2 miss served by the local memory.
    MissRemoteClean, ///< 2-hop miss served by a remote home memory.
    MissRemoteDirty, ///< 3-hop miss served from a dirty remote cache.
    Upgrade,         ///< Write hit on a Shared line (ownership only).
    Invalidation,    ///< One sharer losing its copy (proc = victim).
    Writeback,       ///< Dirty eviction written back to home memory.
    Prefetch,        ///< Software prefetch issued.
    FetchOp,         ///< Uncached at-memory fetch&op.
    LockAcquire,     ///< Lock acquire op (granted or enqueued).
    BarrierPassed,   ///< Barrier episode released this processor.
    PageMigration,   ///< Page moved to the accessing node.
};
inline constexpr int kNumEventKinds = 11;

/// Stable lower_snake name for an event kind (trace/JSON schema).
const char* eventName(EventKind k);

/**
 * One trace record: 24 bytes packed. `aux` is kind-specific: the write
 * flag for misses, the number of sharers invalidated for upgrades, the
 * requesting processor for invalidations, and the destination node for
 * page migrations.
 */
struct TraceRecord {
    Cycles start = 0;        ///< Issue cycle (requester's clock).
    Addr addr = 0;           ///< Line or byte address involved.
    std::uint32_t latency = 0; ///< Duration in cycles (0 = instant).
    std::int16_t proc = -1;  ///< Processor the event is attributed to.
    std::int16_t home = -1;  ///< Home node of `addr` (-1 if n/a).
    EventKind kind = EventKind::MissLocal;
    std::uint8_t aux = 0;
};

/**
 * Fixed-capacity ring buffer of trace records. When full, the oldest
 * records are overwritten; `recorded()` and `dropped()` keep the books
 * so consumers can tell a truncated trace from a complete one.
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::size_t capacity)
        : cap_(capacity), buf_(capacity)
    {
    }

    void
    push(const TraceRecord& r)
    {
        if (cap_ == 0) {
            ++recorded_;
            return;
        }
        buf_[recorded_ % cap_] = r;
        ++recorded_;
    }

    std::size_t capacity() const { return cap_; }
    /// Records currently held (== min(recorded, capacity)).
    std::size_t size() const
    {
        return recorded_ < cap_ ? recorded_ : cap_;
    }
    /// Total records ever pushed.
    std::uint64_t recorded() const { return recorded_; }
    /// Records lost to wrap-around overwrites.
    std::uint64_t dropped() const
    {
        return recorded_ < cap_ ? 0 : recorded_ - cap_;
    }

    /// Visit retained records oldest-first.
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        if (cap_ == 0)
            return;
        const std::size_t n = size();
        const std::size_t first = recorded_ < cap_ ? 0 : recorded_ % cap_;
        for (std::size_t i = 0; i < n; ++i)
            fn(buf_[(first + i) % cap_]);
    }

  private:
    std::size_t cap_;
    std::vector<TraceRecord> buf_;
    std::uint64_t recorded_ = 0;
};

/** One epoch's worth of counters and time, aggregated over processors. */
struct EpochSample {
    sim::ProcCounters c;
    sim::ProcTimes t;
};

/**
 * Time-series of epoch samples. Each event/charge is attributed to the
 * epoch containing its start cycle, so the per-counter sum over all
 * epochs equals the run's aggregate totals exactly.
 */
class EpochSeries
{
  public:
    explicit EpochSeries(Cycles epoch_cycles)
        : epochCycles_(epoch_cycles ? epoch_cycles : 1)
    {
    }

    /// Sample covering cycle `t`, growing the series as needed.
    EpochSample&
    at(Cycles t)
    {
        const std::size_t i = static_cast<std::size_t>(t / epochCycles_);
        if (i >= samples_.size())
            samples_.resize(i + 1);
        return samples_[i];
    }

    Cycles epochCycles() const { return epochCycles_; }
    std::size_t numEpochs() const { return samples_.size(); }
    const EpochSample& epoch(std::size_t i) const { return samples_[i]; }

    /// Counter sums over every epoch (must equal the run totals).
    sim::ProcCounters sumCounters() const;
    /// Time sums over every epoch.
    sim::ProcTimes sumTimes() const;

  private:
    Cycles epochCycles_;
    std::vector<EpochSample> samples_;
};

/**
 * Power-of-two-bucketed latency histogram: bucket i counts samples in
 * [2^i, 2^(i+1)) cycles (bucket 0 covers 0 and 1).
 */
class LatencyHisto
{
  public:
    static constexpr int kBuckets = 40;

    void add(Cycles lat);

    std::uint64_t count() const { return count_; }
    Cycles min() const { return count_ ? min_ : 0; }
    Cycles max() const { return max_; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }
    /// Upper bound of the bucket holding the q-quantile sample
    /// (q in [0,1]); an upper estimate within a factor of two.
    Cycles quantile(double q) const;

    /// Visit non-empty buckets as fn(lo, hi_exclusive, count).
    template <typename Fn>
    void
    forEachBucket(Fn&& fn) const
    {
        for (int i = 0; i < kBuckets; ++i)
            if (buckets_[i])
                fn(bucketLo(i), bucketHi(i), buckets_[i]);
    }

    static Cycles bucketLo(int i)
    {
        return i == 0 ? 0 : Cycles{1} << i;
    }
    static Cycles bucketHi(int i) { return Cycles{1} << (i + 1); }

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    Cycles min_ = 0;
    Cycles max_ = 0;
};

/**
 * Attributes coherence traffic (invalidations, remote-dirty misses,
 * upgrades) to cache lines and pages, and classifies multi-processor
 * lines as true or false sharing from sub-line word (8 B) offsets:
 * a line is *true*-shared if some written word was touched by two or
 * more processors (actual communication), *false*-shared if processors
 * only ever touched disjoint words yet still ping-ponged the line.
 */
class SharingProfiler
{
  public:
    SharingProfiler(std::uint32_t line_bytes, std::uint32_t page_bytes);

    /// Record a demand access for word-granularity attribution.
    void noteAccess(ProcId p, Addr addr, bool write);
    /// Record a coherence-traffic event against `line`.
    void noteConflict(LineAddr line, EventKind kind);

    enum class Class : std::uint8_t {
        Private,     ///< Touched by at most one processor.
        ReadShared,  ///< Multiple readers, never written.
        TrueSharing, ///< A written word is used by >= 2 processors.
        FalseSharing ///< Traffic, but all word sets are disjoint.
    };
    static const char* className(Class c);

    struct LineReport {
        LineAddr line = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t dirtyMisses = 0;
        std::uint64_t upgrades = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        int procsTouched = 0;
        int wordsTouched = 0;
        int wordsShared = 0; ///< Words touched by >= 2 processors.
        Class cls = Class::Private;
        std::uint64_t traffic() const
        {
            return invalidations + dirtyMisses + upgrades;
        }
    };

    struct PageReport {
        sim::PageNum page = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t dirtyMisses = 0;
        std::uint64_t upgrades = 0;
        int linesTracked = 0;
        std::uint64_t traffic() const
        {
            return invalidations + dirtyMisses + upgrades;
        }
    };

    /// Report for one line (zeroed if never seen).
    LineReport report(LineAddr line) const;
    /// Lines ranked by coherence traffic, highest first.
    std::vector<LineReport> hotLines(std::size_t top_n) const;
    /// Pages ranked by coherence traffic, highest first.
    std::vector<PageReport> hotPages(std::size_t top_n) const;

    std::size_t linesTracked() const { return lines_.size(); }

  private:
    /// Per-line word-granularity sharing state. Lines wider than
    /// kMaxWords*8 bytes fold their tail into the last word slot.
    static constexpr int kMaxWords = 32;
    struct LineInfo {
        std::uint32_t invals = 0;
        std::uint32_t dirtyMisses = 0;
        std::uint32_t upgrades = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::array<std::uint64_t, sim::kMaxProcs / 64> procs{};
        std::uint32_t touchedMask = 0;
        std::uint32_t writtenMask = 0;
        std::uint32_t sharedMask = 0; ///< Word seen from >= 2 procs.
        std::array<std::int16_t, kMaxWords> wordFirstProc;
        LineInfo() { wordFirstProc.fill(-1); }
    };

    LineReport makeReport(LineAddr line, const LineInfo& li) const;

    std::uint32_t lineMask_;
    std::uint32_t pageBytes_;
    std::unordered_map<LineAddr, LineInfo> lines_;
};

/**
 * The per-run trace bundle the simulator writes into and the exporters
 * read from. One Trace per Machine::run; ownership is shared with the
 * RunResult so it outlives the Machine.
 *
 * Hook naming: `on*` hooks fire once per protocol event; `add*` hooks
 * slice time charges into epochs. All hooks are cheap and allocation is
 * amortized (ring buffer fixed, epoch vector grows geometrically).
 */
class Trace
{
  public:
    Trace(const sim::TraceConfig& tc, int num_procs,
          std::uint32_t line_bytes, std::uint32_t page_bytes,
          double ns_per_cycle, std::vector<NodeId> proc_node);

    // ---- hooks called by the simulator ----
    void
    onAccess(ProcId p, Cycles now, Addr addr, bool write)
    {
        if (cfg_.intervals) {
            sim::ProcCounters& c = epochs_.at(now).c;
            if (write)
                ++c.stores;
            else
                ++c.loads;
        }
        if (cfg_.sharing)
            sharing_.noteAccess(p, addr, write);
    }
    void
    onHit(ProcId p, Cycles now)
    {
        (void)p;
        if (cfg_.intervals)
            ++epochs_.at(now).c.l2Hits;
    }
    void
    onPrefetchUseful(ProcId p, Cycles now)
    {
        (void)p;
        if (cfg_.intervals)
            ++epochs_.at(now).c.prefetchesUseful;
    }
    /// `kind` must be one of the three Miss* kinds.
    void onMiss(ProcId p, Cycles now, Cycles lat, LineAddr line,
                NodeId home, EventKind kind, bool write);
    void onUpgrade(ProcId p, Cycles now, Cycles lat, LineAddr line,
                   NodeId home, int sharers_invalidated);
    void onInval(ProcId requester, ProcId victim, Cycles now,
                 LineAddr line, NodeId home);
    void onWriteback(ProcId p, Cycles now, LineAddr line, NodeId home);
    /// `folded` carries the inner transaction's counters (miss class,
    /// writebacks, migrations) that MemSys::prefetch folds into the
    /// issuing processor's stats.
    void onPrefetchIssue(ProcId p, Cycles now, LineAddr line,
                         NodeId home, const sim::ProcCounters& folded);
    void onFetchOp(ProcId p, Cycles now, Cycles lat, Addr addr,
                   NodeId home);
    /// `contended` marks an acquire that found the lock held (the
    /// requester queues; the event's aux carries the same flag).
    void onLockAcquire(ProcId p, Cycles now, Addr line, NodeId home,
                       bool contended);
    void onBarrierPassed(ProcId p, Cycles now, Addr line);
    void onPageMigration(ProcId p, Cycles now, Addr addr, NodeId from,
                         NodeId to);

    void
    addBusy(ProcId p, Cycles now, Cycles c)
    {
        (void)p;
        if (cfg_.intervals)
            epochs_.at(now).t.busy += c;
    }
    void
    addMemStall(ProcId p, Cycles now, Cycles c)
    {
        (void)p;
        if (cfg_.intervals)
            epochs_.at(now).t.memStall += c;
    }
    void
    addSyncOp(ProcId p, Cycles now, Cycles c)
    {
        (void)p;
        if (cfg_.intervals)
            epochs_.at(now).t.syncOp += c;
    }
    void
    addSyncWait(ProcId p, Cycles now, Cycles c, bool lock)
    {
        (void)p;
        if (cfg_.intervals) {
            sim::ProcTimes& t = epochs_.at(now).t;
            t.syncWait += c;
            if (lock)
                t.lockWait += c;
            else
                t.barrierWait += c;
        }
    }

    // ---- results ----
    const sim::TraceConfig& config() const { return cfg_; }
    const TraceBuffer& events() const { return events_; }
    const EpochSeries& epochs() const { return epochs_; }
    const SharingProfiler& sharing() const { return sharing_; }
    const LatencyHisto& histLocal() const { return histLocal_; }
    const LatencyHisto& histRemoteClean() const { return histClean_; }
    const LatencyHisto& histRemoteDirty() const { return histDirty_; }
    const LatencyHisto& histUpgrade() const { return histUpgrade_; }

    int numProcs() const { return numProcs_; }
    double nsPerCycle() const { return nsPerCycle_; }
    NodeId
    nodeOf(ProcId p) const
    {
        return p >= 0 && p < static_cast<ProcId>(procNode_.size())
                   ? procNode_[p]
                   : sim::kNoNode;
    }

  private:
    sim::TraceConfig cfg_;
    int numProcs_;
    double nsPerCycle_;
    std::vector<NodeId> procNode_;
    TraceBuffer events_;
    EpochSeries epochs_;
    SharingProfiler sharing_;
    LatencyHisto histLocal_;
    LatencyHisto histClean_;
    LatencyHisto histDirty_;
    LatencyHisto histUpgrade_;
};

} // namespace ccnuma::obs

#endif // CCNUMA_OBS_TRACE_HH
