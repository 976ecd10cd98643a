#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perfbench/run.py --workload sim-hot|fig2-study|serve-mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record-pins

Run it from the root of a checkout. It builds the measuring program
(perfbench/CMakeLists.txt, optimised, under .bench_build/perfbench),
runs one workload and prints the program's summary, then as the last
line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. The traced run also writes its spans to
.bench_build/spans/. The exit code is 0 only when every simulated
result matched perfbench/pins.json and every metric was reported.

--workload all runs the three workloads untraced in turn and prints
every end-to-end metric of each by name and unit. --record-pins
re-records perfbench/pins.json from the current sources.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PINS = BENCH / "pins.json"
WORKLOADS = ["sim-hot", "fig2-study", "serve-mixed"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the measuring program; return its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ccnuma sources at {ROOT} (need CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "--target",
                       "perfbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return BUILD / "perfbench"


def revision():
    """The git revision, or a digest of the sources outside git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    files += sorted(p for p in BENCH.rglob("*") if "__pycache__" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def declared(trace):
    """(name, unit) of every metric BENCHMARK.json declares for a run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(exe, workload, seed, seconds, trace, rev):
    """Run one workload; return (exit code, summary lines, result)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--pins", str(PINS), "--revision", rev]
    if trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{workload} printed nothing (exit {proc.returncode})", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not JSON: {lines[-1]!r}", 1)
    want = declared(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[k for k in want if k in got and got[k] != want[k]]}",
             1)
    return proc.returncode, lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-pins", action="store_true")
    args = ap.parse_args()

    if args.record_pins:
        exe = build()
        sys.exit(subprocess.run([str(exe), "--record-pins",
                                 str(PINS)]).returncode)
    if not args.workload:
        fail("--workload is required")
    if not PINS.is_file() or not (ROOT / "BENCHMARK.json").is_file():
        fail("perfbench/pins.json and BENCHMARK.json are required")
    exe = build()
    rev = revision()

    if args.workload != "all":
        code, summary, result = run_one(exe, args.workload, args.seed,
                                        args.seconds, args.trace, rev)
        print("\n".join(summary))
        print(json.dumps(result))
        sys.exit(code)

    code, metrics = 0, {}
    attempted = failed = 0
    for w in WORKLOADS:
        c, summary, result = run_one(exe, w, args.seed, args.seconds,
                                     False, rev)
        code = code or c
        attempted += result["attempted"]
        failed += result["failed"]
        print("\n".join(summary))
        print(f"== {w}: {result['attempted']} operations, "
              f"{result['failed']} failed, failed_frac="
              f"{result['failed'] / max(1, result['attempted']):.6f}")
        for name, m in result["metrics"].items():
            print(f"   {name:<16} {m['value']:>14.6g} {m['unit']}")
            metrics[f"{w}/{name}"] = m
    print(json.dumps({"correct": code == 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(code)


if __name__ == "__main__":
    main()
