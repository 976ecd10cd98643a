#!/usr/bin/env python3
"""Same-runner A/B of the repository benchmark: this tree against REV.

    python3 bench/perf_ab.py REV [--seconds S]

Run it from anywhere inside a git checkout. It checks REV out with
`git worktree add --detach` under .bench_build/ab/<sha> (kept, so a
second A/B against the same parent reuses its build) and runs each
tree's own `perfbench/run.py --workload all --seed N --seconds S` for
10 pairs, seeds 1 to 10, alternating which side runs first. --seconds
is passed through to run.py; without it run.py's default applies.

For every workload and end-to-end metric of BENCHMARK.json it prints
each side's median [q1, q3], the change of the median, the change's
wins out of the pairs, the parent's IQR as a share of its median and a
verdict. The last line is one JSON object: both revisions, the host
line perfbench printed, and each side's medians.

The exit code is 1 when the change fails the gate:
  - a metric regressed: its median is worse than the parent's by more
    than the metric's `bound` in BENCHMARK.json. When the parent's IQR
    is wider than the bound the verdict is `unresolved` unless every
    change run is better (`ok`) or worse (`regressed`) than every
    parent run;
  - either tree's run.py exited non-zero (a pins mismatch);
  - the change failed more operations than the parent.
It is 2 when REV does not name a commit.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def quartiles(xs):
    """(q1, median, q3), interpolating between order statistics."""
    s = sorted(xs)

    def at(f):
        i = f * (len(s) - 1)
        lo = int(i)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (i - lo)
    return at(0.25), at(0.5), at(0.75)


def verdict(parent_runs, change_runs, bounds):
    """Judge an A/B.

    A run is {"exit": int, "failed": int, "metrics": {"<workload>/<metric>":
    value}}; parent_runs[i] and change_runs[i] form pair i. `bounds` maps
    a metric name to (better, bound) as BENCHMARK.json declares them.
    Returns (rows, failures): one row per metric, and the reasons the
    change fails the gate, empty when it passes.
    """
    failures = []
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        failures += [f"{side} run.py exited {r['exit']} in pair {i + 1}"
                     for i, r in enumerate(runs) if r["exit"]]
    p_failed = sum(r["failed"] for r in parent_runs)
    c_failed = sum(r["failed"] for r in change_runs)
    if c_failed > p_failed:
        failures.append(f"change failed {c_failed} operations, "
                        f"parent {p_failed}")

    rows = []
    for key in parent_runs[0]["metrics"]:
        better, bound = bounds[key.split("/", 1)[1]]
        sign = 1 if better == "lower" else -1  # sign * value: up is worse
        p = [r["metrics"][key] for r in parent_runs]
        c = [r["metrics"][key] for r in change_runs]
        pq = quartiles(p)
        cq = quartiles(c)
        delta = (cq[1] - pq[1]) / pq[1]  # every metric is positive
        iqr = (pq[2] - pq[0]) / pq[1]
        if iqr > bound:  # too noisy to judge the medians
            cs, ps = [sign * x for x in c], [sign * x for x in p]
            v = ("regressed" if min(cs) > max(ps) else
                 "ok" if max(cs) < min(ps) else "unresolved")
        else:
            v = "regressed" if sign * delta > bound else "ok"
        if v == "regressed":
            failures.append(f"{key} regressed: median {delta:+.1%}, "
                            f"bound {bound:.0%}")
        rows.append({"metric": key, "parent": pq, "change": cq,
                     "delta": delta, "iqr": iqr, "verdict": v,
                     "wins": sum(sign * (y - x) < 0 for x, y in zip(p, c)),
                     "pairs": len(p)})
    return rows, failures


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run(tree, seed, seconds):
    """One `run.py --workload all` in `tree`, reduced to a verdict run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stdout)  # names the pin that mismatched
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"perf_ab: run.py in {tree} (seed {seed}) exited "
                 f"{proc.returncode} without a result")
    host = next((json.loads(line[len("# host "):]) for line in lines
                 if line.startswith("# host ")), {})
    return {"exit": proc.returncode, "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "host": host}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", help="the parent revision, e.g. origin/main")
    ap.add_argument("--seconds", type=float,
                    help="passed through to perfbench/run.py")
    args = ap.parse_args()

    try:
        sha = git("rev-parse", "--verify", "--end-of-options",
                  args.rev + "^{commit}")
    except subprocess.CalledProcessError:
        print(f"perf_ab: {args.rev!r} does not name a commit",
              file=sys.stderr)
        sys.exit(2)
    parent = ROOT / ".bench_build" / "ab" / sha
    if not parent.is_dir():
        git("worktree", "prune")
        git("worktree", "add", "--detach", str(parent), sha)
    change = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change += "-dirty"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in spec["end_to_end"]}

    trees = {"parent": parent, "change": ROOT}
    runs = {"parent": [], "change": []}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                              "parent")
        for side in order:
            print(f"perf_ab: pair {pair + 1}/{PAIRS}, {side}",
                  file=sys.stderr, flush=True)
            runs[side].append(run(trees[side], pair + 1, args.seconds))
        if runs["parent"][-1]["exit"] or runs["change"][-1]["exit"]:
            break  # a pins mismatch repeats in every pair
    rows, failures = verdict(runs["parent"], runs["change"], bounds)

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"# parent {sha}\n# change {change}\n"
          f"{'metric':<26} {'parent median [q1, q3]':<28} "
          f"{'change median [q1, q3]':<28} {'delta':>7} {'wins':>5} "
          f"{'IQR':>6}  verdict")
    for r in rows:
        print(f"{r['metric']:<26} {fmt(r['parent']):<28} "
              f"{fmt(r['change']):<28} {r['delta']:>+7.1%} "
              f"{r['wins']:>2}/{r['pairs']:<2} {r['iqr']:>6.1%}  "
              f"{r['verdict']}")
    for f in failures:
        print(f"FAIL {f}")
    print("PASS" if not failures else "FAIL")
    host = {k: v for k, v in runs["change"][0]["host"].items()
            if k not in ("revision", "workload", "seed", "trace")}
    print(json.dumps({
        "parent": sha, "change": change, "seconds": args.seconds,
        "host": host,
        "parent_medians": {r["metric"]: r["parent"][1] for r in rows},
        "change_medians": {r["metric"]: r["change"][1] for r in rows}}))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
