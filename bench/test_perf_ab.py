"""perf_ab.verdict on synthetic runs: the perf gate's pass/fail rule.

    cd bench && python3 -m unittest test_perf_ab
"""

import unittest

from perf_ab import verdict

BOUNDS = {"pass_s": ("lower", 0.25), "sim_mops_per_s": ("higher", 0.25),
          "p95_ms": ("lower", 0.25), "peak_rss_mb": ("lower", 0.15),
          "setup_s": ("lower", 0.25)}
WORKLOADS = ("sim-hot", "fig2-study", "serve-mixed")


def runs(scale=None, jitter=0.01, exit_code=0, failed=0):
    """Ten runs of every workload/metric, each value 1.0 wobbled by
    -2..+2 times `jitter` (two runs at each step) and multiplied by
    scale[key] where given."""
    scale = scale or {}
    return [{"exit": exit_code, "failed": failed,
             "metrics": {f"{w}/{m}": (1 + jitter * ((3 * i) % 5 - 2)) *
                         scale.get(f"{w}/{m}", 1.0)
                         for w in WORKLOADS for m in BOUNDS}}
            for i in range(10)]


def verdicts(rows):
    return {r["metric"]: r["verdict"] for r in rows}


class Verdict(unittest.TestCase):
    def test_identical_sides_pass(self):
        rows, failures = verdict(runs(), runs(), BOUNDS)
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), 15)
        self.assertEqual(set(verdicts(rows).values()), {"ok"})

    def test_slower_pass_fails_and_names_the_metric(self):
        rows, failures = verdict(
            runs(), runs({"fig2-study/pass_s": 1.3}), BOUNDS)
        self.assertEqual(len(failures), 1)
        self.assertIn("fig2-study/pass_s", failures[0])
        row = next(r for r in rows if r["metric"] == "fig2-study/pass_s")
        self.assertEqual((row["verdict"], row["wins"]), ("regressed", 0))

    def test_throughput_is_higher_is_better(self):
        _, failures = verdict(
            runs(), runs({"sim-hot/sim_mops_per_s": 0.7}), BOUNDS)
        self.assertEqual(len(failures), 1)
        self.assertIn("sim-hot/sim_mops_per_s", failures[0])
        _, failures = verdict(
            runs(), runs({"sim-hot/sim_mops_per_s": 1.3}), BOUNDS)
        self.assertEqual(failures, [])

    def test_wide_parent_spread_is_unresolved(self):
        # Parent IQR is 40% of its median, wider than every bound.
        rows, failures = verdict(
            runs(jitter=0.2), runs({"sim-hot/pass_s": 1.3}, jitter=0.2),
            BOUNDS)
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(rows)["sim-hot/pass_s"], "unresolved")
        # Unresolved still fails when every change run is worse.
        rows, failures = verdict(
            runs(jitter=0.2), runs({"sim-hot/pass_s": 3.0}, jitter=0.2),
            BOUNDS)
        self.assertEqual(verdicts(rows)["sim-hot/pass_s"], "regressed")
        self.assertEqual(len(failures), 1)
        # ... and reads ok when every change run is better.
        rows, _ = verdict(
            runs(jitter=0.2), runs({"sim-hot/pass_s": 0.3}, jitter=0.2),
            BOUNDS)
        self.assertEqual(verdicts(rows)["sim-hot/pass_s"], "ok")

    def test_failed_operations_and_exit_codes_fail(self):
        one_more = runs()
        one_more[3]["failed"] = 1
        _, failures = verdict(runs(), one_more, BOUNDS)
        self.assertEqual(failures, ["change failed 1 operations, parent 0"])
        _, failures = verdict(runs(failed=1), runs(failed=1), BOUNDS)
        self.assertEqual(failures, [])
        for parent, change in ((runs(exit_code=1), runs()),
                               (runs(), runs(exit_code=1))):
            _, failures = verdict(parent, change, BOUNDS)
            self.assertTrue(failures)
            self.assertTrue(all("exited 1" in f for f in failures))


if __name__ == "__main__":
    unittest.main()
