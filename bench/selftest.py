"""Self-test of the benchmark: python3 bench/selftest.py

Runs each workload at its smallest size with a fixed seed and checks that
the screen flags the recorded defects, that tracing changes no output, and
that the traced counts repeat exactly.
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1
COUNTS = ("calls", "errors", "ode_steps", "rhs_evals", "pole_errors")


def smallest(name):
    """The generated operations after the screen, with the screen's
    failures: on shooting the first two shots (one reference shot, one
    state)."""
    ops = workloads.generate(name, SEED)
    if name not in workloads.SCREENED:
        return ops[:2], []
    return run.screen(ops)


def traced(ops):
    with spans.Tracer() as tracer:
        samples, digests = run.measure(ops, keep_outputs=True)
    counts = {k: v for k, v in spans.layer_metrics(tracer.spans).items()
              if k.rsplit(".", 1)[-1] in COUNTS}
    return samples, digests, counts


class OracleTest(unittest.TestCase):
    def test_sturm_counts(self):
        # (x - 1)^2 (x + 2) (x^2 + 1) and x^2 (x^2 - 1)
        p = oracles._mul(oracles._mul([1, -2, 1], [2, 1]), [1, 0, 1])
        self.assertEqual(oracles.real_root_counts(p), (2, 3))
        self.assertEqual(oracles.real_root_counts([0, 0, -1, 0, 1]), (3, 4))
        self.assertEqual(oracles.real_root_counts([Fraction(1, 3), 0, 1]), (0, 0))

    def test_count_oracle_flags_dropped_double_root(self):
        # alpha = beta = 0, N = 14: the exact polynomial is d^2 (...) with 5
        # distinct real roots; the solver drops the double root d = 0
        self.assertEqual(
            oracles.real_root_counts(oracles.coupling_char_poly(Fraction(0), Fraction(0), 1, 14)),
            (5, 6))
        op = workloads._solve_op("sturmian", 0, 0, 1, 14)
        out = op.run()
        ok, detail = op.check(out)
        self.assertEqual(len(out[0].d_values), 4)
        self.assertFalse(ok)
        self.assertIn("exact 5 distinct of 6", detail)


class MetricNamesTest(unittest.TestCase):
    def test_emitted_metrics_match_benchmark_json(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        sample = run.Sample("shot", "x", 1.0, True, "", 1)
        e2e = run.end_to_end([sample], [1.0], 1.0)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(e2e))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: unit for k, (_, unit) in e2e.items()})
        layer = list(spans.layer_metrics([])) + ["trace.traced_s", "trace.untraced_s",
                                                 "trace.overhead_s"]
        self.assertEqual([m["name"] for m in spec["per_layer"]], layer)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: run._layer_unit(k) for k in layer})

    def test_fastest_repetition(self):
        samples = [run.Sample("sweep", "a", 2.0, True, "", 10),
                   run.Sample("sweep", "a", 1.0, True, "", 10),
                   run.Sample("sweep", "a", 0.5, False, "exit 2", 0),
                   run.Sample("sweep", "b", 3.0, True, "", 30)]
        self.assertEqual(run.fastest(samples), {"a": (1.0, 10), "b": (3.0, 30)})
        e2e = run.end_to_end(samples, [1.0], 0.5)
        self.assertEqual(e2e["ok_per_s"][0], 0.5)
        self.assertEqual(e2e["points_per_s"][0], 10.0)
        self.assertEqual(e2e["ok_frac"][0], 0.375)

    def test_tail_latency(self):
        self.assertEqual(run.tail_latency([float(k) for k in range(101)]), 90.0)
        self.assertEqual(run.tail_latency([float(k) for k in range(9)]), 4.0)


class WorkloadTest(unittest.TestCase):
    def check_workload(self, name):
        workloads.warm_up(name)
        ops, rejected = smallest(name)
        cycle = [ops]
        samples, traced_out, counts = traced(cycle)
        again, _, counts_again = traced(cycle)
        untraced, untraced_out = run.measure(cycle, keep_outputs=True)
        self.assertEqual(traced_out, untraced_out)
        self.assertEqual(counts, counts_again)
        # every timed operation passes: failures are screened out
        for run_samples in (samples, again, untraced):
            self.assertTrue(all(s.ok for s in run_samples))
        self.assertGreater(sum(counts.values()), 0)
        return rejected, counts

    def test_exact_sweep(self):
        rejected, _ = self.check_workload("exact-sweep")
        failed = {s.label: s.detail for s in rejected}
        # recorded defects: the N = 14/26 counts, the coupled ArithmeticError
        # and the M = 2, N = 12 sweep abort
        self.assertIn("exact 5 distinct of 6",
                      failed["sturmian alpha=0 beta=0 M=1 N=14"])
        self.assertIn("exact 9 distinct of 10",
                      failed["sturmian alpha=0 beta=0 M=1 N=26"])
        self.assertTrue(failed["coupled alpha=0.5 beta=0.2 M=3 N=8"]
                        .startswith("ArithmeticError"))
        self.assertTrue(failed["sweep M=2 N=12 9x9"].startswith("exit 2"))
        self.assertEqual([s.label for s in rejected if s.kind == "sweep"],
                         ["sweep M=2 N=12 9x9"])

    def test_shooting(self):
        _, counts = self.check_workload("shooting")
        self.assertGreater(counts["shooting.rhs_evals"], counts["shooting.ode_steps"])

if __name__ == "__main__":
    unittest.main()
