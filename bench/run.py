"""Benchmark of decadic: two seeded closed-loop workloads with oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src/``).
With ``--trace 0`` the workload goes round its operations for S seconds,
untraced, and the last line of standard output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` a fixed list of operations runs
once under the span tracer and once without it; the last line then carries
the per-layer metrics and the tracing overhead, and ``correct`` also
requires both passes to produce the same outputs.  A full run record (seed, per-operation samples, versions,
spans) is written to ``bench/out/``.

On ``exact-sweep`` every generated operation first runs once, untimed,
and only those that pass their oracle are timed; the share that passes is
``ok_frac`` and the failures go to the run record.
``correct`` says that every timed operation was checked by its oracle and,
for a traced run, that tracing changed no output.  Timed operations that
raise, exit nonzero, fail to converge or fail an oracle are counted in
``failed``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("exact-sweep", "shooting")
# never used while the benchmark was written; later claims must hold on it too
HELD_OUT_SEED = 4242
SETUP_SAMPLES = 3
# setup_s: a fresh interpreter imports decadic and makes the warm-up call
_SETUP_CODE = ("import sys, time\n"
               "t0 = time.perf_counter()\n"
               "sys.path[:0] = sys.argv[1:3]\n"
               "import workloads\n"
               "workloads.warm_up(sys.argv[3])\n"
               "print(time.perf_counter() - t0)\n")


@dataclass(frozen=True)
class Sample:
    kind: str
    label: str
    latency: float
    ok: bool
    detail: str
    points: int


def setup_seconds(workload):
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH), workload],
        capture_output=True, text=True, timeout=150, check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


def measure(cycles, budget=None, keep_outputs=False):
    """Run the cycles one operation at a time; with a budget, stop at the
    first operation boundary after it.  Oracles run outside the timed
    region.  Returns the samples and, if asked, the digests of the
    outputs."""
    samples, digests = [], []
    gc.collect()
    start = time.perf_counter()
    for ops in cycles:
        for op in ops:
            if budget is not None and time.perf_counter() - start >= budget:
                return samples, digests
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a failing operation is recorded, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if error is None:
                ok, detail = op.check(out)
                points = op.points(out)
            else:
                ok, detail, points = False, error, 0
            samples.append(Sample(op.kind, op.label, latency, ok, detail, points))
            if keep_outputs:
                digests.append(error if error is not None else op.digest(out))
    return samples, digests


def tail_latency(latencies):
    """The 90th percentile when at least ten samples lie beyond it;
    otherwise the highest percentile that has ten beyond it, but not below
    the median (a run of a few slow operations has no resolvable tail)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        return 0.0
    q = min(0.9, max(0.5, 1 - 10 / n))
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def screen(ops):
    """Run every operation once, untimed for the metrics.  Returns the
    operations that pass their oracle and the samples of those that fail."""
    samples, _ = measure([ops])
    return ([op for op, s in zip(ops, samples) if s.ok],
            [s for s in samples if not s.ok])


def fastest(samples):
    """label -> (latency, points) of the operation's fastest successful
    repetition.  Equal labels mean equal inputs."""
    best = {}
    for s in samples:
        if s.ok and (s.label not in best or s.latency < best[s.label][0]):
            best[s.label] = (s.latency, s.points)
    return best


def end_to_end(samples, setup, screened_frac):
    """The end-to-end metrics.  Latencies and rates are taken over the
    distinct operations of the run, each at its fastest repetition: the
    host's speed drifts by a quarter over tens of seconds, and the fastest
    repetition of an operation is what stays put from run to run."""
    best = fastest(samples)
    latencies = [latency for latency, _ in best.values()]
    # a run in which every timed operation failed reads 0 and is not correct
    total = sum(latencies) or float("inf")
    ok = sum(1 for s in samples if s.ok)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ok_per_s": (len(best) / total, "1/s"),
        "op_p50_s": (statistics.median(latencies) if latencies else 0.0, "s"),
        "op_p90_s": (tail_latency(latencies), "s"),
        "ok_frac": (screened_frac * ok / max(len(samples), 1), "ratio"),
        "points_per_s": (sum(points for _, points in best.values()) / total, "1/s"),
    }


PER_LAYER_UNITS = {"calls": "count", "errors": "count", "ode_steps": "count",
                   "rhs_evals": "count", "pole_errors": "count",
                   "accept_ratio": "ratio", "mismatch_per_eigen": "ratio",
                   "rhs_per_mismatch": "ratio"}


def _layer_unit(name):
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha()}


def by_kind(samples):
    out = {}
    for s in samples:
        entry = out.setdefault(s.kind, {"attempted": 0, "failed": 0})
        entry["attempted"] += 1
        entry["failed"] += not s.ok
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "decadic" / "__init__.py").is_file():
        print(f"error: no decadic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    setup = [setup_seconds(args.workload) for _ in range(SETUP_SAMPLES)]
    workloads.warm_up(args.workload)
    record = {"workload": args.workload, "seed": args.seed,
              "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "setup_samples": setup}
    ops = workloads.generate(args.workload, args.seed)
    screened_frac = 1.0
    if args.workload in workloads.SCREENED:
        passing, rejected = screen(ops)
        screened_frac = len(passing) / len(ops)
        record["screen"] = {"generated": len(ops), "passed": len(passing),
                            "failures": [asdict(s) for s in rejected]}
        ops = passing
    if not ops:
        print("error: no generated operation passed its oracle", file=sys.stderr)
        return 1
    if args.trace:
        # inputs are generated and screened before the tracer is installed
        ops = [ops[:workloads.TRACE_OPS[args.workload]]]
        with spans.Tracer() as tracer:
            samples, traced_out = measure(ops, keep_outputs=True)
        untraced, untraced_out = measure(ops, keep_outputs=True)
        traced_s = sum(s.latency for s in samples)
        untraced_s = sum(s.latency for s in untraced)
        values = spans.layer_metrics(tracer.spans)
        metrics = {name: (v, _layer_unit(name)) for name, v in values.items()}
        metrics["trace.traced_s"] = (traced_s, "s")
        metrics["trace.untraced_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        correct = traced_out == untraced_out
        record["untraced_samples"] = [asdict(s) for s in untraced]
        record["outputs_match"] = correct
        record["spans"] = spans.span_records(tracer.spans)
    else:
        samples, _ = measure(itertools.repeat(ops), args.seconds)
        metrics = end_to_end(samples, setup, screened_frac)
        correct = True
    failed = sum(1 for s in samples if not s.ok)
    correct = correct and len(samples) > failed  # metrics need one success
    result = {"correct": correct, "attempted": len(samples), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result=result, by_kind=by_kind(samples),
                  samples=[asdict(s) for s in samples])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
