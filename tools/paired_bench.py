"""Paired end-to-end benchmark of a parent commit against this checkout.

    python3 tools/paired_bench.py --parent REV --out BENCH_<n>.json
        [--claim WORKLOAD:METRIC] [--about TEXT]

Exports REV with ``git archive`` into a temporary directory, which is
removed afterwards.  For each workload of ``BENCHMARK.json`` it runs

    python3 bench/run.py --workload W --seed 4242 --seconds S --trace 0

with S its ``run_seconds``, from each side's own checkout in 10
alternating pairs: odd pairs run the parent first, even pairs the change.  The change is this checkout as it
stands, committed or not.  Then it runs ``shooting --seed 1 --trace 1`` and
``exact-sweep --seed 1 --trace 1`` once on each side and compares the traced
counts, which repeat exactly for a seed: a change that keeps every
integration step, or every exact-layer call, keeps them all.

The output has the layout of ``BENCH_9.json``: for every end-to-end metric
of ``BENCHMARK.json`` on each workload, the per-pair values, each side's
median and quartiles (``statistics.quantiles(n=4, method="inclusive")``),
the change's wins and losses, the parent's IQR and a verdict:

* ``gain`` (or ``better (not claimed)``): the change wins at least 9 of 10
  pairs, its median is better by more than the parent's IQR, and no more
  of its operations fail, summed over the pairs, than the parent's;
* ``more failures``: all of that, but more of the change's operations
  fail;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's relative bound;
* ``unresolved``: the parent's IQR is wider than that bound, and not every
  run of the change reads better than every run of the parent;
* ``within bound`` otherwise.

It also reads each run's record, ``bench/out/W-seed4242-trace0.json`` in
that side's checkout, and writes under ``fastest_s`` every operation
label's fastest successful latency, each side's median over the pairs and
their ratio: the table that shows which operations a change speeds up and
which it leaves alone.

The file is rewritten after every pair, so an interrupted run leaves the
pairs it finished.  Nothing under ``bench/`` is written to except its
``bench/out/`` run records.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 4242
TRACE_SEED = 1
# traced workload -> the counts that must agree when the change keeps every
# step or call, and the prefixes of the layers whose seconds are recorded
TRACED = {
    "shooting": (("shooting.ode_steps", "shooting.rhs_evals",
                  "shooting.wronskian_mismatch.calls", "shooting.pole_errors"),
                 ("shooting.", "trace.")),
    "exact-sweep": (("polynomial.roots.calls", "polynomial.roots.errors",
                     "recurrence.full_system.calls", "verify.verify_solution.calls",
                     "polynomial.det_bipoly.calls", "polynomial.resultant.calls",
                     "solvers.shifted_coupling_poly.calls"),
                    ("polynomial.", "recurrence.", "solvers.", "verify.", "cli.", "trace.")),
}
# alternating pairs per workload: a gain needs 9 wins among them
PAIRS = 10


def run_bench(root, workload, seed, seconds, trace):
    """The JSON result line of one bench/run.py run from checkout root."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, check=True,
                          timeout=3 * seconds + 600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fastest(root, workload):
    """label -> the fastest successful latency of the last bench/run.py run
    of workload at SEED from checkout root, read from its run record."""
    path = Path(root) / "bench" / "out" / f"{workload}-seed{SEED}-trace0.json"
    best = {}
    for sample in json.loads(path.read_text())["samples"]:
        if sample["ok"] and sample["latency"] < best.get(sample["label"], math.inf):
            best[sample["label"]] = sample["latency"]
    return best


def fastest_table(latencies):
    """label -> each side's median fastest latency and change / parent."""
    table = {}
    for label in dict.fromkeys([*latencies["parent"], *latencies["change"]]):
        row = {side: statistics.median(latencies[side][label])
               for side in ("parent", "change") if label in latencies[side]}
        if len(row) == 2:
            row["ratio"] = row["change"] / row["parent"]
        table[label] = row
    return table


def export(rev, directory):
    """Write the tree of rev into directory."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(directory)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, archive.args)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def failures(pairs):
    """Each side's failed and attempted operations summed over the pairs,
    and whether more of the change's operations failed."""
    totals = {side: {k: sum(p[side][k] for p in pairs) for k in ("failed", "attempted")}
              for side in ("parent", "change")}
    return {**totals,
            "change_fails_more": totals["change"]["failed"] > totals["parent"]["failed"]}


def compare(spec, parent_runs, change_runs, claimed, change_fails_more):
    """One metric's entry: both sides' summaries, the wins and the verdict."""
    sign = 1 if spec["better"] == "higher" else -1
    parent, change = summary(parent_runs), summary(change_runs)
    wins = sum(1 for p, c in zip(parent_runs, change_runs) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent_runs, change_runs) if sign * (c - p) < 0)
    gain = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    pairs = len(parent_runs)
    every_run_better = (min(change_runs) > max(parent_runs) if sign > 0
                        else max(change_runs) < min(parent_runs))
    if wins >= 0.9 * pairs and gain > iqr:
        if change_fails_more:
            verdict = "more failures"
        else:
            verdict = "gain" if claimed else "better (not claimed)"
    elif -gain > spec["bound"] * abs(parent["median"]):
        verdict = "regression"
    elif iqr > spec["bound"] * abs(parent["median"]) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": parent, "change": change, "change_wins": wins,
            "change_losses": losses, "pairs": pairs, "median_gain": gain,
            "parent_iqr": iqr, "verdict": verdict,
            "parent_runs": parent_runs, "change_runs": change_runs}


def flat(result):
    values = {k: result[k] for k in ("correct", "attempted", "failed")}
    values.update((name, m["value"]) for name, m in result["metrics"].items())
    return values


def machine():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--about", default="")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    claimed = tuple(args.claim.split(":", 1)) if args.claim else None
    record = {"about": args.about,
              "command": "python3 bench/run.py --workload W --seed %d --seconds %g --trace 0"
                         % (SEED, seconds),
              "parent_rev": subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                                           capture_output=True, text=True,
                                           check=True).stdout.strip(),
              "claimed": dict(zip(("workload", "metric"), claimed)) if claimed else None,
              "machine": machine(), "end_to_end": {}, "failures": {}, "fastest_s": {},
              "pairs": {}}

    def write():
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="paired-bench-") as parent_root:
        export(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = record["pairs"][workload] = []
            latencies = {"parent": {}, "change": {}}
            for k in range(1, PAIRS + 1):
                order = ("parent", "change") if k % 2 else ("change", "parent")
                entry = {"pair": k, "first": order[0]}
                for side in order:
                    entry[side] = flat(run_bench(roots[side], workload, SEED, seconds, 0))
                    for label, latency in fastest(roots[side], workload).items():
                        latencies[side].setdefault(label, []).append(latency)
                pairs.append(entry)
                record["fastest_s"][workload] = fastest_table(latencies)
                failed = record["failures"][workload] = failures(pairs)
                if len(pairs) > 1:  # quartiles need two runs a side
                    record["end_to_end"][workload] = {
                        spec["name"]: compare(spec, [p["parent"][spec["name"]] for p in pairs],
                                              [p["change"][spec["name"]] for p in pairs],
                                              claimed == (workload, spec["name"]),
                                              failed["change_fails_more"])
                        for spec in specs}
                write()
                print(f"{workload} pair {k}/{PAIRS}", file=sys.stderr, flush=True)
        for workload, (names, layers) in TRACED.items():
            traced = {side: run_bench(roots[side], workload, TRACE_SEED, 10, 1)["metrics"]
                      for side in ("parent", "change")}
            counts = {name: {side: traced[side][name]["value"] for side in traced}
                      for name in names}
            record[f"traced_{workload.replace('-', '_')}_seed{TRACE_SEED}"] = {
                "command": f"python3 bench/run.py --workload {workload} --seed {TRACE_SEED} "
                           "--seconds 10 --trace 1",
                "counts_equal": all(v["parent"] == v["change"] for v in counts.values()),
                "counts": counts,
                "layer_seconds": {name: {side: traced[side][name]["value"] for side in traced}
                                  for name, m in traced["parent"].items()
                                  if m["unit"] == "s" and name.startswith(layers)}}
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
