"""Digest of the decadic CLI's stdout and exit codes over a fixed grid.

Runs 1944 invocations in-process through ``decadic.cli.main`` and prints one
line per invocation: the exit code, the sha256 of stdout and the argv.  Two
checkouts whose digests are equal line for line give the same exit codes and
byte-identical stdout on the whole grid (stderr is not compared).

The grid:

* ``sturmian`` with N in {1, 2, 3, 5, 8, 12, 20};
* ``energies`` with N in {1, 2, 3, 5, 8, 12};
* ``coupled`` with M in 2..5 and N in max(1, M-1)..8;
* each of the three at every (alpha, beta) in
  {-3, -1.5, -0.625, 0, 0.375, 1, 2.25}^2;
* five sweeps over [-4, 4]^2 with (M, N, steps) in (1, 2, 41), (1, 10, 21),
  (2, 6, 21), (2, 12, 9) and (2, 3, 11);
* seven shots: the README reference state (M=2, N=3, d=8.320335292207618,
  E guess 5.5) at epsilon 0.25, 0.5 and 1.0, the same state from -50 with
  an escape bound of 100 (exit 1), the M=1, N=2, alpha=2, beta=0 state at
  d=-4 from E guess 0.3, and the reference state at the depths 1.2 and 8,
  below the transit depth 0.5;
* ``wedges`` at every degree z in 1..6, and at delta in
  {-2, -1, 0, 0.5, 1, 2, 3, 4.5}: each side of the real-compatible window
  1 < delta < 3, its ends, and the invalid -2 (exit 2);
* the three reference shots again with ``--x-max=4`` in place of the
  radius derived from the potential;
* one shot at alpha = 1e20 (M=2, N=3, d=0, E guess 1), whose start value
  at the derived radius 1.9 already lies beyond the pole threshold: it
  ends unconverged at once (exit 1), and a shot that spins there instead
  stalls the digest;
* three ``coupled`` solves whose states need both determinants in the
  back-substitution: at M=3, N=2 with (alpha, beta) = (0.1, 20) and
  (6, 0.3333333333333333) the small determinant loses d to cancellation
  at E ~ 0, and at M=3, N=4 with (3, 2) it vanishes identically in d at
  E = 0.

Uses only the stdlib and the ``decadic`` found on ``sys.path``, so point
PYTHONPATH at the checkout to digest:

    PYTHONPATH=src python3 tools/cli_digest.py > digest.txt

A count of invocations and of each exit code goes to stderr.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import sys

from decadic.cli import main

VALUES = ("-3", "-1.5", "-0.625", "0", "0.375", "1", "2.25")
SWEEPS = ((1, 2, 41), (1, 10, 21), (2, 6, 21), (2, 12, 9), (2, 3, 11))
REFERENCE_SHOT = ["shoot", "-M", "2", "-N", "3", "--d=8.320335292207618"]
SHOTS = [REFERENCE_SHOT + ["--e-guess=5.5", f"--epsilon={eps}"] for eps in ("0.25", "0.5", "1.0")]
SHOTS += [REFERENCE_SHOT + ["--e-guess=-50", "--e-bound=100"],
          ["shoot", "--alpha=2", "--beta=0", "-M", "1", "-N", "2", "--d=-4", "--e-guess=0.3"]]
SHOTS += [REFERENCE_SHOT + ["--e-guess=5.5", f"--epsilon={eps}"] for eps in ("1.2", "8")]
WEDGES = [["wedges", f"--degree={z}"] for z in range(1, 7)]
DELTAS = ("-2", "-1", "0", "0.5", "1", "2", "3", "4.5")
WEDGES += [["wedges", f"--delta={delta}"] for delta in DELTAS]
# the reference shots from the fixed radius 4 in place of the derived one
FIXED_RADIUS_SHOTS = [argv + ["--x-max=4"] for argv in SHOTS[:3]]
# a start already beyond the pole threshold, listed last so that every
# earlier line keeps its place
HUGE_START_SHOTS = [["shoot", "-M", "2", "-N", "3", "--alpha=1e20", "--d=0", "--e-guess=1"]]
# coupled states that back-substitution on one determinant alone loses,
# listed last for the same reason
BACK_SUBSTITUTION = [["coupled", "-M", "3", "-N", str(n), f"--alpha={alpha}", f"--beta={beta}"]
                     for n, alpha, beta in ((2, "0.1", "20"), (2, "6", "0.3333333333333333"),
                                            (4, "3", "2"))]


def grid():
    """The argv lists of the grid, in a fixed order."""
    sizes = [("sturmian", 1, n) for n in (1, 2, 3, 5, 8, 12, 20)]
    sizes += [("energies", 2, n) for n in (1, 2, 3, 5, 8, 12)]
    sizes += [("coupled", m, n) for m in range(2, 6) for n in range(max(1, m - 1), 9)]
    for command, m, n in sizes:
        for alpha in VALUES:
            for beta in VALUES:
                yield [command, "-M", str(m), "-N", str(n),
                       f"--alpha={alpha}", f"--beta={beta}"]
    for m, n, steps in SWEEPS:
        yield ["sweep", "-M", str(m), "-N", str(n),
               "--alpha-min=-4", "--alpha-max=4", f"--alpha-steps={steps}",
               "--beta-min=-4", "--beta-max=4", f"--beta-steps={steps}"]
    yield from SHOTS
    yield from WEDGES
    yield from FIXED_RADIUS_SHOTS
    yield from HUGE_START_SHOTS
    yield from BACK_SUBSTITUTION


def run(argv):
    """(exit code, stdout) of one in-process CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def main_digest() -> None:
    codes = collections.Counter()
    for argv in grid():
        code, out = run(argv)
        codes[code] += 1
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        print(code, digest, " ".join(argv))
    summary = ", ".join(f"exit {c}: {k}" for c, k in sorted(codes.items()))
    print(f"{sum(codes.values())} invocations ({summary})", file=sys.stderr)


if __name__ == "__main__":
    main_digest()
