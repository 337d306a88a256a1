"""Census of contour shots over the exact states of the CLI digest's grid.

Every entry that a solver validates, with |E| < 200, is shot with
``find_eigenvalue`` from E + 0.05 and from E - 0.05 on one contour, with
the start radius derived at the guess: by default ``Contour(epsilon=0.5)``,
the real-axis pair of decay sectors below the spike; with
``--contour lower``, the lower bent pair ``BENT_WAYPOINTS``, whose ends lie
at |r| = 4 in the sectors centred on -2pi/3 and -pi/3 (the tests' bent
contour).  Each shot falls in one category:

* ``confirmed``: converged within 1e-7 (1 + |E|) of the exact energy;
* ``off``: converged farther than that, but within 1e-2;
* ``far``: converged farther than 1e-2 (on another level, or run off);
* ``unconverged``: the search reports no convergence;
* ``pole``: the search met a pole and ended at its guess;
* ``failure``: ``find_eigenvalue`` raised.

The grid: (alpha, beta) in {-3, -1.5, -0.625, 0, 0.375, 1, 2.25}^2 as exact
fractions (the values of ``tools/cli_digest.py``), M in {1, 2, 3} solved by
``sturmian_multiplet``, ``solve_energies`` and ``solve_coupled``, and N in
2..5.  A spec whose solver raises is skipped and counted.

Uses only the stdlib and the ``decadic`` found on ``sys.path``:

    PYTHONPATH=src python3 tools/shot_census.py [--contour default|lower] > census.txt

prints one line per shot: the category, alpha, beta, M, N, the exact
energy, the guess, the energy found, the iterations and the start radius
derived at the guess (``result.contour.x_max``), so two checkouts'
censuses compare line by line, radius included.  The tallies, overall and by alpha, go to
stderr.  The full grid is 2838 shots, about 2.5 minutes on the default
contour and 1 on the lower pair, on a 2-core VM.
"""

from __future__ import annotations

import argparse
import cmath
import collections
import math
import sys
from fractions import Fraction

from decadic import (
    Contour,
    ModelSpec,
    find_eigenvalue,
    potential_coeffs,
    solve_coupled,
    solve_energies,
    sturmian_multiplet,
)

VALUES = ("-3", "-1.5", "-0.625", "0", "0.375", "1", "2.25")
SOLVERS = {1: sturmian_multiplet, 2: solve_energies, 3: solve_coupled}
SIZES = tuple((big_m, n) for big_m in (1, 2, 3) for n in range(2, 6))
E_LIMIT = 200.0
OFFSETS = (0.05, -0.05)
BENT_WAYPOINTS = (4 * cmath.exp(-2j * math.pi / 3), -0.5j, 4 * cmath.exp(-1j * math.pi / 3))
CONTOURS = {"default": Contour(epsilon=0.5), "lower": Contour(waypoints=BENT_WAYPOINTS)}
CATEGORIES = ("confirmed", "off", "far", "unconverged", "pole", "failure")


def states(alphas=VALUES, betas=VALUES, sizes=SIZES):
    """(states, skipped): the (spec, E, d) of every validated entry with
    |E| < E_LIMIT on the grid, in grid order, and the specs whose solver
    raised."""
    found, skipped = [], []
    for big_m, n in sizes:
        for alpha in alphas:
            for beta in betas:
                spec = ModelSpec(alpha=Fraction(alpha), beta=Fraction(beta), big_m=big_m,
                                 n_states=n)
                try:
                    entries = SOLVERS[big_m](spec)
                except (ArithmeticError, ValueError):
                    skipped.append(spec)
                    continue
                found += [(spec, e.energy, e.quadratic_coupling) for e in entries
                          if e.validated and abs(e.energy) < E_LIMIT]
    return found, skipped


def shoot(spec, energy, coupling, guess, contour=CONTOURS["default"]):
    """(category, result) of one shot; result is None when it raised."""
    coeffs = potential_coeffs(spec, coupling)
    try:
        result = find_eigenvalue(coeffs, spec.angular_momentum, guess, contour)
    except (ArithmeticError, ValueError):
        return "failure", None
    miss = abs(result.energy - energy)
    if not result.converged:
        # find_eigenvalue's result when the search met a pole
        poled = result.iterations == 0 and result.wronskian_residual == math.inf
        return ("pole" if poled else "unconverged"), result
    if miss <= 1e-7 * (1 + abs(energy)):
        return "confirmed", result
    return ("off" if miss <= 1e-2 else "far"), result


def census(found, contour=CONTOURS["default"]):
    """[(category, spec, E, guess, result)] of both shots of every state."""
    shots = []
    for spec, energy, coupling in found:
        for offset in OFFSETS:
            guess = energy + offset
            category, result = shoot(spec, energy, coupling, guess, contour)
            shots.append((category, spec, energy, guess, result))
    return shots


def tally(shots):
    """The count of each category, in CATEGORIES order."""
    counts = collections.Counter(category for category, *_ in shots)
    return {category: counts[category] for category in CATEGORIES}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Census of contour shots of the exact states.")
    parser.add_argument("--contour", choices=tuple(CONTOURS), default="default",
                        help="the contour shot: the default one or the lower bent pair")
    args = parser.parse_args(argv)
    found, skipped = states()
    shots = census(found, CONTOURS[args.contour])
    for category, spec, energy, guess, result in shots:
        outcome = ("- - -" if result is None else
                   f"{result.energy!r} {result.iterations} {result.contour.x_max!r}")
        print(category, spec.alpha, spec.beta, spec.big_m, spec.n_states, repr(energy),
              repr(guess), outcome)
    print(f"{len(found)} states, {len(shots)} shots on the {args.contour} contour; "
          f"{len(skipped)} specs skipped (solver raised)", file=sys.stderr)
    print("all:", tally(shots), file=sys.stderr)
    for alpha in VALUES:
        print(f"alpha={alpha}:", tally([s for s in shots if s[1].alpha == Fraction(alpha)]),
              file=sys.stderr)


if __name__ == "__main__":
    main()
