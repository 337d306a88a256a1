"""Seeded workloads for the decadic benchmark.

``generate`` turns a seed into a workload's operations; the same seed gives
the same operations.  The runner times them in a closed loop with one
client and one thread, one operation at a time, going round the list
until its time budget has passed.

There are two workloads.  ``exact-sweep`` mixes exact multiplet solves
with CLI sweeps: both are short operations whose fastest repetition is
steady, and together they cover ``polynomial``, ``recurrence``,
``solvers``, ``verify`` and ``cli``.  ``shooting`` covers ``shooting``,
whose operations take seconds each.

Operations whose failure is a recorded defect of the program are kept out
of the timed loop, so that every timed operation is expected to pass: on
``exact-sweep`` the runner screens every generated operation once,
untimed, and times only those that pass; the failures are reported as
``ok_frac`` and listed in the run record.  ``shooting`` times
a fixed table of states, each of which converges from every guess the seed
can draw, so it is not screened.

An operation carries its own untimed oracle (``check``), the number of
problem instances it completed (``points``) and a ``digest`` of its output
that traced and untraced runs must reproduce exactly.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from decadic import cli, shooting, solvers, verify
from decadic.model import ModelSpec, potential_coeffs

import oracles


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], "tuple[bool, str]"]
    points: Callable[[object], int]
    digest: Callable[[object], object]


def _one(_out):
    return 1


def _eighths(rng, bound):
    """A rational k/8 with |k| <= bound: floats and Fractions then describe
    the same number."""
    return Fraction(rng.randint(-bound, bound), 8)


# -- exact solves ----------------------------------------------------------------

# inputs recorded as defects: dropped double root at N = 14 and 26, and the
# float eliminant that makes roots() raise ArithmeticError; screened out
DEFECT_INPUTS = (
    ("sturmian", 0, 0, 1, 14),
    ("sturmian", 0, 0, 1, 26),
    ("coupled", 0.5, 0.2, 3, 8),
    ("coupled", 0.5, 0.2, 4, 6),
    ("coupled", 0.5, 0.2, 5, 4),
)
# (kind, M, N): every size the workload covers, so each seed generates the
# same mix of sizes and only alpha and beta vary
STRATA = (tuple(("sturmian", 1, n) for n in range(8, 31))
          + tuple(("energies", 2, n) for n in range(3, 13))
          + tuple(("coupled", m, n) for m in range(3, 6) for n in range(m - 1, 9)))
DRAWS_PER_STRATUM = 3
# looked up on the module at call time, so a traced run sees every call
SOLVERS = {"sturmian": "solve_sturmian", "energies": "solve_energies",
           "coupled": "solve_coupled"}


def _solutions(kind, result):
    if kind == "sturmian":
        return [(0.0, d, h) for d, h in zip(result.d_values, result.h_vectors)]
    return [(s.energy, s.quadratic_coupling, s.h) for s in result]


def _solve_op(kind, alpha, beta, big_m, n):
    spec = ModelSpec(alpha=alpha, beta=beta, big_m=big_m, n_states=n)

    def run():
        result = getattr(solvers, SOLVERS[kind])(spec)
        if kind == "sturmian":
            result.coupling_poly  # consumed, as criterion 1 does
        reports = [verify.verify_solution(spec, e, d, h)
                   for e, d, h in _solutions(kind, result)]
        return result, reports

    def check(out):
        result, reports = out
        bad = sum(1 for r in reports if not r.passed)
        if bad:
            return False, f"verify_solution rejected {bad} of {len(reports)} solutions"
        if kind != "sturmian":
            return True, ""
        al, be = Fraction(alpha), Fraction(beta)
        if list(result.coupling_poly.coeffs) != oracles.shifted_coupling_poly(al, be, 1, n):
            return False, "coupling_poly differs from the exact characteristic polynomial"
        distinct, total = oracles.real_root_counts(oracles.coupling_char_poly(al, be, 1, n))
        got = oracles.distinct_count(result.d_values)
        if got != distinct or len(result.d_values) != total:
            return False, (f"real couplings: {got} distinct of {len(result.d_values)} "
                           f"returned, exact {distinct} distinct of {total}")
        return True, ""

    def digest(out):
        result, reports = out
        return [(e, d, tuple(h), r.passed)
                for (e, d, h), r in zip(_solutions(kind, result), reports)]

    label = f"{kind} alpha={float(alpha):g} beta={float(beta):g} M={big_m} N={n}"
    return Op(kind, label, run, check, _one, digest)


def exact_multiplets(rng):
    """The recorded defect inputs, then DRAWS_PER_STRATUM draws of alpha and
    beta in [-3, 3] for every stratum."""
    ops = [_solve_op(*args) for args in DEFECT_INPUTS]
    for _ in range(DRAWS_PER_STRATUM):
        ops += [_solve_op(kind, _eighths(rng, 24), _eighths(rng, 24), big_m, n)
                for kind, big_m, n in STRATA]
    return ops


# -- shooting --------------------------------------------------------------------

REFERENCE = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
REFERENCE_E = 192 ** (1 / 3)
# the mirror pair centred on -2pi/3 and -pi/3 (tests/test_shooting.py)
BENT = shooting.Contour(waypoints=(4 * cmath.exp(-2j * math.pi / 3), -0.5j,
                                   4 * cmath.exp(-1j * math.pi / 3)))
# validated multi-term states (M, N, alpha, beta), shot on the default
# contour from E_exact +- each of OFFSETS; every such shot converges
SHOT_STATES = ((1, 2, "3/4", "-3/4"), (1, 4, "7/8", "-7/8"),
               (2, 3, "1", "11/8"), (2, 4, "-7/8", "7/8"))
OFFSETS = (0.02, 0.03, 0.04, 0.05)


def _shot_op(label, spec, coupling, exact_e, guess, contour):
    coeffs = potential_coeffs(spec, coupling)
    big_l = spec.angular_momentum

    def run():
        return shooting.find_eigenvalue(coeffs, big_l, guess, contour)

    def check(result):
        return oracles.check_shot(result, exact_e)

    def digest(result):
        return (result.energy, result.wronskian_residual, result.iterations,
                result.converged)

    return Op("shot", label, run, check, _one, digest)


def _shot_state(big_m, n, alpha, beta):
    """(spec, E, d) of the first multi-term solution verify_solution accepts.

    Single-monomial states are not used: their contour integral of psi^2
    vanishes, so the mismatch has no lever arm on E.
    """
    spec = ModelSpec(alpha=Fraction(alpha), beta=Fraction(beta), big_m=big_m, n_states=n)
    kind = "sturmian" if big_m == 1 else "energies"
    for e, d, h in _solutions(kind, getattr(solvers, SOLVERS[kind])(spec)):
        if (sum(1 for x in h if abs(x) > 1e-12) > 1
                and verify.verify_solution(spec, e, d, h).passed):
            return spec, e, d
    raise ValueError(f"no multi-term validated state at {spec}")


def shooting_ops(seed):
    """The four reference shots and one shot of every SHOT_STATES entry.

    The seed deals the offsets to the states and draws their signs.  The
    order is fixed, reference and state shots alternating, so a run that
    ends within a round times the same shots twice whatever the seed.  The
    exact solves that find the states run here, before measurement, and are
    not traced.
    """
    rng = random.Random(seed)
    ref_d = REFERENCE_E * REFERENCE_E / 4
    refs = [_shot_op(f"reference epsilon={eps}", REFERENCE, ref_d, REFERENCE_E, 5.5,
                     shooting.Contour(epsilon=eps)) for eps in (0.25, 0.5, 1.0)]
    refs.append(_shot_op("reference bent contour", REFERENCE, ref_d, REFERENCE_E, 5.6, BENT))
    states = []
    for (big_m, n, alpha, beta), offset in zip(SHOT_STATES, rng.sample(OFFSETS, len(OFFSETS))):
        spec, e, d = _shot_state(big_m, n, alpha, beta)
        guess = e + rng.choice((-1, 1)) * offset
        states.append(_shot_op(f"state M={big_m} N={n} alpha={alpha} beta={beta} "
                               f"E={e:.6g} guess={guess:.6g}", spec, d, e, guess,
                               shooting.Contour()))
    return [op for pair in zip(refs, states) for op in pair]


# -- sweep -----------------------------------------------------------------------

# (M, N, steps) over [-4, 4]^2: the criterion-10 grid, a large-N M = 1 grid,
# two M = 2 grids; M = 2, N = 12 aborts with exit 2 (recorded defect)
SWEEP_GRIDS = ((1, 2, 41), (1, 10, 21), (2, 6, 21), (2, 12, 9))
SWEEP_LO, SWEEP_HI = -4.0, 4.0


def _grid(steps):
    """The grid values the CLI computes for --*-min -4 --*-max 4."""
    return [SWEEP_LO + (SWEEP_HI - SWEEP_LO) * k / (steps - 1) for k in range(steps)]


class _SweepOracle:
    """Row checks for one sweep; exact counts are cached per grid point."""

    def __init__(self):
        self._counts = {}

    def exact_count(self, n, alpha, beta):
        key = (n, alpha, beta)
        if key not in self._counts:
            poly = oracles.coupling_char_poly(Fraction(alpha), Fraction(beta), 1, n)
            self._counts[key] = oracles.real_root_counts(poly)[1]
        return self._counts[key]

    def check(self, big_m, n, steps, out):
        code, text, err = out
        if code != 0:
            return False, f"exit {code}: {err.strip()[:200]}"
        lines = text.rstrip("\n").split("\n")
        if lines[0] != "alpha,beta,n_real,validated" or len(lines) != 1 + steps * steps:
            return False, f"{len(lines) - 1} rows for a {steps}x{steps} grid"
        points = [(a, b) for a in _grid(steps) for b in _grid(steps)]
        for (alpha, beta), line in zip(points, lines[1:]):
            a_s, b_s, n_s, _ = line.split(",")
            if (a_s, b_s) != (f"{alpha:.12e}", f"{beta:.12e}"):
                return False, f"row {line!r} is not grid point ({alpha!r}, {beta!r})"
            n_real = int(n_s)
            if n == 2 and big_m == 1:
                a, b = float(a_s), float(b_s)
                if (a * a > 4 * b and n_real != 2) or (a * a < 4 * b and n_real != 0):
                    return False, f"row {line!r} breaks the N = 2 discriminant rule"
            if big_m == 1 and n_real != self.exact_count(n, alpha, beta):
                return False, (f"row {line!r}: exact count is "
                               f"{self.exact_count(n, alpha, beta)}")
        return True, ""


def _sweep_op(oracle, big_m, n, steps):
    argv = ["sweep", "-M", str(big_m), "-N", str(n),
            "--alpha-min", f"{SWEEP_LO:g}", "--alpha-max", f"{SWEEP_HI:g}",
            "--alpha-steps", str(steps),
            "--beta-min", f"{SWEEP_LO:g}", "--beta-max", f"{SWEEP_HI:g}",
            "--beta-steps", str(steps)]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def points(out):
        return steps * steps if out[0] == 0 else 0

    return Op("sweep", f"sweep M={big_m} N={n} {steps}x{steps}", run,
              lambda out: oracle.check(big_m, n, steps, out), points,
              lambda out: out)


def exact_sweep(seed):
    """The exact solves and the four grids, in one seeded order."""
    rng = random.Random(seed)
    oracle = _SweepOracle()
    ops = exact_multiplets(rng) + [_sweep_op(oracle, *grid) for grid in SWEEP_GRIDS]
    rng.shuffle(ops)
    return ops


GENERATORS = {"exact-sweep": exact_sweep, "shooting": shooting_ops}
# workloads whose generated operations are screened before timing
SCREENED = frozenset({"exact-sweep"})
# operations a traced run takes from the front of the timed list, all when
# None (fixed, so its counts repeat exactly): one reference shot and one
# state on shooting
TRACE_OPS = {"exact-sweep": None, "shooting": 2}


def generate(name, seed):
    """The workload's operations for a seed."""
    return GENERATORS[name](seed)


def warm_up(name):
    """One call per workload that touches the code paths it measures."""
    if name == "exact-sweep":
        for op in (_solve_op("sturmian", 1, 0, 1, 8), _solve_op("energies", 0, 0, 2, 3),
                   _solve_op("coupled", 0, 0, 3, 3)):
            op.run()
        oracle = _SweepOracle()
        for grid in ((1, 2, 3), (2, 3, 3)):
            _sweep_op(oracle, *grid).run()
    elif name == "shooting":
        ref_d = REFERENCE_E * REFERENCE_E / 4
        shooting.wronskian_mismatch(potential_coeffs(REFERENCE, ref_d),
                                    REFERENCE.angular_momentum, 5.5, shooting.Contour(),
                                    rtol=1e-6, atol=1e-6)
    else:
        raise ValueError(f"unknown workload {name!r}")
