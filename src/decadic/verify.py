"""Ground-truth validation of candidate solutions.

Two independent checks.  recurrence_residual evaluates the four-term
recurrence rows directly.  ode_residual_poly substitutes the closed-form
state into -psi'' + (L(L+1)/r^2 + V - E) psi by its own symbolic
differentiation over exact rationals, never touching the recurrence
coefficients; for a true solution every coefficient of the resulting
polynomial vanishes identically.  Agreement of the two routes is what
certifies the recurrence coefficients themselves.  The expansion runs on
int numerators over one common denominator, so the exact sum pays no gcd
per term and each float is one correctly rounded int / int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import recurrence
from .model import ModelSpec, PotentialCoeffs, potential_coeffs
from .polynomial import Poly

__all__ = [
    "VerificationReport",
    "recurrence_residual",
    "ode_residual_poly",
    "verify_solution",
]


def recurrence_residual(spec: ModelSpec, energy, coupling, h) -> float:
    """Worst recurrence-row residual, scaled by the largest term magnitude.

    Rows n = 0..N are evaluated in floats, with out-of-range h treated as
    zero: each row's total is ((A h_{n+1} + B h_n) + C h_{n-1}) + D h_{n-2}
    over the row values of recurrence.float_coeffs, in which each rational
    product of alpha or beta is rounded once, as float(Fraction) rounds it.
    A zero h vector gives residual 0 (the trivial solution; callers should
    treat it as degenerate rather than validated).  A non-finite energy,
    coupling or h entry raises ValueError; an exact input, product or row
    total beyond the float range gives inf."""
    h = list(h)
    if len(h) != spec.n_states:
        raise ValueError(f"h must have length N = {spec.n_states}, got {len(h)}")
    try:
        hs = [float(x) for x in h]
        e0, d0 = float(energy), float(coupling)
    except OverflowError:  # exact values beyond the float range
        return math.inf
    if not math.isfinite(e0):
        raise ValueError(f"energy must be finite, got {e0}")
    if not math.isfinite(d0):
        raise ValueError(f"coupling must be finite, got {d0}")
    if not all(map(math.isfinite, hs)):
        raise ValueError(f"h must be finite, got {hs}")
    try:
        rows = recurrence.float_coeffs(spec, e0, d0)
    except OverflowError:
        return math.inf
    return _rows_residual(rows, hs)


def _rows_residual(rows, hs) -> float:
    """recurrence_residual over the float (A_n, B_n, C_n, D_n) rows of
    recurrence.float_coeffs and the N finite floats hs, checked by the
    caller."""
    shift = _unit_exponent(hs)
    # h_{-2} .. h_{N+1}, so that row n reads hp[n .. n+3]
    hp = [0.0, 0.0, *(math.ldexp(x, -shift) for x in hs), 0.0, 0.0]
    totals, terms = [], []
    for n, (a, b, c, d) in enumerate(rows):
        ta, tb, tc, td = a * hp[n + 3], b * hp[n + 2], c * hp[n + 1], d * hp[n]
        totals.append(ta + tb + tc + td)
        terms += (ta, tb, tc, td)
    # a non-finite term makes its row total non-finite too
    if not all(map(math.isfinite, totals)):
        return math.inf
    scale = max(map(abs, terms))
    return max(map(abs, totals)) / scale if scale > 0 else 0.0


def _unit_exponent(h) -> int:
    """The least k >= 0 with max |h| < 2^k.  Both residuals are ratios of
    sums linear in h, so h / 2^k keeps their bits and huge h in range."""
    return max(0, math.frexp(max(abs(float(x)) for x in h))[1])


# -- independent symbolic route ---------------------------------------------
#
# The state is exp(G(r)) * T(r) * r^(-L) with G = -r^6/6 - alpha r^4/4 - beta r^2/2
# and T a polynomial in r^2.  Series are dicts {m: coeff} meaning
# coeff * r^(m - L); operator polynomials are dicts {p: coeff * r^p}.  Both
# hold int numerators, so every term is an int over one denominator.


def _int_numerators(coeffs: dict):
    """{key: int} and k with coeffs[key] == int / k, k the lcm of the
    denominators."""
    k = math.lcm(*(c.denominator for c in coeffs.values()))
    return {key: c.numerator * (k // c.denominator) for key, c in coeffs.items()}, k


def ode_residual_poly(spec: ModelSpec, energy, coupling, h):
    """Exact residual of the radial equation for the closed-form state.

    Returns a Poly whose k-th coefficient multiplies r^(2k - L - 2); it is
    the zero polynomial exactly when (E, d, h) is an exact solution, with d
    the coupling and a, b, c, f from potential_coeffs.  All inputs are
    promoted to Fraction (floats convert exactly), so the result is
    bit-exact.
    """
    poly, den = _residual_numerators(spec, energy, h, potential_coeffs(spec, coupling))
    # exponents are even and >= -2; index k maps to exponent m = 2k - 2
    out = [Fraction(0)] * (max(poly, default=-2) // 2 + 2)
    for m, c in poly.items():
        if m % 2 != 0:
            raise AssertionError("residual exponent off the r^2 lattice")
        out[(m + 2) // 2] = Fraction(c, den)
    return Poly(out)


def _exact(value, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, OverflowError):  # NaN, infinities
        raise ValueError(f"{name} must be finite, got {value}") from None


def _residual_numerators(spec: ModelSpec, energy, h, coeffs: PotentialCoeffs, mag=None, shift=0):
    """The nonzero residual coefficients as {exponent: int}, and the one
    denominator they share, of the state h / 2^shift.  With a dict mag, also
    sum each |term| / den into mag[exponent], term by term in a fixed order.

    With G' = -(r^5 + alpha r^3 + beta r), the operator of T is
    V - G'^2 - G'' - E = (a - 2 alpha) r^8 + (b - alpha^2 - 2 beta) r^6
    + (c - 2 alpha beta + 5) r^4 + (d - beta^2 + 3 alpha) r^2 + beta - E;
    the r^10 terms of V and G'^2 cancel."""
    al, be = Fraction(spec.alpha), Fraction(spec.beta)
    e0 = _exact(energy, "energy")
    hs = [_exact(x, "h") for x in h]
    if len(hs) != spec.n_states:
        raise ValueError(f"h must have length N = {spec.n_states}, got {len(hs)}")

    # T, 2 T' and 4 T'' over the lcm of the h denominators; 2L = 2M - 1
    series, dh = _int_numerators({2 * n: c for n, c in enumerate(hs)})
    two_l = 2 * spec.big_m - 1
    d1 = {m - 1: c * (2 * m - two_l) for m, c in series.items()}
    d2 = {m - 2: c * (2 * m - two_l) * (2 * m - 2 - two_l) for m, c in series.items()}

    # -psi'' + (L(L+1)/r^2 + V - E) psi, divided by exp(G) * r^(-L):
    #   (V - G'^2 - G'' - E) T  -  2 G' T'  -  T''  +  L(L+1) T / r^2
    # the operators of T, 2 T', 4 T'' and T, over one denominator
    ops = ({8: Fraction(coeffs.a) - 2 * al,
            6: Fraction(coeffs.b) - al * al - 2 * be,
            4: Fraction(coeffs.c) - 2 * al * be + 5,
            2: _exact(coeffs.d, "coupling") - be * be + 3 * al,
            0: be - e0},
           {5: Fraction(1), 3: al, 1: be}, {0: Fraction(-1, 4)},
           {-2: Fraction(4 * spec.big_m ** 2 - 1, 4)})
    ints, dc = _int_numerators({(i, p): c for i, op in enumerate(ops) for p, c in op.items()})
    den = (dc * dh) << shift
    out = {}
    for i, series_i in enumerate((series, d1, d2, series)):
        terms = [(m, cs) for m, cs in series_i.items() if cs != 0]
        for p in ops[i]:
            cp = ints[i, p]
            if cp == 0:
                continue
            for m, cs in terms:
                term = cp * cs
                key = p + m
                out[key] = out.get(key, 0) + term
                if mag is not None:
                    # int / int rounds correctly, as float(Fraction) does
                    mag[key] = mag.get(key, 0.0) + abs(term) / den
    return {m: c for m, c in out.items() if c != 0}, den


def _scaled_ode_residual(spec, energy, coupling, h) -> float:
    """The largest residual coefficient over the largest sum of term
    magnitudes; inf, like recurrence_residual, beyond the float range."""
    coeffs = potential_coeffs(spec, coupling)
    # a float coefficient that overflowed to inf, or to nan as inf - inf,
    # has no exact value to expand
    if any(isinstance(c, float) and not math.isfinite(c) for c in (coeffs.a, coeffs.b, coeffs.c)):
        return math.inf
    mag = {}
    try:
        poly, den = _residual_numerators(spec, energy, h, coeffs, mag, _unit_exponent(h))
        top = max(map(abs, poly.values()), default=0) / den
    except OverflowError:  # exact terms whose int / int leaves the float range
        return math.inf
    if not poly:
        return 0.0
    scale = max(mag.values(), default=0.0)
    return top / scale if scale > 0 else 0.0


@dataclass(frozen=True)
class VerificationReport:
    recurrence_residual: float
    ode_residual_max_coeff: float
    passed: bool


# verify_solution passes a solution when both scaled residuals are at most this
_RESIDUAL_TOL = 1e-10


def verify_solution(spec: ModelSpec, energy, coupling, h) -> VerificationReport:
    """Run both residual checks; the solution passes when both scaled
    residuals are at most _RESIDUAL_TOL.

    A zero h is the trivial solution: both residuals read 0, but it does
    not pass."""
    rec_res = recurrence_residual(spec, energy, coupling, h)
    ode_res = _scaled_ode_residual(spec, energy, coupling, h)
    return VerificationReport(
        recurrence_residual=rec_res,
        ode_residual_max_coeff=ode_res,
        passed=(any(x != 0 for x in h)
                and rec_res <= _RESIDUAL_TOL and ode_res <= _RESIDUAL_TOL),
    )
