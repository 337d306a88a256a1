"""Ground-truth validation of candidate solutions.

Two independent checks.  recurrence_residual evaluates the four-term
recurrence rows directly.  ode_residual_poly substitutes the closed-form
state into -psi'' + (L(L+1)/r^2 + V - E) psi by its own symbolic
differentiation over exact rationals, never touching the recurrence
coefficients; for a true solution every coefficient of the resulting
polynomial vanishes identically.  Agreement of the two routes is what
certifies the recurrence coefficients themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import recurrence, wedges
from .model import ModelSpec, PotentialCoeffs, potential_coeffs
from .polynomial import Poly

__all__ = [
    "VerificationReport",
    "recurrence_residual",
    "ode_residual_poly",
    "wedge_decay",
    "verify_solution",
]


def recurrence_residual(spec: ModelSpec, energy, coupling, h) -> float:
    """Worst recurrence-row residual, scaled by the largest term magnitude.

    Rows n = 0..N are evaluated with out-of-range h treated as zero.  A
    zero h vector gives residual 0 (the trivial solution; callers should
    treat it as degenerate rather than validated)."""
    hs = [float(x) for x in h]
    if len(hs) != spec.n_states:
        raise ValueError(f"h must have length N = {spec.n_states}, got {len(hs)}")
    e0, d0 = float(energy), float(coupling)

    def h_at(k):
        return hs[k] if 0 <= k < len(hs) else 0.0

    worst = 0.0
    scale = 0.0
    for n in range(spec.n_states + 1):
        a, b, c, d = recurrence.coeffs(spec, n, e0, d0)
        terms = (float(a) * h_at(n + 1), float(b) * h_at(n),
                 float(c) * h_at(n - 1), float(d) * h_at(n - 2))
        worst = max(worst, abs(sum(terms)))
        scale = max(scale, max(abs(t) for t in terms))
    return worst / scale if scale > 0 else 0.0


# -- independent symbolic route ---------------------------------------------
#
# The state is exp(G(r)) * T(r) * r^(-L) with G = -r^6/6 - a4 r^4/4 - b2 r^2/2
# and T a polynomial in r^2.  Working series are dicts {m: Fraction} whose
# entry means coeff * r^(m - L); plain polynomials are dicts {m: coeff * r^m}.


def _series_mul_poly(poly: dict, series: dict, out: dict, mag: dict, sign=1):
    for p, cp in poly.items():
        if cp == 0:
            continue
        for m, cs in series.items():
            if cs == 0:
                continue
            term = sign * cp * cs
            key = p + m
            out[key] = out.get(key, Fraction(0)) + term
            mag[key] = mag.get(key, 0.0) + abs(float(term))


def _series_derivative(series: dict, big_l: Fraction) -> dict:
    return {m - 1: c * (m - big_l) for m, c in series.items()}


def ode_residual_poly(spec: ModelSpec, energy, coupling, h,
                      coeffs: "PotentialCoeffs | None" = None):
    """Exact residual of the radial equation for the closed-form state.

    Returns a Poly whose k-th coefficient multiplies r^(2k - L - 2); it is
    the zero polynomial exactly when (E, d, h) is an exact solution.  All
    inputs are promoted to Fraction (floats convert exactly), so the result
    is bit-exact.  Passing explicit potential coefficients allows checking
    a deliberately altered coupling map.
    """
    if coeffs is None:
        coeffs = potential_coeffs(spec, coupling)
    if coeffs.d is None:
        raise TypeError("quadratic coupling d is unsolved")
    poly, mag = _residual_series(spec, energy, h, coeffs)
    if not poly:
        return Poly((Fraction(0),))
    max_m = max(poly)
    # exponents are even and >= -2; index k maps to exponent m = 2k - 2
    out = [Fraction(0)] * (max_m // 2 + 2)
    for m, c in poly.items():
        if m % 2 != 0:
            raise AssertionError("residual exponent off the r^2 lattice")
        out[(m + 2) // 2] = c
    return Poly(out)


def _residual_series(spec: ModelSpec, energy, h, coeffs: PotentialCoeffs):
    al, be = Fraction(spec.alpha), Fraction(spec.beta)
    e0 = Fraction(energy)
    big_l = Fraction(2 * spec.big_m - 1, 2)
    hs = [Fraction(x) for x in h]
    if len(hs) != spec.n_states:
        raise ValueError(f"h must have length N = {spec.n_states}, got {len(hs)}")

    series = {2 * n: c for n, c in enumerate(hs)}
    d1 = _series_derivative(series, big_l)
    d2 = _series_derivative(d1, big_l)

    g_prime = {5: Fraction(-1), 3: -al, 1: -be}
    g_second = {4: Fraction(-5), 2: -3 * al, 0: -be}
    g_prime_sq = {}
    for p1, c1 in g_prime.items():
        for p2, c2 in g_prime.items():
            g_prime_sq[p1 + p2] = g_prime_sq.get(p1 + p2, Fraction(0)) + c1 * c2
    v_poly = {10: Fraction(1), 8: Fraction(coeffs.a), 6: Fraction(coeffs.b),
              4: Fraction(coeffs.c), 2: Fraction(coeffs.d)}

    # -psi'' + (L(L+1)/r^2 + V - E) psi, divided by exp(G) * r^(-L):
    #   (V - G'^2 - G'' - E) T  -  2 G' T'  -  T''  +  L(L+1) T / r^2
    out, mag = {}, {}
    bucket = dict(v_poly)
    for src, sign in ((g_prime_sq, -1), (g_second, -1)):
        for p, c in src.items():
            bucket[p] = bucket.get(p, Fraction(0)) + sign * c
    bucket[0] = bucket.get(0, Fraction(0)) - e0
    _series_mul_poly(bucket, series, out, mag)
    _series_mul_poly(g_prime, d1, out, mag, sign=-2)
    _series_mul_poly({0: Fraction(-1)}, d2, out, mag)
    _series_mul_poly({-2: big_l * (big_l + 1)}, series, out, mag)

    poly = {m: c for m, c in out.items() if c != 0}
    return poly, mag


def _scaled_ode_residual(spec, energy, coupling, h) -> float:
    coeffs = potential_coeffs(spec, coupling)
    if coeffs.d is None:
        raise TypeError("quadratic coupling d is unsolved")
    poly, mag = _residual_series(spec, energy, h, coeffs)
    if not poly:
        return 0.0
    scale = max(mag.values(), default=0.0)
    top = max(abs(float(c)) for c in poly.values())
    return top / scale if scale > 0 else 0.0


def wedge_decay(spec: ModelSpec, z: int = 3):
    """Whether the dominant envelope exp(-r^6/6) decays at both sector
    centers of each mirror pair for degree z.  For z = 3 this is true for
    all three pairs by construction; other z document the mismatch."""
    pairs, _ = wedges.pt_pairs(z)
    out = []
    for pair in pairs:
        ok = (math.cos(6 * pair.left.center) > 0
              and math.cos(6 * pair.right.center) > 0)
        out.append((pair.index, ok))
    return out


@dataclass(frozen=True)
class VerificationReport:
    recurrence_residual: float
    ode_residual_max_coeff: float
    wedge_decay: tuple
    passed: bool


# verify_solution passes a solution when both scaled residuals are at most this
_RESIDUAL_TOL = 1e-10


def verify_solution(spec: ModelSpec, energy, coupling, h) -> VerificationReport:
    """Run both residual checks plus wedge-decay certification (z = 3)."""
    rec_res = recurrence_residual(spec, energy, coupling, h)
    ode_res = _scaled_ode_residual(spec, energy, coupling, h)
    return VerificationReport(
        recurrence_residual=rec_res,
        ode_residual_max_coeff=ode_res,
        wedge_decay=tuple(wedge_decay(spec)),
        passed=rec_res <= _RESIDUAL_TOL and ode_res <= _RESIDUAL_TOL,
    )
