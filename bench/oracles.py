"""Untimed outside oracles for the benchmark.

Everything here is independent of the ``decadic`` code paths it checks:
the characteristic polynomial of the M = 1 main matrix is rebuilt from the
recurrence coefficients with the standard Hessenberg determinant
recurrence, and its real roots are counted exactly with a Sturm sequence
over the integers (stdlib only).
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- exact polynomials: ascending coefficient lists --------------------------


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _add(*polys):
    out = [0] * max(len(p) for p in polys)
    for p in polys:
        for i, c in enumerate(p):
            out[i] += c
    return _trim(out)


def _scale(p, c):
    return _trim([c * x for x in p])


def _taylor_shift(p, s):
    """p(x + s) by Horner."""
    out = [0]
    for c in reversed(p):
        out = _add(_mul(out, [s, 1]), [c])
    return out


def coupling_char_poly(alpha: Fraction, beta: Fraction, big_m: int, n: int):
    """det(main(E=0, d=0) - d*I) as an ascending list of Fractions in d.

    Row n of the main matrix (1-based) holds D_n, C_n, B_n, A_n on offsets
    -1, 0, +1, +2, so the leading principal minors obey the four-term
    Hessenberg recurrence
        p_k = C_k p_{k-1} - B_{k-1} D_k p_{k-2} + A_{k-2} D_{k-1} D_k p_{k-3}.
    """
    m2 = 2 * big_m

    def a_(k):
        return (2 * k + 2) * (2 * k + 2 - m2)

    def b_(k):
        return -beta * (4 * k + 2 - m2)

    def d_(k):
        return 4 * (n + 1 - k)

    minors = [[Fraction(1)]]
    for k in range(1, n + 1):
        c_k = [beta * beta - alpha * (4 * k - m2), Fraction(-1)]
        terms = [_mul(c_k, minors[k - 1])]
        if k >= 2:
            terms.append(_scale(minors[k - 2], -b_(k - 1) * d_(k)))
        if k >= 3:
            terms.append(_scale(minors[k - 3], a_(k - 2) * d_(k - 1) * d_(k)))
        minors.append(_add(*terms))
    return minors[n]


def shifted_coupling_poly(alpha: Fraction, beta: Fraction, big_m: int, n: int):
    """The same polynomial in the shifted coupling F = d - beta^2 + 2 N alpha."""
    return _taylor_shift(coupling_char_poly(alpha, beta, big_m, n),
                         beta * beta - 2 * n * alpha)


# -- exact real-root counting --------------------------------------------------


def _primitive(p):
    g = 0
    for c in p:
        g = math.gcd(g, c)
    return [c // g for c in p] if g > 1 else p


def _integer_poly(p):
    fracs = [Fraction(c) for c in p]
    den = math.lcm(*(f.denominator for f in fracs))
    return _primitive([int(f * den) for f in fracs])


def _neg_prem(a, b):
    """-(positive multiple of a mod b), made primitive; signs are preserved."""
    r = list(a)
    lb, db = b[-1], len(b) - 1
    k, sgn = abs(lb), (1 if lb > 0 else -1)
    while len(r) - 1 >= db and any(r):
        lr, shift = r[-1], len(r) - 1 - db
        r = [k * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= sgn * lr * c
        r = _primitive(_trim(r[:-1]))
    return [-c for c in _trim(r)]


def _sign_changes(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _sturm_chain(p):
    deriv = _primitive(_trim([i * c for i, c in enumerate(p)][1:]))
    chain = [p, deriv]
    while len(chain[-1]) > 1:
        r = _neg_prem(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append(r)
    return chain


def real_root_counts(coeffs):
    """(distinct, with multiplicity) counts of the real roots of an exact
    polynomial given by ascending rational coefficients.

    A Sturm chain counts distinct real roots even when p is not square
    free, and its last member is gcd(p, p'), whose roots are the multiple
    roots of p with multiplicity lowered by one; recursing on it adds the
    multiplicities.
    """
    p = _integer_poly(_trim(coeffs))
    if len(p) == 1:
        if p[0] == 0:
            raise ValueError("the zero polynomial has no finite root count")
        return 0, 0
    chain = _sturm_chain(p)
    at_plus = [1 if q[-1] > 0 else -1 for q in chain]
    at_minus = [s * (-1) ** (len(q) - 1) for s, q in zip(at_plus, chain)]
    distinct = _sign_changes(at_minus) - _sign_changes(at_plus)
    gcd = chain[-1]
    total = distinct + (real_root_counts(gcd)[1] if len(gcd) > 1 else 0)
    return distinct, total


# -- per-operation verdicts -----------------------------------------------------


def distinct_count(values, rel=1e-6):
    """Distinct floats, merging neighbours closer than rel * (1 + |v|)."""
    out = 0
    last = None
    for v in sorted(values):
        if last is None or abs(v - last) > rel * (1 + abs(last)):
            out += 1
        last = v
    return out


def check_shot(result, exact_energy, tol=1e-6):
    if not result.converged:
        return False, f"not converged after {result.iterations} iterations"
    err = abs(result.energy - exact_energy)
    if err > tol:
        return False, f"|E - E_exact| = {err:.3e} > {tol:.0e}"
    return True, ""
