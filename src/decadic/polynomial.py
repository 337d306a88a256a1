"""Dense polynomial arithmetic for the secular determinants.

One polynomial type, Poly, generic over its coefficients and exact
whenever they are ints or Fractions.  A polynomial in the energy E and the
quadratic coupling d is a Poly in d whose coefficients are Polys in E; the
generators are ENERGY and COUPLING, and p(d)(E) evaluates one.  det expands
the banded secular matrices by a last-column minor recurrence that is exact
and evaluation-order independent; its entries may be scalars or Polys, so a
substitution such as d = E^2/4 goes into the entries and the determinant is
expanded once.  Elimination of d between the two secular determinants uses
the Sylvester resultant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Poly",
    "ENERGY",
    "COUPLING",
    "Root",
    "RootSet",
    "det",
    "char_poly",
    "det_bipoly",
    "roots",
    "resultant",
    "real_filter",
    "DegenerateResultantError",
]


class DegenerateResultantError(ValueError):
    """Raised when an eliminated variable does not actually occur."""


def _trim(coeffs):
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Univariate polynomial; coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        coeffs = tuple(coeffs) or (0,)
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly((0,))
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def as_float(self) -> "Poly":
        return Poly(tuple(float(c) for c in self.coeffs))

    def max_abs_coeff(self) -> float:
        return max(abs(float(c)) for c in self.coeffs)

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, float, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


# generators of the polynomials in (E, d): Polys in d over Polys in E
ENERGY = Poly((Poly((0, 1)),))
COUPLING = Poly((0, 1))


def _as_poly(v) -> Poly:
    return v if isinstance(v, Poly) else Poly((v,))


@dataclass(frozen=True)
class Root:
    value: complex
    multiplicity: int


@dataclass(frozen=True)
class RootSet:
    roots: tuple

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)


def _is_zero(v) -> bool:
    if isinstance(v, Poly):
        return v.is_zero
    return v == 0


def _lower_bandwidth(rows) -> int:
    w = 0
    for i, row in enumerate(rows):
        for j in range(i):
            if not _is_zero(row[j]):
                w = max(w, i - j)
                break
    return w


def _det_lower_hessenberg(rows):
    """Determinant of a matrix with at most one nonzero subdiagonal.

    Last-column expansion: the leading principal minors p_k satisfy

        p_k = sum_j (+/-) rows[j][k-1] * (prod of subdiagonal j..k-2) * p_j

    which is division-free, hence exact over Fraction and Poly entries.
    """
    n = len(rows)
    minors = [1] + [None] * n
    for k in range(1, n + 1):
        acc = rows[k - 1][k - 1] * minors[k - 1]
        chain = 1
        for j in range(k - 2, -1, -1):
            chain = chain * rows[j + 1][j]
            if _is_zero(chain):
                break
            entry = rows[j][k - 1]
            if _is_zero(entry):
                continue
            term = entry * chain * minors[j]
            acc = acc + term if (k - 1 - j) % 2 == 0 else acc - term
        minors[k] = acc
    return minors[n]


def _det_memo(rows):
    """Division-free determinant by minor expansion memoized on column masks."""
    n = len(rows)
    cache = {0: 1}

    def minor(mask, depth):
        # det of rows[depth:] on the columns present in mask
        if mask in cache:
            return cache[mask]
        acc = 0
        sign = 1
        remaining = mask
        while remaining:
            col_bit = remaining & (-remaining)
            remaining ^= col_bit
            entry = rows[depth][col_bit.bit_length() - 1]
            if not _is_zero(entry):
                sub = minor(mask ^ col_bit, depth + 1)
                term = entry * sub
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        cache[mask] = acc
        return acc

    full = (1 << n) - 1
    # cache keyed by mask alone is safe: depth = n - popcount(mask)
    return minor(full, 0)


def det(m):
    """Division-free determinant of a square matrix whose entries are
    scalars or Poly; exact for rational coefficients."""
    rows = [list(r) for r in m]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    if len(rows) == 1:
        return rows[0][0]
    if _lower_bandwidth(rows) <= 1:
        return _det_lower_hessenberg(rows)
    transposed = [list(col) for col in zip(*rows)]
    if _lower_bandwidth(transposed) <= 1:
        return _det_lower_hessenberg(transposed)
    return _det_memo(rows)


def char_poly(m) -> Poly:
    """det(m - lambda*I) as a Poly in lambda; exact for rational entries."""
    lam = Poly((0, 1))
    return det([[Poly((v,)) - lam if i == j else Poly((v,)) for j, v in enumerate(row)]
                for i, row in enumerate(m)])


def det_bipoly(m) -> Poly:
    """Exact determinant of a matrix whose entries are polynomials in (E, d)
    or scalars: a Poly in d whose coefficients are all Polys in E."""
    for row in m:
        for v in row:
            if not isinstance(v, (Poly, int, float, Fraction)):
                raise TypeError(f"entry {v!r} is not a Poly or a scalar")
    return Poly(tuple(_as_poly(c) for c in _as_poly(det(m)).coeffs))


# roots: a cluster's centre must satisfy |p| <= _RESIDUAL_TOL * max|coeff|;
# roots within _CLUSTER_RADIUS * (1 + |root|) of a cluster's first member
# join it; real_filter keeps |Im| <= _REAL_TOLERANCE * (1 + |root|)
_RESIDUAL_TOL = 1e-9
_CLUSTER_RADIUS = 1e-6
_REAL_TOLERANCE = 1e-8


def roots(p: Poly) -> RootSet:
    """All complex roots via companion-matrix eigenvalues plus Newton polish.

    Multiplicities are assigned by clustering within
    _CLUSTER_RADIUS * (1 + |root|).
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no well-defined roots")
    if p.degree < 1:
        raise ValueError("constant polynomial has no roots")
    desc = np.array([float(c) for c in reversed(p.coeffs)], dtype=float)
    raw = np.roots(desc)

    pf = p.as_float()
    dpf = pf.derivative()
    polished = []
    for z in raw:
        z = complex(z)
        best, best_val = z, abs(pf(z))
        cur = z
        for _ in range(12):
            dv = dpf(cur)
            if dv == 0:
                break
            step = pf(cur) / dv
            cur = cur - step
            val = abs(pf(cur))
            if val < best_val:
                best, best_val = cur, val
            if abs(step) <= 1e-16 * (1 + abs(cur)):
                break
        polished.append(best)

    polished.sort(key=lambda z: (z.real, z.imag))
    clusters = []
    for z in polished:
        for cl in clusters:
            ref = cl[0]
            if abs(z - ref) <= _CLUSTER_RADIUS * (1 + abs(ref)):
                cl.append(z)
                break
        else:
            clusters.append([z])
    out = []
    scale = pf.max_abs_coeff()
    for cl in clusters:
        center = sum(cl) / len(cl)
        if abs(pf(center)) > _RESIDUAL_TOL * scale:
            raise ArithmeticError(
                f"root {center} has residual {abs(pf(center)):.3e} above "
                f"{_RESIDUAL_TOL:.1e} * {scale:.3e}")
        out.append(Root(value=center, multiplicity=len(cl)))
    out.sort(key=lambda r: (r.value.real, r.value.imag))
    return RootSet(roots=tuple(out))


def real_filter(rs: RootSet, tol: float = _REAL_TOLERANCE):
    """Real roots (|Im| <= tol*(1+|root|)), multiplicities expanded, ascending."""
    vals = []
    for r in rs.roots:
        if abs(r.value.imag) <= tol * (1 + abs(r.value)):
            vals.extend([r.value.real] * r.multiplicity)
    return sorted(vals)


def resultant(p: Poly, q: Poly) -> Poly:
    """Sylvester resultant of p and q, Polys in d over Polys in E (or
    scalars), eliminating the coupling d.

    Returns a Poly in E; it vanishes exactly at the projections of common
    roots.
    """
    pc, qc = p.coeffs, q.coeffs
    m, n = len(pc) - 1, len(qc) - 1
    if m < 1 or n < 1:
        raise DegenerateResultantError(
            f"cannot eliminate d: degrees in d are {m} and {n}; "
            "both inputs must depend on d")
    size = m + n
    zero = Poly((0,))
    rows = []
    # ascending-coefficient Sylvester blocks: a row/column permutation of
    # the classical layout (so still vanishes exactly at common roots),
    # with the sign normalized so that res_d(E^2 - 4d, d - 1) = E^2 - 4
    for i in range(n):
        row = [zero] * size
        for k, c in enumerate(pc):
            row[i + k] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for k, c in enumerate(qc):
            row[i + k] = c
        rows.append(row)
    return _as_poly(det(rows))
