"""Dense polynomial arithmetic for the secular determinants.

Univariate Poly and bivariate BiPoly (in the energy E and the quadratic
coupling d) with exact arithmetic whenever the coefficients are ints or
Fractions.  det expands the banded secular matrices by a last-column minor
recurrence that is exact and evaluation-order independent; its entries may
be scalars, Poly or BiPoly, so a substitution such as d = E^2/4 goes into
the entries and the determinant is expanded once.  Elimination between the
two secular determinants uses the Sylvester resultant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Poly",
    "BiPoly",
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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        acc = Poly((1,))
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def _trim_matrix(rows):
    rows = [list(r) for r in rows]
    while len(rows) > 1 and all(c == 0 for c in rows[-1]):
        rows.pop()
    width = max(len(r) for r in rows)
    for r in rows:
        r.extend([0] * (width - len(r)))
    while width > 1 and all(r[width - 1] == 0 for r in rows):
        width -= 1
    return tuple(tuple(r[:width]) for r in rows)


class BiPoly:
    """Bivariate polynomial in (E, d); coeffs[i][j] multiplies E^i * d^j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=((0,),)):
        object.__setattr__(self, "coeffs", _trim_matrix(coeffs))

    @staticmethod
    def energy():
        return BiPoly(((0,), (1,)))

    @staticmethod
    def coupling():
        return BiPoly(((0, 1),))

    @staticmethod
    def constant(c):
        return BiPoly(((c,),))

    @property
    def degree_energy(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree_coupling(self) -> int:
        return len(self.coeffs[0]) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == ((0,),)

    def __call__(self, energy, coupling):
        acc = 0
        for row in reversed(self.coeffs):
            inner = 0
            for c in reversed(row):
                inner = inner * coupling + c
            acc = acc * energy + inner
        return acc

    def eval_abs(self, energy, coupling) -> float:
        """Sum of |coeff| * |E|^i * |d|^j; a cancellation-free scale."""
        e, d = abs(float(energy)), abs(float(coupling))
        total = 0.0
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c != 0:
                    total += abs(float(c)) * e**i * d**j
        return total

    def coupling_coeffs(self):
        """Coefficients of powers of d, each a Poly in E (ascending in d)."""
        out = []
        for j in range(self.degree_coupling + 1):
            out.append(Poly(tuple(row[j] if j < len(row) else 0 for row in self.coeffs)))
        return out

    def poly_in_coupling(self, energy_value) -> Poly:
        """Substitute a numeric E; returns a Poly in d."""
        return Poly(tuple(p(energy_value) for p in self.coupling_coeffs()))

    def substitute_coupling(self, d_of_e: Poly) -> Poly:
        """Substitute d = d_of_e(E); returns a Poly in E."""
        acc = Poly((0,))
        for p_e in reversed(self.coupling_coeffs()):
            acc = acc * d_of_e + p_e
        return acc

    @staticmethod
    def _coerce(other):
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, float, Fraction)):
            return BiPoly(((other,),))
        return None

    def __add__(self, other):
        other = BiPoly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        ne = max(len(a), len(b))
        nd = max(len(a[0]), len(b[0]))
        out = [[0] * nd for _ in range(ne)]
        for src in (a, b):
            for i, row in enumerate(src):
                for j, c in enumerate(row):
                    out[i][j] += c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly(tuple(tuple(-c for c in row) for row in self.coeffs))

    def __sub__(self, other):
        other = BiPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = BiPoly._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = BiPoly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [[0] * (len(a[0]) + len(b[0]) - 1) for _ in range(len(a) + len(b) - 1)]
        for i, ra in enumerate(a):
            for j, x in enumerate(ra):
                if x == 0:
                    continue
                for k, rb in enumerate(b):
                    for l, y in enumerate(rb):
                        if y != 0:
                            out[i + k][j + l] += x * y
        return BiPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = BiPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"BiPoly({[list(r) for r in self.coeffs]})"


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
    if isinstance(v, (Poly, BiPoly)):
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

    which is division-free, hence exact over Fraction/Poly/BiPoly entries.
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
    scalars, Poly or BiPoly; exact for rational coefficients."""
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


def det_bipoly(m) -> BiPoly:
    """Exact determinant of a matrix whose entries are BiPoly or scalars."""
    for row in m:
        for v in row:
            if not isinstance(v, (BiPoly, int, float, Fraction)):
                raise TypeError(f"entry {v!r} is not a BiPoly or a scalar")
    result = det(m)
    return result if isinstance(result, BiPoly) else BiPoly.constant(result)


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


def resultant(p: BiPoly, q: BiPoly) -> Poly:
    """Sylvester resultant of p and q, eliminating the coupling d.

    Returns a Poly in E; it vanishes exactly at the projections of common
    roots.
    """
    pc, qc = p.coupling_coeffs(), q.coupling_coeffs()
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
    return det(rows)
