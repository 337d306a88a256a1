"""Recurrence coefficients and the secular matrices.

Inserting the closed-form state into the radial equation yields the
four-term recurrence

    A_n h_{n+1} + B_n h_n + C_n h_{n-1} + D_n h_{n-2} = 0,   n = 0..N,

with

    A_n = (2n+2)(2n+2-2M)          B_n = E - beta (4n+2-2M)
    C_n = beta^2 - d - alpha (4n-2M)   D_n = 4 (N+1-n).

Its rows n = 0..N over (h_0 .. h_{N-1}) form the (N+1) x N "full" system.
The two square secular matrices are row slices of it: rows 1..N are the
N x N "main" matrix (A_{-1} = 0 and D_{N+1} = 0 structurally), and rows
0..M-1, over the columns h_0 .. h_{M-1}, are the M x M "small" matrix
(A_{M-1} = 0).  All three are plain lists of rows, laid out by _rows.
The full system holds float_coeffs' floats; the square matrices coeffs'
values, so Poly objects as energy or coupling (polynomial.ENERGY and
polynomial.COUPLING for the two variables) give symbolic entries.

float_coeffs gives the float value of every row's (A_n, B_n, C_n, D_n) at
float energy and coupling, equal bit for bit to float() of coeffs' entries:
each rational product beta k, beta^2 or alpha k is rounded once, by one
int / int, as float(Fraction) rounds it.  integer_matrix gives either
square matrix at a polynomial energy and coupling on ints alone, every
entry a coefficient list under one common scale: the one place where an
exact secular matrix loses its denominators.
"""

from __future__ import annotations

import math

from .model import ModelSpec
from .polynomial import Poly

__all__ = ["coeffs", "float_coeffs", "main_matrix", "integer_matrix", "small_matrix",
           "full_system"]


def coeffs(spec: ModelSpec, n: int, energy, coupling):
    """(A_n, B_n, C_n, D_n) for row n; energy and coupling may be symbolic."""
    if n < 0 or n > spec.n_states:
        raise ValueError(f"row index n must be in 0..{spec.n_states}, got {n}")
    m2 = 2 * spec.big_m
    a = (2 * n + 2) * (2 * n + 2 - m2)
    b = energy - spec.beta * (4 * n + 2 - m2)
    c = spec.beta * spec.beta - coupling - spec.alpha * (4 * n - m2)
    d = 4 * (spec.n_states + 1 - n)
    return a, b, c, d


def _ratio(x):
    """(num, den) with num * k / den equal to float(x * k) for an int k: a
    rational x * k is one correctly rounded int / int, a float one product
    (dividing it by 1.0 is exact)."""
    return (x, 1.0) if isinstance(x, float) else (x.numerator, x.denominator)


def float_coeffs(spec: ModelSpec, energy: float, coupling: float):
    """Float (A_n, B_n, C_n, D_n) of rows n = 0..N at float energy and coupling.

    Each value is float() of the coeffs() entry, bit for bit: B_n is
    E - (beta k) and C_n is (beta^2 - d) - (alpha k), in that order, with
    each rational product rounded once.  An exact product beyond the float
    range raises OverflowError, as float() of it does.
    """
    m2 = 2 * spec.big_m
    top = spec.n_states
    a_num, a_den = _ratio(spec.alpha)
    b_num, b_den = _ratio(spec.beta)
    c0 = b_num * b_num / (b_den * b_den) - coupling
    return [(float((2 * n + 2) * (2 * n + 2 - m2)), energy - b_num * (4 * n + 2 - m2) / b_den,
             c0 - a_num * (4 * n - m2) / a_den, float(4 * (top + 1 - n))) for n in range(top + 1)]


def _rows(values, first: int, n_cols: int):
    """Recurrence rows over (h_0 .. h_{n_cols-1}) from the (A_n, B_n, C_n,
    D_n) values of rows n = first, first + 1, ...

    Row n carries D_n at column n-2, C_n at n-1, B_n at n and A_n at n+1;
    entries falling outside the column range are dropped.
    """
    rows = []
    for n, (a, b, c, d) in enumerate(values, first):
        row = [0] * n_cols
        for col, value in ((n - 2, d), (n - 1, c), (n, b), (n + 1, a)):
            if 0 <= col < n_cols:
                row[col] = value
        rows.append(row)
    return rows


def main_matrix(spec: ModelSpec, energy, coupling):
    """N x N matrix of rows n = 1..N over (h_0 .. h_{N-1}); upper Hessenberg."""
    return _rows((coeffs(spec, n, energy, coupling) for n in range(1, spec.n_states + 1)),
                 1, spec.n_states)


def _scaled(c, scale):
    """c * scale, an int unless c is a Poly; scale clears c's denominator."""
    return c * scale if isinstance(c, Poly) else c.numerator * (scale // c.denominator)


def integer_matrix(spec: ModelSpec, first: int, last: int, energy, coupling):
    """The square matrix of rows n = first..last over (h_0 .. h_{last-first})
    at a polynomial energy and coupling, times one int scale: rows 1..N give
    main_matrix, rows 0..M-1 small_matrix.

    alpha and beta must be ints or Fractions, and energy and coupling are
    polynomials in one variable, as ascending sequences of int, Fraction or
    Poly coefficients (Polys in a second variable, with int coefficients).
    Returns (rows, scale): scale is the lcm of the denominators of alpha,
    beta^2 and every scalar coefficient, and each entry of rows is scale
    times the matrix's, as an ascending coefficient list (0 for a zero
    entry), so that polynomial.det_coeffs(rows) is scale^(last - first + 1)
    times the determinant, without a Fraction operation.
    """
    if last > spec.n_states:
        raise ValueError(f"row {last} lies beyond the recurrence's last row "
                         f"N = {spec.n_states}; require M <= N + 1")
    al, be = spec.alpha, spec.beta
    scale = math.lcm(al.denominator, be.denominator ** 2,
                     *(c.denominator for c in (*energy, *coupling) if not isinstance(c, Poly)))
    a_k = al.numerator * (scale // al.denominator)  # alpha * scale
    b_k = be.numerator * (scale // be.denominator)  # beta * scale
    b_sq = be.numerator ** 2 * (scale // be.denominator ** 2)  # beta^2 * scale
    e = [_scaled(c, scale) for c in energy]
    c0 = [-_scaled(c, scale) for c in coupling]  # (beta^2 - coupling) * scale
    c0[0] += b_sq
    m2 = 2 * spec.big_m
    top = spec.n_states
    values = []
    for n in range(first, last + 1):
        a = (2 * n + 2) * (2 * n + 2 - m2) * scale
        b = e.copy()
        b[0] -= b_k * (4 * n + 2 - m2)
        c = c0.copy()
        c[0] -= a_k * (4 * n - m2)
        values.append(([a] if a else 0, b if any(b) else 0, c if any(c) else 0,
                       [4 * (top + 1 - n) * scale]))
    return _rows(values, first, last - first + 1), scale


def small_matrix(spec: ModelSpec, energy, coupling):
    """M x M matrix of rows n = 0..M-1 over (h_0 .. h_{M-1}).

    The last row needs no column M because A_{M-1} = 0 structurally.
    Requires M <= N + 1: beyond that the rows would fall outside the
    recurrence range n = 0..N and the construction loses its meaning.
    """
    if spec.big_m > spec.n_states + 1:
        raise ValueError(
            f"small matrix needs rows 0..{spec.big_m - 1}, but the recurrence "
            f"terminates at row N = {spec.n_states}; require M <= N + 1")
    return _rows((coeffs(spec, n, energy, coupling) for n in range(spec.big_m)),
                 0, spec.big_m)


def full_system(spec: ModelSpec, energy: float, coupling: float):
    """All N+1 recurrence rows (n = 0..N) over (h_0 .. h_{N-1}), as floats.

    The rows are float_coeffs' values at float energy and coupling, equal
    bit for bit to float() of the coeffs entries that main_matrix places.
    Rank deficiency of this overdetermined system is the ground truth for a
    genuine solution; solvers use it to reject spurious determinant roots.
    """
    return _rows(float_coeffs(spec, energy, coupling), 0, spec.n_states)
