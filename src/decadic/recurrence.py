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
(A_{M-1} = 0).  All three are plain lists of rows.  Passing Poly objects
as energy or coupling (polynomial.ENERGY and polynomial.COUPLING for the
two variables) builds the same matrices with symbolic entries.
"""

from __future__ import annotations

from .model import ModelSpec

__all__ = ["coeffs", "main_matrix", "small_matrix", "full_system"]


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


def _rows(spec: ModelSpec, energy, coupling, first: int, last: int, n_cols: int):
    """Recurrence rows n = first..last over (h_0 .. h_{n_cols-1}).

    Row n carries D_n at column n-2, C_n at n-1, B_n at n and A_n at n+1;
    entries falling outside the column range are dropped.
    """
    rows = []
    for n in range(first, last + 1):
        a, b, c, d = coeffs(spec, n, energy, coupling)
        row = [0] * n_cols
        for col, value in ((n - 2, d), (n - 1, c), (n, b), (n + 1, a)):
            if 0 <= col < n_cols:
                row[col] = value
        rows.append(row)
    return rows


def main_matrix(spec: ModelSpec, energy, coupling):
    """N x N matrix of rows n = 1..N over (h_0 .. h_{N-1}); upper Hessenberg."""
    return _rows(spec, energy, coupling, 1, spec.n_states, spec.n_states)


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
    return _rows(spec, energy, coupling, 0, spec.big_m - 1, spec.big_m)


def full_system(spec: ModelSpec, energy, coupling):
    """All N+1 recurrence rows (n = 0..N) over (h_0 .. h_{N-1}).

    Rank deficiency of this overdetermined system is the ground truth for a
    genuine solution; solvers use it to reject spurious determinant roots.
    """
    return _rows(spec, energy, coupling, 0, spec.n_states, spec.n_states)
