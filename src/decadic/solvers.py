"""Solution pipelines for the exactly solvable multiplets.

Three regimes:

* M = 1: the energy is pinned to E = 0 and the quadratic coupling d is the
  eigenvalue of the main matrix (a coupling multiplet, any N).
* M = 2: the small determinant forces d = E^2/4; substituting it into the
  entries of the main matrix leaves a single determinant, a polynomial in E
  whose real roots are the energies.
* M >= 2 general: expand the small and main determinants as polynomials
  in d over polynomials in E, eliminate d with a resultant and
  back-substitute each real E.

All three regimes expand their determinants on ints, from the numerators
and denominators of alpha and beta under one common scale
(recurrence.integer_matrix); one function, _float_poly, makes every float
polynomial from those ints, one int / int per coefficient.

The M = 2 and coupled routes share one candidate loop: each real root E of
the float eliminant, paired with each coupling d that back-substitution
gives there, goes through one acceptance gate.  The gate keeps a candidate
only when the full (N+1) x N recurrence system is genuinely rank deficient
there (this is what rejects extraneous resultant roots) and returns one
entry per null direction, with its recurrence residual.  One batched SVD
per solve, _null_spaces, finds both for every candidate at once, as it
finds solve_sturmian's null vectors of every a - d I; _null_space, its
batch of one, serves null_vector.  sturmian_multiplet, solve_energies and
solve_coupled all return a Multiplet; solve_sturmian, which
sturmian_multiplet wraps, also gives the raw couplings and, built on first
read, the exact coupling polynomial.

The tolerances are fixed module constants, one per rule: the reality test
is polynomial's, the rank test reads _RANK_RTOL, the coupled determinant
test _DET_RTOL and validation verify._RESIDUAL_TOL.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import polynomial as pl
from . import recurrence
from . import verify
from .model import ModelSpec, Multiplet, MultipletEntry

__all__ = [
    "SturmianResult",
    "WrongModeError",
    "NotRankDeficientError",
    "solve_sturmian",
    "sturmian_multiplet",
    "shifted_coupling_poly",
    "solve_energies",
    "solve_coupled",
    "null_vector",
    "shifted_coupling",
]


class WrongModeError(ValueError):
    """A solver was called with an M outside its regime."""


class NotRankDeficientError(ValueError):
    """null_vector was asked for a null vector of a full-rank matrix."""


def shifted_coupling(d, spec: ModelSpec):
    """Shifted coupling d - beta^2 + 2*N*alpha (zero for the N = 1 multiplet)."""
    return d - spec.beta * spec.beta + 2 * spec.n_states * spec.alpha


def _exact_spec(spec: ModelSpec):
    """Promote alpha/beta to Fraction (floats convert exactly)."""
    was_float = isinstance(spec.alpha, float) or isinstance(spec.beta, float)
    return dataclasses.replace(
        spec, alpha=Fraction(spec.alpha), beta=Fraction(spec.beta)), was_float


# rank deficient: smallest singular value <= _RANK_RTOL * largest; a coupled
# candidate: both determinants <= _DET_RTOL * their cancellation-free scale
_RANK_RTOL = 1e-8
_DET_RTOL = 1e-8


def null_vector(matrix):
    """The first of _null_space's directions of a numerically rank-deficient
    matrix; NotRankDeficientError when there is none (a spurious root)."""
    return _first_direction(_null_space(matrix))


def _first_direction(directions):
    if not directions:
        raise NotRankDeficientError(
            f"the matrix has full rank: no singular value is at most {_RANK_RTOL:.1e} "
            "times the largest")
    return directions[0]


def _null_spaces(matrices):
    """The null directions of each of a sequence of float matrices of one
    shape, from one batched SVD: the right singular vectors of singular
    values at most _RANK_RTOL times the largest (all, for the zero matrix),
    smallest first, each scaled so that its first entry above
    _RANK_RTOL * max|v| is 1.  Empty at full rank, wide matrices too."""
    if not matrices:
        return []
    _, s_all, vt_all = np.linalg.svd(np.asarray(matrices, dtype=float))
    spaces = []
    for s, vt in zip(s_all, vt_all):
        cutoff = _RANK_RTOL * s[0] if s[0] > 0 else np.inf
        directions = []
        for k in range(len(s) - 1, -1, -1):
            if s[k] <= cutoff:
                mags = np.abs(vt[k])
                first = vt[k][np.argmax(mags > _RANK_RTOL * mags.max())]
                directions.append(tuple(float(t) for t in vt[k] / first))
        spaces.append(directions)
    return spaces


def _null_space(matrix):
    """_null_spaces of the one matrix."""
    return _null_spaces([matrix])[0]


def _eigvals_hessenberg(a, spec: ModelSpec):
    """Eigenvalues of the (already upper-Hessenberg) float main matrix a of
    spec.

    LAPACK's general eigensolver runs Hessenberg QR after a reduction step
    that is trivial here; if it fails to converge, fall back to the roots
    of the characteristic polynomial via the companion matrix.  A matrix
    with an entry that overflowed (beta^2 beyond the float range) fails
    both, so it raises ValueError instead.
    """
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError:
        if not np.isfinite(a).all():
            raise ValueError(
                "the M = 1 main matrix overflows the float range at "
                f"alpha = {spec.alpha}, beta = {spec.beta}") from None
        rs = pl.roots(pl.char_poly(a.tolist()))
        vals = []
        for r in rs.roots:
            vals.extend([r.value] * r.multiplicity)
        return np.array(vals)


@dataclass(frozen=True)
class SturmianResult:
    """Coupling multiplet at M = 1, E = 0.

    d_values are the real eigen-couplings (ascending); shifted_couplings
    are d - beta^2 + 2*N*alpha in the same order; h_vectors are the matching
    series coefficients.  coupling_poly is the characteristic polynomial in
    the shifted coupling, built exactly on first read: the float solution
    does not need it.
    """

    d_values: tuple
    shifted_couplings: tuple
    h_vectors: tuple
    _spec: ModelSpec

    @functools.cached_property
    def coupling_poly(self) -> pl.Poly:
        return shifted_coupling_poly(self._spec)


def shifted_coupling_poly(spec: ModelSpec) -> pl.Poly:
    """The main determinant at E = 0 as a polynomial in the shifted coupling
    F = d - beta^2 + 2*N*alpha: the main matrix is built with
    d = F - shifted_coupling(0) and expanded once, on ints.  Exact
    (Fractions) for rational alpha, beta."""
    if spec.big_m != 1:
        raise WrongModeError(f"coupling multiplets require M = 1, got M = {spec.big_m}")
    exact, was_float = _exact_spec(spec)
    coeffs, den = _main_det(exact, (0,), (-shifted_coupling(0, exact), 1))
    if was_float:
        return _float_poly("the M = 1 coupling polynomial", spec, coeffs, den)
    return pl.Poly(coeffs if den == 1 else tuple(Fraction(c, den) for c in coeffs))


def _main_det(exact, energy, coupling):
    """(coefficients, denominator): the main determinant of the exact spec at
    a polynomial energy and coupling (see recurrence.integer_matrix), as
    ascending ints over one int denominator."""
    rows, scale = recurrence.integer_matrix(exact, 1, exact.n_states, energy, coupling)
    return pl.det_coeffs(rows), scale ** exact.n_states


def solve_sturmian(spec: ModelSpec) -> SturmianResult:
    """All real eigen-couplings d of the M = 1 problem at E = 0, with their
    null vectors.  Any N is admissible."""
    if spec.big_m != 1:
        raise WrongModeError(f"coupling multiplets require M = 1, got M = {spec.big_m}")
    a = np.array(recurrence.main_matrix(spec, 0.0, 0.0), dtype=float)
    vals = _eigvals_hessenberg(a, spec)
    d_values = sorted(float(v.real) for v in vals if pl._is_real(v))
    h_vectors = [_first_direction(directions) for directions in
                 _null_spaces([a - d * np.eye(spec.n_states) for d in d_values])]
    shifts = tuple(float(shifted_coupling(d, spec)) for d in d_values)
    return SturmianResult(
        d_values=tuple(d_values),
        shifted_couplings=shifts,
        h_vectors=tuple(h_vectors),
        _spec=spec,
    )


def sturmian_multiplet(spec: ModelSpec) -> Multiplet:
    """solve_sturmian repackaged as a validated multiplet (E = 0 throughout)."""
    result = solve_sturmian(spec)
    return Multiplet.from_entries(
        [_entry(0.0, d, h, verify.recurrence_residual(spec, 0.0, d, h))
         for d, h in zip(result.d_values, result.h_vectors)])


def solve_energies(spec: ModelSpec) -> Multiplet:
    """Energy multiplet at M = 2, where the small determinant fixes d = E^2/4.

    The main matrix is built with energy E and coupling E^2/4 in its
    entries and its determinant expanded exactly once, on ints, to a
    polynomial in E; each float coefficient is one int / int division, as
    float() of the exact Fraction rounds it.  Each distinct real root is
    accepted only if the full recurrence system is rank deficient there.
    """
    if spec.big_m != 2:
        raise WrongModeError(f"energy multiplets require M = 2, got M = {spec.big_m}")
    exact, _ = _exact_spec(spec)
    coeffs, den = _main_det(exact, (0, 1), (0, 0, Fraction(1, 4)))
    eliminant = _float_poly("the M = 2 eliminant", spec, coeffs, den)
    return _through_gate(spec, eliminant, lambda e: (e * e / 4,))


def _float_poly(name, spec, coeffs, den):
    """Poly(coeffs / den) for ints coeffs, den, each coefficient correctly
    rounded; ValueError naming the polynomial when one is beyond the float
    range."""
    try:
        return pl.Poly(tuple(c / den for c in coeffs))
    except OverflowError:
        raise ValueError(f"{name} overflows the float range at "
                         f"alpha = {spec.alpha}, beta = {spec.beta}") from None


def _entry(e0, d0, h, res) -> MultipletEntry:
    """One multiplet entry with recurrence residual res, validated when res
    is at most verify._RESIDUAL_TOL."""
    return MultipletEntry(
        energy=float(e0), quadratic_coupling=float(d0), h=tuple(map(float, h)),
        recurrence_residual=res, validated=res <= verify._RESIDUAL_TOL)


def _real_roots(p):
    """The real roots of a float polynomial, one per cluster, ascending."""
    return [r.value.real for r in pl.roots(p).roots if pl._is_real(r.value)]


def _through_gate(spec, eliminant, couplings_at) -> Multiplet:
    """The candidate loop of both energy solvers: every coupling d in
    couplings_at(E), at every real root E of the float eliminant, goes
    through the acceptance gate, which gives one validated-or-not entry per
    null direction of the float full recurrence system at (E, d); one SVD
    serves every candidate.  Each candidate's float rows are computed once,
    for its full system and for its entries' residuals."""
    candidates, fulls = [], []
    for e0 in _real_roots(eliminant):
        for d0 in couplings_at(e0):
            rows = recurrence.float_coeffs(spec, e0, d0)
            candidates.append((e0, d0, rows))
            fulls.append(recurrence._rows(rows, 0, spec.n_states))
    return Multiplet.from_entries(
        [_entry(e0, d0, h, verify._rows_residual(rows, [float(x) for x in h]))
         for (e0, d0, rows), directions in zip(candidates, _null_spaces(fulls))
         for h in directions])


def _coupled_system(spec):
    """(dets, eliminant): the small and main determinants as (p, den), p a
    Poly in d over Polys in E with int coefficients and p / den the exact
    determinant, and the float resultant, each coefficient one int / int."""
    exact, _ = _exact_spec(spec)
    dets = []
    for first, last in ((0, exact.big_m - 1), (1, exact.n_states)):
        rows, scale = recurrence.integer_matrix(exact, first, last, (pl.Poly((0, 1)),), (0, 1))
        dets.append((pl.det_bipoly([[pl.Poly(v) if v else 0 for v in row] for row in rows]),
                     scale ** (last - first + 1)))
    (p_small, den_small), (p_main, den_main) = dets
    # the Sylvester determinant has deg_d(main) rows of the small
    # determinant's coefficients and deg_d(small) rows of the main one's
    den = den_small ** p_main.degree * den_main ** p_small.degree
    eliminant = _float_poly("the coupled resultant", spec,
                            pl.resultant(p_small, p_main).coeffs, den)
    return dets, eliminant


def solve_coupled(spec: ModelSpec) -> Multiplet:
    """Simultaneous (E, d) multiplet from the coupled secular system at M >= 2.

    Eliminates d between the small and main determinants with a Sylvester
    resultant and back-substitutes each real E into both determinants to
    recover d (either one alone can be the zero polynomial in d, or lose d
    to cancellation).  Each distinct d at which both vanish to _DET_RTOL
    (relative to a cancellation-free scale) goes through the acceptance
    gate that solve_energies uses: the full recurrence system must be rank
    deficient, and each entry is validated when its recurrence residual is
    at most verify._RESIDUAL_TOL.  An empty result is a valid outcome.
    """
    if spec.big_m < 2:
        raise WrongModeError(f"the coupled solver requires M >= 2, got M = {spec.big_m}")
    dets, eliminant = _coupled_system(spec)
    if eliminant.is_zero:
        raise pl.DegenerateResultantError(
            "the resultant vanishes identically; the secular determinants "
            "share a common factor in d")
    # float copies of both determinants, and copies with |coefficients|:
    # evaluated at (|E|, |d|) those give a cancellation-free scale
    dets_f = [pl.Poly(tuple(_float_poly("a secular determinant", spec, c.coeffs, den)
                            for c in p.coeffs)) for p, den in dets]
    dets_abs = [pl.Poly(tuple(pl.Poly(tuple(abs(x) for x in c.coeffs)) for c in p.coeffs))
                for p in dets_f]

    def at_energy(p, e):
        return pl.Poly(tuple(c(e) for c in p.coeffs))

    def couplings_at(e0):
        backs = [at_energy(p, e0) for p in dets_f]
        scales = [at_energy(p, abs(e0)) for p in dets_abs]
        found = []
        for back in backs:
            for d0 in _real_roots(back) if back.degree >= 1 else ():
                if any(abs(d0 - d) <= 1e-9 * (1 + abs(d)) for d in found):
                    continue
                if all(abs(b(d0)) <= _DET_RTOL * max(sc(abs(d0)), 1.0)
                       for b, sc in zip(backs, scales)):
                    found.append(d0)
        return found

    return _through_gate(spec, eliminant, couplings_at)
