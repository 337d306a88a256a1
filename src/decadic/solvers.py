"""Solution pipelines for the exactly solvable multiplets.

Three regimes:

* M = 1: the energy is pinned to E = 0 and the quadratic coupling d is the
  eigenvalue of the main matrix (a coupling multiplet, any N).
* M = 2: the small determinant forces d = E^2/4; substituting it into the
  entries of the main matrix leaves a single determinant, a polynomial in E
  whose real roots are the energies.
* M >= 2 general: treat the small and main determinants as a coupled
  bivariate system, eliminate d with a resultant and back-substitute.

The M = 2 and coupled routes only propose (E, d) candidates.  Both send
them through one acceptance gate, which keeps a candidate only when the
full (N+1) x N recurrence system is genuinely rank deficient there (this is
what rejects extraneous resultant roots) and returns one entry per null
direction, with its recurrence residual.  sturmian_multiplet,
solve_energies and solve_coupled all return a Multiplet; solve_sturmian,
which sturmian_multiplet wraps, also gives the raw couplings and, built on
first read, the exact coupling polynomial.
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


def null_vector(matrix, rtol: float = 1e-8):
    """Null vector of a numerically rank-deficient matrix.

    Normalized so that the first entry above rtol * max|v| equals 1.
    Raises NotRankDeficientError when the smallest singular value exceeds
    rtol times the largest (the signature of a spurious root).
    """
    _, s, vt = np.linalg.svd(np.asarray(matrix, dtype=float))
    if _full_rank(s, rtol):
        raise NotRankDeficientError(
            f"smallest singular value {s[-1]:.3e} exceeds {rtol:.1e} * {s[0]:.3e}")
    return _normalize_first_nonzero(vt[-1], rtol)


def _full_rank(s, rtol):
    """The rank test on singular values s (descending)."""
    return s[0] > 0 and s[-1] > rtol * s[0]


def _normalize_first_nonzero(v, rtol):
    v = np.asarray(v, dtype=float)
    threshold = rtol * max(np.max(np.abs(v)), 1e-300)
    for x in v:
        if abs(x) > threshold:
            return tuple(float(t) for t in v / x)
    return tuple(float(t) for t in v)


def _null_space(s, vt, rtol):
    """Independent null directions from the SVD (s, vt) of a tall matrix,
    each normalized first-nonzero-to-1."""
    cutoff = rtol * s[0] if s[0] > 0 else np.inf
    return [_normalize_first_nonzero(vt[k], rtol)
            for k in range(vt.shape[0] - 1, -1, -1) if s[k] <= cutoff]


def _eigvals_hessenberg(a):
    """Eigenvalues of the (already upper-Hessenberg) float main matrix a.

    LAPACK's general eigensolver runs Hessenberg QR after a reduction step
    that is trivial here; if it fails to converge, fall back to the roots
    of the characteristic polynomial via the companion matrix.
    """
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError:
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
    F = d - beta^2 + 2*N*alpha: the main matrix is built with d = F + shift
    and expanded once.  Exact for rational alpha, beta."""
    if spec.big_m != 1:
        raise WrongModeError(f"coupling multiplets require M = 1, got M = {spec.big_m}")
    exact, was_float = _exact_spec(spec)
    shift = exact.beta * exact.beta - 2 * exact.n_states * exact.alpha
    result = pl.det(recurrence.main_matrix(exact, 0, pl.Poly((shift, 1))))
    return result.as_float() if was_float else result


def solve_sturmian(spec: ModelSpec, reality_tol: float = 1e-8,
                   rank_rtol: float = 1e-8) -> SturmianResult:
    """All real eigen-couplings d of the M = 1 problem at E = 0, with their
    null vectors.  Any N is admissible."""
    if spec.big_m != 1:
        raise WrongModeError(f"coupling multiplets require M = 1, got M = {spec.big_m}")
    a = np.array(recurrence.main_matrix(spec, 0.0, 0.0), dtype=float)
    vals = _eigvals_hessenberg(a)
    d_values = sorted(float(v.real) for v in vals
                      if abs(v.imag) <= reality_tol * (1 + abs(v)))
    h_vectors = []
    for d in d_values:
        h_vectors.append(null_vector(a - d * np.eye(spec.n_states), rank_rtol))
    shifts = tuple(float(shifted_coupling(d, spec)) for d in d_values)
    return SturmianResult(
        d_values=tuple(d_values),
        shifted_couplings=shifts,
        h_vectors=tuple(h_vectors),
        _spec=spec,
    )


def sturmian_multiplet(spec: ModelSpec, reality_tol: float = 1e-8,
                       rank_rtol: float = 1e-8,
                       residual_tol: float = 1e-10) -> Multiplet:
    """solve_sturmian repackaged as a validated multiplet (E = 0 throughout)."""
    result = solve_sturmian(spec, reality_tol=reality_tol, rank_rtol=rank_rtol)
    entries = []
    for d, h in zip(result.d_values, result.h_vectors):
        res = verify.recurrence_residual(spec, 0.0, d, h)
        entries.append(MultipletEntry(
            energy=0.0, quadratic_coupling=float(d), h=tuple(map(float, h)),
            recurrence_residual=res, validated=res <= residual_tol))
    return Multiplet.from_entries(entries)


def solve_energies(spec: ModelSpec, reality_tol: float = 1e-8,
                   rank_rtol: float = 1e-8,
                   residual_tol: float = 1e-10) -> Multiplet:
    """Energy multiplet at M = 2, where the small determinant fixes d = E^2/4.

    The main matrix is built with energy E and coupling E^2/4 as Poly
    entries and its determinant expanded exactly once, to a polynomial in E;
    each distinct real root is accepted only if the full recurrence system
    is rank deficient there.
    """
    if spec.big_m != 2:
        raise WrongModeError(f"energy multiplets require M = 2, got M = {spec.big_m}")
    exact, _ = _exact_spec(spec)
    poly_e = pl.det(recurrence.main_matrix(
        exact, pl.Poly((0, 1)), pl.Poly((0, 0, Fraction(1, 4)))))
    root_set = pl.roots(poly_e.as_float())
    entries = []
    for root in root_set.roots:
        if abs(root.value.imag) > reality_tol * (1 + abs(root.value)):
            continue
        e0 = root.value.real
        d0 = e0 * e0 / 4
        entries.extend(_validated_entries(spec, e0, d0, rank_rtol, residual_tol))
    return Multiplet.from_entries(entries)


def _validated_entries(spec, e0, d0, rank_rtol, residual_tol):
    """The acceptance gate: entries for one (E, d) candidate, one per null
    direction of the full recurrence system; empty when the rank test fails."""
    full = np.asarray(recurrence.full_system(spec, e0, d0), dtype=float)
    _, s, vt = np.linalg.svd(full)
    if _full_rank(s, rank_rtol):
        return []
    entries = []
    for h in _null_space(s, vt, rank_rtol):
        res = verify.recurrence_residual(spec, e0, d0, h)
        entries.append(MultipletEntry(
            energy=float(e0), quadratic_coupling=float(d0), h=tuple(map(float, h)),
            recurrence_residual=res, validated=res <= residual_tol))
    return entries


def solve_coupled(spec: ModelSpec, reality_tol: float = 1e-8,
                  rank_rtol: float = 1e-8, det_tol: float = 1e-8,
                  residual_tol: float = 1e-10) -> Multiplet:
    """Simultaneous (E, d) multiplet from the coupled secular system at M >= 2.

    Eliminates d between the small and main determinants with a Sylvester
    resultant and back-substitutes each real E into both determinants to
    recover d.  A candidate whose determinants both vanish to det_tol
    (relative to a cancellation-free scale) goes through the acceptance
    gate that solve_energies uses: the full recurrence system must be rank
    deficient, and each entry is validated when its recurrence residual is
    at most residual_tol.  An empty result is a valid outcome.
    """
    if spec.big_m < 2:
        raise WrongModeError(f"the coupled solver requires M >= 2, got M = {spec.big_m}")
    exact, _ = _exact_spec(spec)
    e_sym, d_sym = pl.BiPoly.energy(), pl.BiPoly.coupling()
    p_small = pl.det_bipoly(recurrence.small_matrix(exact, e_sym, d_sym))
    p_main = pl.det_bipoly(recurrence.main_matrix(exact, e_sym, d_sym))
    eliminant = pl.resultant(p_small, p_main).as_float()
    if eliminant.is_zero:
        raise pl.DegenerateResultantError(
            "the resultant vanishes identically; the secular determinants "
            "share a common factor in d")
    small_f = pl.BiPoly(tuple(tuple(float(c) for c in row) for row in p_small.coeffs))
    main_f = pl.BiPoly(tuple(tuple(float(c) for c in row) for row in p_main.coeffs))

    entries = []
    seen = []
    for root in pl.roots(eliminant).roots:
        if abs(root.value.imag) > reality_tol * (1 + abs(root.value)):
            continue
        e0 = root.value.real
        # back-substitute through both determinants: at special energies one
        # of them can degenerate to the zero polynomial in d (every d then
        # satisfies it) and only the other carries the coupling information
        d_candidates = []
        for source in (small_f, main_f):
            back = source.poly_in_coupling(e0)
            scale = max(abs(c) for c in back.coeffs)
            if back.degree < 1 or scale == 0:
                continue
            try:
                d_roots = pl.roots(back)
            except (ValueError, ArithmeticError):
                continue
            for d_root in d_roots.roots:
                if abs(d_root.value.imag) <= reality_tol * (1 + abs(d_root.value)):
                    d_candidates.append(d_root.value.real)
        for d0 in d_candidates:
            if any(abs(e0 - e) <= 1e-9 * (1 + abs(e)) and abs(d0 - d) <= 1e-9 * (1 + abs(d))
                   for e, d in seen):
                continue
            scale_s = max(small_f.eval_abs(e0, d0), 1.0)
            scale_m = max(main_f.eval_abs(e0, d0), 1.0)
            if abs(small_f(e0, d0)) > det_tol * scale_s:
                continue
            if abs(main_f(e0, d0)) > det_tol * scale_m:
                continue
            accepted = _validated_entries(spec, e0, d0, rank_rtol, residual_tol)
            if accepted:
                seen.append((e0, d0))
                entries.extend(accepted)
    return Multiplet.from_entries(entries)
