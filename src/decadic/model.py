"""Model parameters for the spiked decadic oscillator and its closed-form states.

The potential is V(r) = r^10 + a r^8 + b r^6 + c r^4 + d r^2 + f/r^2.  A
family of exactly solvable multiplets is selected by the shape parameters
(alpha, beta), the integer M fixing the effective angular momentum
L = M - 1/2, and the multiplet size N.  The higher couplings are then tied
to (alpha, beta, M, N); only the quadratic coupling d (and the energy E)
remain to be solved for.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Number = Union[int, float, Fraction]

__all__ = [
    "ModelSpec",
    "PotentialCoeffs",
    "Multiplet",
    "MultipletEntry",
    "angular_momentum",
    "spike_strength",
    "potential_coeffs",
    "potential_eval",
    "wavefunction_eval",
]


def angular_momentum(big_m: int) -> Fraction:
    """Effective angular momentum L = M - 1/2 for integer M >= 1."""
    if big_m < 1:
        raise ValueError(f"big_m must be >= 1, got {big_m}")
    return Fraction(2 * big_m - 1, 2)


def spike_strength(big_m: int, dimension: int, ell: int) -> Fraction:
    """Spike coupling f = M^2 - (ell - 1 + D/2)^2.

    This is the value of f for which the centrifugal term plus the spike
    combine into L(L+1)/r^2 with L = M - 1/2, in D spatial dimensions and
    partial wave ell.
    """
    if big_m < 1 or dimension < 1 or ell < 0:
        raise ValueError("require big_m >= 1, dimension >= 1, ell >= 0")
    t = Fraction(ell) - 1 + Fraction(dimension, 2)
    return Fraction(big_m) ** 2 - t * t


@dataclass(frozen=True)
class ModelSpec:
    """One exactly solvable family of the spiked decadic oscillator.

    alpha, beta  shape parameters of the exponential factor
    big_m        integer M; the effective angular momentum is L = M - 1/2
    n_states     multiplet size N (length of the power series)
    dimension    spatial dimension D, used only to derive the spike f
    ell          partial wave, used only to derive the spike f
    """

    alpha: Number
    beta: Number
    big_m: int
    n_states: int
    dimension: int = 3
    ell: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.big_m < 1:
            raise ValueError(f"big_m must be >= 1, got {self.big_m}")
        if self.n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {self.n_states}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.ell < 0:
            raise ValueError(f"ell must be >= 0, got {self.ell}")

    @property
    def angular_momentum(self) -> Fraction:
        return angular_momentum(self.big_m)

    @property
    def spike(self) -> Fraction:
        return spike_strength(self.big_m, self.dimension, self.ell)


@dataclass(frozen=True)
class PotentialCoeffs:
    """Couplings of V(r) = r^10 + a r^8 + b r^6 + c r^4 + d r^2 + f/r^2."""

    a: Number
    b: Number
    c: Number
    f: Number
    d: Number


def potential_coeffs(spec: ModelSpec, d_value: Number) -> PotentialCoeffs:
    """Couplings tied to the solvable family: a = 2*alpha, b = alpha^2 + 2*beta,
    c = 2*alpha*beta + 2M - 4N - 2, f from spike_strength and d = d_value."""
    al, be = spec.alpha, spec.beta
    return PotentialCoeffs(
        a=2 * al,
        b=al * al + 2 * be,
        c=2 * al * be + 2 * spec.big_m - 4 * spec.n_states - 2,
        f=spike_strength(spec.big_m, spec.dimension, spec.ell),
        d=d_value,
    )


def potential_eval(coeffs: PotentialCoeffs, r: Union[Number, complex]) -> complex:
    """Evaluate V(r) including the f/r^2 spike.  r = 0 is singular."""
    if r == 0:
        raise ValueError("potential is singular at r = 0")
    a, b, c, d, f = coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.f
    if isinstance(r, complex):
        a, b, c, d, f = (float(v) for v in (a, b, c, d, f))
    r2 = r * r
    return ((((r2 + a) * r2 + b) * r2 + c) * r2 + d) * r2 + f / r2


def _power_cut_up(r: complex, exponent: float) -> complex:
    # r**exponent with the branch cut along the positive imaginary axis,
    # i.e. arg(r) in (-3*pi/2, pi/2].
    theta = math.atan2(r.imag, r.real)
    if theta > math.pi / 2:
        theta -= 2 * math.pi
    return cmath.exp(exponent * (math.log(abs(r)) + 1j * theta))


def wavefunction_eval(spec: ModelSpec, h: Sequence[Number], r: Union[Number, complex]) -> complex:
    """Closed-form state exp(-r^6/6 - alpha r^4/4 - beta r^2/2) * sum h_n r^(2n-L).

    The fractional power r^(-L) uses the branch cut along the positive
    imaginary axis.  r = 0 is singular.
    """
    if len(h) != spec.n_states:
        raise ValueError(f"h must have length N = {spec.n_states}, got {len(h)}")
    rc = complex(r)
    if rc == 0:
        raise ValueError("wavefunction is singular at r = 0")
    al, be = float(spec.alpha), float(spec.beta)
    r2 = rc * rc
    series = 0j
    for hn in reversed([complex(float(x), 0.0) if not isinstance(x, complex) else x for x in h]):
        series = series * r2 + hn
    envelope = cmath.exp(-(r2 ** 3) / 6 - al * r2 * r2 / 4 - be * r2 / 2)
    return envelope * series * _power_cut_up(rc, -float(spec.angular_momentum))


@dataclass(frozen=True)
class MultipletEntry:
    """One validated bound state: energy E, quadratic coupling d and the
    series coefficients h, with the worst recurrence-row residual."""

    energy: float
    quadratic_coupling: float
    h: tuple
    recurrence_residual: float
    validated: bool


@dataclass(frozen=True)
class Multiplet:
    """A deterministic, (E, d)-sorted collection of solved states."""

    entries: tuple

    @staticmethod
    def from_entries(entries) -> "Multiplet":
        ordered = sorted(entries, key=lambda e: (e.energy, e.quadratic_coupling, e.h))
        return Multiplet(entries=tuple(ordered))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)
