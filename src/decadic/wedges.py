"""Asymptotic decay sectors in the complex plane and their left-right pairings.

A wave function behaving like exp(-x^(2z)/2z) at large |x| decays only for
angles where Re(x^(2z)) > 0: the plane splits into 2z open sectors of
half-width pi/(4z) centered at multiples of pi/z.  Boundary conditions are
imposed inside a PAIR of sectors exchanged by the left-right mirror
phi -> pi - phi; each such pair defines one quantization recipe.  The
degree-10 oscillator (z = 3) is the first case offering three distinct
pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Sector",
    "WedgePair",
    "LowerPairs",
    "sectors_for_degree",
    "pt_pairs",
    "lower_sector_pairs",
]

_TWO_PI = 2 * math.pi
_MIRROR_TOL = 1e-12


def _wrap(angle: float) -> float:
    """Reduce to (-pi, pi]."""
    a = math.fmod(angle, _TWO_PI)
    if a <= -math.pi:
        a += _TWO_PI
    elif a > math.pi:
        a -= _TWO_PI
    return a


def _same_angle(a: float, b: float) -> bool:
    return abs(_wrap(a - b)) <= _MIRROR_TOL


@dataclass(frozen=True)
class Sector:
    """Open angular interval (lo, hi); stored unreduced so that sectors
    crossing the 2*pi seam keep a contiguous representation."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"empty sector ({self.lo}, {self.hi})")

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def contains(self, angle: float) -> bool:
        """Strict interior membership, modulo 2*pi."""
        t = math.fmod(angle - self.lo, _TWO_PI)
        if t < 0:
            t += _TWO_PI
        return 0 < t < self.hi - self.lo

    def mirrored(self) -> "Sector":
        """Image under phi -> pi - phi."""
        return Sector(math.pi - self.hi, math.pi - self.lo)


@dataclass(frozen=True)
class WedgePair:
    """Two sectors exchanged by the mirror phi -> pi - phi; construction
    places the member reached from positive real infinity on the right."""

    left: Sector
    right: Sector
    index: int

    def __post_init__(self):
        m = self.right.mirrored()
        if not (_same_angle(m.lo, self.left.lo) and _same_angle(m.hi, self.left.hi)):
            raise ValueError("left sector is not the mirror image of the right sector")


def sectors_for_degree(z: int):
    """The 2z decay sectors of exp(-x^(2z)/2z): half-width pi/(4z), centered
    at k*pi/z for k = 0..2z-1."""
    if z < 1:
        raise ValueError(f"z must be >= 1, got {z}")
    half = math.pi / (4 * z)
    return [Sector(k * math.pi / z - half, k * math.pi / z + half) for k in range(2 * z)]


def pt_pairs(z: int):
    """Mirror pairs of decay sectors, plus the sectors fixed by the mirror.

    Returns (pairs, self_symmetric).  Pair index 1 is the pair containing
    the real axis when it exists; the rest follow by decreasing center of
    the right-hand sector (wrapped to (-pi, pi]).  Odd z gives z pairs and
    no fixed sectors; even z gives z - 1 pairs and two fixed sectors.
    """
    sectors = sectors_for_degree(z)
    raw_pairs = []
    self_symmetric = []
    for k in range(2 * z):
        # the mirror takes the centre k*pi/z to (z - k)*pi/z
        partner = (z - k) % (2 * z)
        if partner == k:
            self_symmetric.append(sectors[k])
        elif k < partner:
            a, b = sectors[k], sectors[partner]
            right, left = (a, b) if math.cos(a.center) > 0 else (b, a)
            raw_pairs.append((left, right))

    def sort_key(pair):
        c = _wrap(pair[1].center)
        return (0 if abs(c) <= 1e-9 else 1, -c)

    raw_pairs.sort(key=sort_key)
    pairs = [WedgePair(left=l, right=r, index=i + 1) for i, (l, r) in enumerate(raw_pairs)]
    return pairs, self_symmetric


@dataclass(frozen=True)
class LowerPairs:
    """The two candidate sector pairs below the real axis for potentials
    growing like x^2 * (ix)^(2*delta), with half-width pi/(4 + 2*delta).
    The second (outer) pair stays compatible with real coordinates only for
    delta in (1, 3)."""

    half_width: float
    first: WedgePair
    second: WedgePair
    second_pair_real_compatible: bool


def lower_sector_pairs(delta: float) -> LowerPairs:
    """The LowerPairs of a finite delta above -2 whose sectors floats resolve:
    some above 3e15 round away beside pi/2, and some below -1.999 lose their
    mirror symmetry.  Every delta in [-1.99, 1e15] is admissible."""
    if not -2 < delta < math.inf:
        raise ValueError(f"delta must be finite and exceed -2, got {delta}")
    w = math.pi / (4 + 2 * delta)
    half_pi = math.pi / 2
    try:
        first, second = (WedgePair(left=Sector(-(k + 2) * w - half_pi, -k * w - half_pi),
                                   right=Sector(k * w - half_pi, (k + 2) * w - half_pi),
                                   index=i) for i, k in enumerate((1, 3), 1))
    except ValueError:
        raise ValueError(
            "delta must be finite, exceed -2 and give sectors of half-width "
            "pi/(4 + 2 delta) that floats resolve, as every delta in [-1.99, 1e15] "
            f"does; got {delta}") from None
    return LowerPairs(
        half_width=w,
        first=first,
        second=second,
        second_pair_real_compatible=1 < delta < 3,
    )
