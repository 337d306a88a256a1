"""Independent eigenvalue verification by complex-contour shooting.

The radial equation is integrated in log-derivative (Riccati) form

    y' = Q(r) - y^2,      y = psi'/psi,      Q = L(L+1)/r^2 + V(r) - E,

along the contour r(x) = x - i*min(epsilon, 0.5), which keeps the
centrifugal spike smooth for every real x.  The linear form would overflow
doubles beyond |x| ~ 3.5 because of the exp(+-x^6/6) envelopes; y stays
bounded except at isolated poles.  Both ends start on the decaying branch
(y ~ -r^5 at large |r|) and integrate toward the matching point, the
contour's middle node, where an eigenvalue announces itself by equal left
and right log-derivatives.  Bent contours ending in other decay wedges use
explicit waypoints.
Each start value is the optimally truncated asymptotic series of the
decaying log-derivative in powers of 1/r^2 (_SeriesStart), which also
estimates its own error.

find_eigenvalue takes Newton steps on the mismatch g(E) (Keller, Numerical
Methods for Two-Point Boundary-Value Problems, 1968, chapter 2): every
integration carries u = dy/dE beside y, by the variational equation
u' = dQ/dE - 2 y u = -1 - 2 y u, so one integration per half gives g and
its slope (mismatch_and_slope).  Its far iterates run at _LOOSE_RTOL,
where a cheaper mismatch moves it as far (Dembo, Eisenstat & Steihaug,
SIAM J. Numer. Anal. 19, 400, 1982), and it converges on two _RTOL
mismatches.

The equation is stiff where |y| ~ |r|^5 is large, so the start radius x_max
sets most of the cost, on both kinds of contour: the default one starts at
+-x_max - i*min(epsilon, 0.5), and each half of a waypoint contour where its
path first comes within |r| = x_max.  Unless the caller fixes x_max, it is
derived from the potential at the shot's energy: scanning down from 4 in
steps of 0.1, the last radius whose starts still lie inside the decay
sectors of their ends and whose start error, damped along the path by the
WKB factor exp(-2 Re of the integral of sqrt(Q) dr) (Bender & Orszag,
chapter 10), is below the integration tolerance at the matching point.
The scan takes every trial radius at once, in numpy: one array of the
nodes of all their integrated halves gives every damping (_dampings), and
one matrix of series terms every start's error (_SeriesStart.errors).
find_eigenvalue derives the radius with the Q at its guess and takes its
first Newton step with that same Q, start series and all.

V is the decadic well of model.potential_coeffs, with real coefficients,
so at a real energy V(-conj r) = conj V(r): on a contour that is its own PT
mirror (r -> -conj r) the left log-derivative is -conj of the right one,
bit for bit, since IEEE complex arithmetic and cmath.sqrt commute with
conjugation and DOP853 takes the same steps.  mismatch_and_slope then
integrates the left half only, and u of the right half is -conj of the
left one too.

The integrator is scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
section II.10) run on one complex scalar in this module: scipy's step,
generated from its tableau as straight-line code with the Riccati
right-hand side written into every stage, and scipy's error estimate and
step control, without solve_ivp's per-step numpy work on a two-element real
state.  u rides along: each stage also takes the variational right-hand
side, and u is updated with the same weights, but the error estimate and
so the steps are y's alone, so every y is the one a y-only step gives.
The tableau is kept here as literal floats, scipy's bit for bit
(_Tableau), so shooting does not import scipy; the step is generated from
it on the first integration.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .model import PotentialCoeffs
from .wedges import sectors_for_degree

__all__ = [
    "Contour",
    "ShootingResult",
    "PoleError",
    "integrate_log_derivative",
    "wronskian_mismatch",
    "mismatch_and_slope",
    "find_eigenvalue",
]


class PoleError(RuntimeError):
    """The log-derivative blew up (psi has a zero on the path)."""

    def __init__(self, location: complex):
        super().__init__(f"log-derivative pole near r = {location}")
        self.location = location


# the depth of a default contour deeper than this (see Contour)
_TRANSIT_DEPTH = 0.5
# the search stops when a Newton correction is at most _E_TOL * (1 + |E|)
_E_TOL = 1e-9
# |y| at which an integration stops and reports a pole (PoleError)
_POLE_THRESHOLD = 1e8
# default relative and absolute tolerances of the integration; the search
# converges at _RTOL
_RTOL = 1e-10
_ATOL = 1e-10
# the search's far iterates' rtol, until a step is at most _TIGHTEN_STEP * (1 + |E|)
_LOOSE_RTOL = 1e-5
_TIGHTEN_STEP = 1e-3
# the derived start radius is scanned down from _X_MAX_START in _X_MAX_STEP
# steps; each candidate's damping is a trapezoid sum of _DAMPING_NODES
# nodes per straight leg
_X_MAX_START = 4.0
_X_MAX_STEP = 0.1
_DAMPING_NODES = 64
# the start's asymptotic series stops once a block's size is below
# _SERIES_RTOL * |y| (see _SeriesStart); the scan sums its trial starts'
# series over _SERIES_FIRST coefficients, then _SERIES_MORE more at a time
_SERIES_RTOL = 1e-13
_SERIES_FIRST = 48
_SERIES_MORE = 24


@dataclass(frozen=True)
class Contour:
    """Integration path.  Default: the straight halves from +-x_max - i*delta
    to the match point -i*delta.  epsilon is the depth below the spike at
    r = 0; the path transits at delta = min(epsilon, _TRANSIT_DEPTH).

    A level is fixed by the decay sectors in which the two starts lie, not
    by the points themselves (the log-derivative is single-valued and
    meromorphic), so every epsilon above _TRANSIT_DEPTH poses the problem
    of epsilon = _TRANSIT_DEPTH and shoots its contour.  Deeper contours
    (epsilon near 1) would cross a pocket where Re(r^6) turns negative and
    the decaying solution becomes recessive by hundreds of orders of
    magnitude, which double precision cannot carry.

    Alternatively an odd-length polyline of waypoints whose middle node is
    the matching point; both endpoints must lie strictly inside a decay
    sector of the degree-10 asymptotics (z = 3).  epsilon has no effect on
    such a contour.  With x_max, each half starts where its path, from its
    endpoint inward, first comes within |r| = x_max, or at its endpoint
    when that already lies within; the start must lie strictly inside the
    endpoint's sector.  Without x_max, its nodes are the waypoints.

    Both starts +-x_max - i*delta of a default contour must lie strictly
    inside the real-axis pair of decay sectors, centred on 0 and pi (a
    start in another pair's would quantize on its recipe), which needs
    x_max > delta / tan(pi/12), ~1.866 at epsilon >= 0.5.  When x_max is
    None, shooting derives it from the potential and the energy (see
    _start_radius); a given x_max is used as it is.  Below
    epsilon = 2**-511, r^2 = -epsilon^2 at the match point would not be a
    normal float (it underflows to 0)."""

    epsilon: float = 0.5
    x_max: "float | None" = None
    waypoints: "tuple | None" = None

    def __post_init__(self):
        # "not 0 < v < inf" also rejects NaN
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.epsilon < 2.0 ** -511:
            raise ValueError(f"epsilon must be at least 2**-511 ~ 1.49e-154, got {self.epsilon}")
        if self.x_max is not None and not 0 < self.x_max < math.inf:
            raise ValueError(f"x_max must be positive and finite, got {self.x_max}")
        if self.waypoints is not None:
            pts = tuple(complex(w) for w in self.waypoints)
            if not all(cmath.isfinite(w) for w in pts):
                raise ValueError(f"waypoints must be finite, got {self.waypoints}")
            object.__setattr__(self, "waypoints", pts)
            if len(pts) < 3 or len(pts) % 2 == 0:
                raise ValueError("waypoints must be an odd-length polyline of >= 3 nodes")
            for endpoint in (pts[0], pts[-1]):
                if _decay_sector(endpoint) is None:
                    raise ValueError(
                        f"contour endpoint at angle {cmath.phase(endpoint):.4f} is not "
                        "strictly inside any decay sector")
        if self.x_max is not None:
            self._halves(self.x_max)

    def left_nodes(self):
        return self._half(-1.0, self.x_max)

    def right_nodes(self):
        return self._half(1.0, self.x_max)

    def _half(self, sign: float, x_max):
        """Nodes of the left (sign -1) or right (+1) half started at radius
        x_max, from its start to the match point, the middle node: x = 0 on
        the default contour."""
        if self.waypoints is not None:
            mid = len(self.waypoints) // 2
            half = self.waypoints[: mid + 1] if sign < 0 else self.waypoints[mid:][::-1]
            return list(half) if x_max is None else _cut(half, x_max)
        if x_max is None:
            raise ValueError("x_max is None: shooting derives it per potential and energy, "
                             "so only a contour with x_max has nodes")
        depth = min(self.epsilon, _TRANSIT_DEPTH)
        return [complex(sign * x_max, -depth), complex(0.0, -depth)]

    def _halves(self, x_max: float):
        """(left, right) nodes of the halves started at radius x_max.  Raises
        ValueError when a start lies outside the decay sector of its end, or
        a waypoint half never comes within x_max."""
        left, right = self._half(-1.0, x_max), self._half(1.0, x_max)
        if self.waypoints is None:
            # _DECAY_SECTORS[0] is centred on 0; the left start is the right
            # one's mirror (r -> -conj r), in the one centred on pi
            start = right[0]
            if not _DECAY_SECTORS[0].contains(cmath.phase(start)):
                raise ValueError(
                    f"the contour start {start} at angle {cmath.phase(start):.4f} is not "
                    "strictly inside any decay sector of the real-axis pair: x_max must "
                    "be above min(epsilon, 0.5) / tan(pi/12), ~1.866 at epsilon >= 0.5")
            return left, right
        for start, endpoint in ((left[0], self.waypoints[0]), (right[0], self.waypoints[-1])):
            if not _decay_sector(endpoint).contains(cmath.phase(start)):
                raise ValueError(
                    f"the start at |r| = x_max = {x_max}, angle "
                    f"{cmath.phase(start):.4f}, is not strictly inside the decay sector "
                    f"of its endpoint at angle {cmath.phase(endpoint):.4f}")
        return left, right


def _cut(half, radius: float):
    """The polyline half, from its endpoint to the matching point, started
    where it first comes within |r| = radius; as given when the endpoint
    already lies within.  Raises ValueError when it never comes within."""
    if abs(half[0]) <= radius:
        return list(half)
    for k in range(1, len(half)):
        z0, dz = half[k - 1], half[k] - half[k - 1]
        # |z0 + t dz| = radius at the roots of a t^2 + 2 b t + c; z0 lies
        # outside (c > 0), so the leg enters only inward (b < 0), first at
        # the smaller root, written without cancellation
        a = dz.real * dz.real + dz.imag * dz.imag
        b = z0.real * dz.real + z0.imag * dz.imag
        c = (abs(z0) - radius) * (abs(z0) + radius)
        disc = b * b - a * c
        if b < 0 and disc >= 0:
            t = c / (math.sqrt(disc) - b)
            if t <= 1:
                return [z0 + t * dz, *half[k:]]
    raise ValueError(f"the contour half from {half[0]} never comes within "
                     f"|r| = x_max = {radius}")


# the decay sectors of the degree-10 asymptotics
_DECAY_SECTORS = tuple(sectors_for_degree(3))


def _decay_sector(r: complex):
    """The one of _DECAY_SECTORS that r lies strictly inside, or None."""
    angle = cmath.phase(r)
    return next((s for s in _DECAY_SECTORS if s.contains(angle)), None)


@dataclass(frozen=True)
class ShootingResult:
    """iterations counts the mismatch evaluations of both phases (see
    find_eigenvalue).  A converged energy is one Newton correction past the
    last evaluated one, and wronskian_residual is |g| at that last one, an
    _RTOL mismatch; an unconverged energy is the last evaluated one, with
    its |g|, possibly at _LOOSE_RTOL."""

    energy: float
    wronskian_residual: float
    iterations: int
    converged: bool
    contour: Contour  # the contour shot, its derived x_max filled in


# Q(r) of the decadic well in Horner form in r2 = r * r, with its float
# terms a, b, c, d, ll1 = L(L+1) and e0 = E: the one place it is written.
# _q_func compiles it into q, and _dop853 writes it into every stage
_Q = "((((r2 + a) * r2 + b) * r2 + c) * r2 + d) * r2 + ll1 / r2 - e0"


def _define(source: str, name: str):
    """The function name defined by the Python source."""
    namespace = {}
    exec(source, namespace)
    return namespace[name]


_q_of_terms = _define(f"""\
def q_of_terms(a, b, c, d, ll1, e0):
    def q(r):
        r2 = r * r
        return {_Q}
    return q""", "q_of_terms")


def _q_func(coeffs: PotentialCoeffs, big_l, energy):
    """Q(r) = V(r) + L(L+1)/r^2 - E of the decadic well.  Its float terms
    (a, b, c, d, L(L+1), E) are q.terms, which solve_ivp takes, and
    q.start(r) -> (y, err) is the decaying branch's start at r
    (_SeriesStart)."""
    a, b, c, d = (float(coeffs.a), float(coeffs.b), float(coeffs.c), float(coeffs.d))
    if not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError(f"potential coefficients must be finite, got {(a, b, c, d)}")
    ll1 = float(big_l) * (float(big_l) + 1.0)
    terms = (a, b, c, d, ll1, complex(energy))
    q = _q_of_terms(*terms)
    q.terms = terms
    q.start = _SeriesStart(terms)
    return q


class _SeriesStart:
    """start(r) -> (y, err) for the Q with these terms: the log-derivative at
    r of the branch decaying radially outward, in every decay sector, and an
    estimate of its error.

    y is the asymptotic series y = r^5 * sum of c_n r^(-2n) (Bender &
    Orszag, chapters 3 and 10; Q has even powers only, so the odd ones of y
    vanish), whose coefficients follow from y' = Q - y^2 with
    Q = r^10 * sum of Q_n r^(-2n), Q_0..Q_6 = 1, a, b, c, d, -E, L(L+1):

        c_0 = -1,   -2 c_n = Q_n - (11 - 2n) c_(n-3) - sum_(i=1..n-1) c_i c_(n-i).

    It is summed in blocks of three terms, optimally truncated.  A block's
    size is its largest term or the previous block's, whichever is larger:
    the exact states' cancellations leave runs of up to four zero
    coefficients (c_6..c_9 at alpha = beta = d = 0, M = 2), and a block of
    zeros must not pass for convergence.  From the block that ends at c_8
    on, summing stops after a block whose size is below
    _SERIES_RTOL * |y|, or before a block whose size exceeds the previous
    block's; err is the size of the last block summed.  The coefficients do
    not depend on r; they are computed once, as far as a start needs them,
    and shared by every start at this Q, the batch of errors (errors) among
    them."""

    def __init__(self, terms):
        a, b, c, d, ll1, e0 = terms
        self._q_n = (1.0, a, b, c, d, -e0, ll1)
        self.coeffs = [-1.0]

    def _extend(self, count):
        coeffs, q_n = self.coeffs, self._q_n
        for k in range(len(coeffs), count):
            # sum_(i=1..k-1) c_i c_(k-i), each pair of equal products once
            pairs = sum(map(operator.mul, coeffs[1:(k + 1) // 2], coeffs[k - 1:k // 2:-1]))
            total = (q_n[k] if k < len(q_n) else 0.0) - 2 * pairs
            if k % 2 == 0:
                total -= coeffs[k // 2] * coeffs[k // 2]
            if k >= 3:
                total -= (11 - 2 * k) * coeffs[k - 3]
            coeffs.append(-total / 2)

    def __call__(self, r):
        u = 1 / (r * r)
        term = r ** 5
        y, err, last = 0j, math.inf, 0.0
        for first in itertools.count(0, 3):
            self._extend(first + 3)
            block = []
            for coeff in self.coeffs[first:first + 3]:
                block.append(coeff * term)
                term *= u
            largest = max(map(abs, block))
            size = max(largest, last)
            checked = first >= 6
            # "not <=" rather than ">", so that a NaN term stops the sum
            if checked and not size <= err:
                return y, err
            y += sum(block)
            err, last = size, largest
            if checked and size <= _SERIES_RTOL * abs(y):
                return y, err

    def errors(self, starts, count: int):
        """(err, stopped): for each of the array starts, the err of
        start(r) summed from its first count coefficients (a multiple of 3,
        at least 9), in one matrix of terms c_n r^(5 - 2n), each the start's
        product chain.  stopped is False where the sum goes on past them;
        that err means nothing.  Call under np.errstate: a coefficient or a
        term may overflow, and the sums stop before its block."""
        self._extend(count)
        r2 = starts * starts
        powers = np.empty((len(starts), count), complex)
        powers[:, 0] = starts * (r2 * r2)
        powers[:, 1:] = (1 / r2)[:, None]
        blocks = (np.array(self.coeffs[:count]) * np.cumprod(powers, axis=1)).reshape(
            len(starts), -1, 3)
        # the largest term of each block and its size as Python's max takes
        # them, so that a NaN term weighs as it does in start(r)
        mags = np.abs(blocks)
        largest = mags[..., 0]
        for k in (1, 2):
            largest = np.where(mags[..., k] > largest, mags[..., k], largest)
        last = np.zeros_like(largest)
        last[:, 1:] = largest[:, :-1]
        size = np.where(last > largest, last, largest)
        y = np.cumsum(blocks.sum(axis=2), axis=1)
        # from the third block on: before a block that grows (or is NaN),
        # or after one below _SERIES_RTOL * |y|
        grows = ~(size[:, 2:] <= size[:, 1:-1])
        stops = grows | (size[:, 2:] <= _SERIES_RTOL * np.abs(y[:, 2:]))
        rows, first = np.arange(len(starts)), stops.argmax(axis=1)
        return size[rows, first + 2 - grows[rows, first]], stops[rows, first]


# step control of scipy.integrate's explicit Runge-Kutta methods
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
_RTOL_FLOOR = 100 * sys.float_info.epsilon


@dataclass(frozen=True)
class IvpResult:
    t: list  # accepted times along the leg, 0 to 1 (a leg that stops raises PoleError)
    y: list  # complex solution at those times
    u: complex  # dy/dE at t = 1, carried from u0 by the variational equation
    nfev: int  # counted as scipy counts: 2 for the start, 12 per attempted step


def _riccati(y, t, k, u=None, v=None):
    """Source of one leg's Riccati stage k = dr * (Q(z0 + t * dr) - y^2)
    and, given u and v, of the stage v = dr * (dQ/dE - 2 y u) =
    m2dr * (y * u) - dr of u = dy/dE beside it.  Stage values far past a
    pole would overflow y * y, so they give 0j, and the pole event raises
    PoleError on the accepted values."""
    lines = [f"        if abs({y}) <= 1e100:",
             f"            r = z0 + {t} * dr",
             "            r2 = r * r",
             f"            {k} = dr * ({_Q} - {y} * {y})"]
    if v:
        lines.append(f"            {v} = m2dr * ({y} * {u}) - dr")
    lines += ["        else:", f"            {k} = {v + ' = ' if v else ''}0j"]
    return "\n".join(lines)


class _Tableau:
    """The entries of scipy's DOP853 tableau (Hairer, Norsett & Wanner,
    Solving ODEs I, section II.10) that _dop853 reads, named as on
    scipy.integrate.DOP853, each the repr of scipy's float64, zeros
    included: the rows A[s, :s], the nodes C, the weights B and the error
    weights E3 and E5 over the stages and f_new."""

    n_stages = 12
    A = (
        (),
        (0.05260015195876773,),
        (0.0197250569845379, 0.0591751709536137),
        (0.02958758547680685, 0.0, 0.08876275643042054),
        (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
        (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
        (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
        (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023),
        (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996),
        (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
        (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
         -3.0467644718982196),
        (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
         12.360567175794303, 0.6433927460157636))
    C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
         0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
         0.8571428571428571, 1.0)
    B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
         0.04471061572777259)
    E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
          -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
          0.02265179219836082, 0.0)
    E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
          1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
          -0.022355307863886294, 0.0)


@functools.cache
def _dop853():
    """The DOP853 step for the Riccati leg, generated from _Tableau.

    Returns leg(z0, dr, a, b, c, d, ll1, e0), which gives the leg's
    right-hand side rhs(t, y) and step(t, h, t_new, y, f, u) -> (y_new,
    f_new, err3, err5, u_new): the eleven stages after f, the update,
    f_new = rhs(t_new, y_new) and the two error estimates as straight-line
    code, with no call per stage.  The coefficients are written in with repr
    and the zero ones left out; every sum starts from 0j and runs in the
    tableau's order, as a loop over it would, so the results are the loop's
    bit for bit.  u = dy/dE takes the same stages and weights (v0..v11 beside
    k0..k11); no y line reads it, so y is what a y-only step gives.
    """
    def combination(weights, k="k"):
        return "0j" + "".join(f" + {k}{j} * {w!r}" for j, w in enumerate(weights) if w)

    source = ["def leg(z0, dr, a, b, c, d, ll1, e0):", "    m2dr = -2 * dr",
              "    def rhs(t, y):", _riccati("y", "t", "f"), "        return f",
              "    def step(t, h, t_new, y, k0, u):",
              "        v0 = m2dr * (y * u) - dr if abs(y) <= 1e100 else 0j"]
    for s in range(1, _Tableau.n_stages):
        source += [f"        y_s = y + ({combination(_Tableau.A[s])}) * h",
                   f"        u_s = u + ({combination(_Tableau.A[s], 'v')}) * h",
                   _riccati("y_s", f"(t + {_Tableau.C[s]!r} * h)", f"k{s}", "u_s", f"v{s}")]
    n = _Tableau.n_stages  # k{n} is f_new, as in scipy's K
    source += [f"        y_new = y + h * ({combination(_Tableau.B)})",
               f"        u_new = u + h * ({combination(_Tableau.B, 'v')})",
               _riccati("y_new", "t_new", f"k{n}"),
               f"        err3 = {combination(_Tableau.E3)}",
               f"        err5 = {combination(_Tableau.E5)}",
               f"        return y_new, k{n}, err3, err5, u_new",
               "    return rhs, step"]
    return _define("\n".join(source), "leg")


def _rms(z: complex, scale_re: float, scale_im: float) -> float:
    """scipy's RMS norm of [re, im] / scale."""
    a, b = z.real / scale_re, z.imag / scale_im
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


def _initial_step(fun, y0, f0, rtol, atol):
    """scipy.integrate._ivp.common.select_initial_step for error order 7."""
    scale_re = atol + abs(y0.real) * rtol
    scale_im = atol + abs(y0.imag) * rtol
    d0 = _rms(y0, scale_re, scale_im)
    d1 = _rms(f0, scale_re, scale_im)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 1.0)
    f1 = fun(h0, y0 + h0 * f0)
    d2 = _rms(f1 - f0, scale_re, scale_im) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, 1.0)


def solve_ivp(terms, z0: complex, z1: complex, y0, rtol, atol, u0=0j) -> IvpResult:
    """Integrate the Riccati equation of the Q with these terms (q.terms of
    _q_func) along the straight leg r = z0 + t * (z1 - z0), t from 0 to 1,
    with DOP853:

        dy/dt = (z1 - z0) * (Q(r) - y^2),

    where y is the log-derivative in r, and beside it, from u0 = dy0/dE, its
    variational equation for u = dy/dE (dQ/dE = -1):

        du/dt = (z1 - z0) * (-1 - 2 y u).

    scipy's step, generated from its tableau (_Tableau, _dop853), with the
    step control of scipy.integrate.solve_ivp(method="DOP853") and a
    terminal event on |y| - _POLE_THRESHOLD, armed from the start: the
    real and imaginary parts are scaled and normed separately, as scipy
    does on the state [re, im], so the steps are scipy's.  Sums run in sequence rather than through
    BLAS, so results may differ from scipy's in the last bits.  Raises
    PoleError where the leg stops: at z0 when |y0| is not below the
    threshold, at the first accepted point that is not, placed by linear
    interpolation of |y| within the step that crosses it, or at the last
    accepted t when the step size collapses.  The steps, and so every y, do
    not depend on u.
    """
    t, t_bound = 0.0, 1.0
    y, u = complex(y0), complex(u0)
    if not cmath.isfinite(y):
        raise ValueError(f"y0 must be finite, got {y}")
    # atol = 0 would divide by a zero scale where a part of y stays 0
    if not atol > 0:
        raise ValueError(f"atol must be positive, got {atol}")
    if math.isnan(rtol):
        raise ValueError("rtol must not be NaN")
    if not abs(y) < _POLE_THRESHOLD:
        raise PoleError(z0)
    rtol = max(rtol, _RTOL_FLOOR)
    rhs, step = _dop853()(z0, z1 - z0, *terms)
    f = rhs(t, y)
    h_abs = _initial_step(rhs, y, f, rtol, atol)
    nfev = 2
    ts, ys = [t], [y]
    g = abs(y) - _POLE_THRESHOLD
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also ends a NaN step size
                raise PoleError(z0 + t * (z1 - z0))
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            y_new, f_new, err3, err5, u_new = step(t, h, t_new, y, f, u)
            nfev += 12
            scale_re = atol + max(abs(y.real), abs(y_new.real)) * rtol
            scale_im = atol + max(abs(y.imag), abs(y_new.imag)) * rtol
            err5_2 = (err5.real / scale_re) ** 2 + (err5.imag / scale_im) ** 2
            err3_2 = (err3.real / scale_re) ** 2 + (err3.imag / scale_im) ** 2
            denom = err5_2 + 0.01 * err3_2
            error_norm = h * err5_2 / math.sqrt(denom * 2) if denom else 0.0
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        ts.append(t_new)
        ys.append(y_new)
        g_new = abs(y_new) - _POLE_THRESHOLD
        if g_new >= 0:
            crossing = g / (g - g_new)
            raise PoleError(z0 + (t + crossing * (t_new - t)) * (z1 - z0))
        t, y, f, g, u = t_new, y_new, f_new, g_new, u_new
    return IvpResult(ts, ys, u, nfev)


def _dampings(q, paths):
    """For each path, a list of nodes: 2 Re of the integral of sqrt(Q) from
    its last node (the matching point) out to its first (the contour end),
    on the branch decaying radially outward at the end, continued along the
    path: the nats by which an error in the start value has decayed when
    the integration reaches the matching point.

    Trapezoid rule, _DAMPING_NODES nodes per straight leg, on one array of
    every path's nodes; a path of fewer legs is padded with zero-length
    legs at its matching point, which add 0 and flip no branch.  Call under
    np.errstate where Q may overflow."""
    legs = max(map(len, paths)) - 1
    ends = np.array([path + path[-1:] * (legs + 1 - len(path)) for path in paths])
    steps = (ends[:, 1:] - ends[:, :-1]) / (_DAMPING_NODES - 1)
    nodes = np.empty((len(paths), 1 + legs * (_DAMPING_NODES - 1)), complex)
    nodes[:, 0] = ends[:, 0]
    nodes[:, 1:] = (ends[:, :-1, None]
                    + np.arange(1, _DAMPING_NODES) * steps[:, :, None]).reshape(len(paths), -1)
    s = np.sqrt(q(nodes))
    # the root of Q at the end with Re(s * end) > 0, so that exp(-integral
    # of s) decays radially outward, then at each node the root nearer the
    # previous one: the branch is the product of the -1 flips so far
    flips = np.empty(nodes.shape, bool)
    flips[:, 0] = (s[:, 0] * nodes[:, 0]).real < 0
    flips[:, 1:] = s.real[:, 1:] * s.real[:, :-1] + s.imag[:, 1:] * s.imag[:, :-1] < 0
    s = np.where(np.logical_xor.accumulate(flips, axis=1), -s, s)
    pairs = (s[:, :-1] + s[:, 1:]).reshape(len(paths), legs, _DAMPING_NODES - 1)
    total = (pairs.sum(axis=2) * steps).sum(axis=1)
    # total / 2 runs inward, from the end to the matching point
    return -total.real


def _start_radius(q, contour: Contour, rtol: float) -> float:
    """The x_max of a contour without one, for the Q of q.

    Scans R down from _X_MAX_START in steps of _X_MAX_STEP and returns the
    last R before the first that fails either test: each half's start lies
    strictly inside a decay sector (on a waypoint contour, its endpoint's,
    and the half comes within R at all), and on both halves the start's
    own error estimate err (q.start, _SeriesStart), damped by the path
    (_dampings), is at most rtol at the matching point:
    err * exp(-damping) <= rtol.  When the first step down fails, the
    default contour keeps R = _X_MAX_START and a waypoint contour its
    waypoints (R is its outer endpoint's radius), so no derived start lies
    further out.  Where the halves are mirror images (_mirrored), the right
    half's start and damping are the left half's, bit for bit, and only the
    left half is integrated.

    The error test runs on every trial R in the sectors at once: one array
    pass for all their dampings, and one matrix of series terms for all
    their starts' errors (_SeriesStart.errors), whose coefficients are
    extended until every trial down to the first that fails has stopped
    summing.  The trials below it are computed and discarded.
    """
    log_rtol = math.log(max(rtol, _RTOL_FLOOR))
    if contour.waypoints is None:
        radius = _X_MAX_START
    else:
        radius = max(abs(contour.waypoints[0]), abs(contour.waypoints[-1]))
    # radii[k] is trial k's R; paths are the integrated halves, trial[j]
    # the trial of paths[j]
    radii, paths, trial = [radius], [], []
    for k in range(1, round(_X_MAX_START / _X_MAX_STEP)):
        x_max = round(_X_MAX_START - k * _X_MAX_STEP, 10)
        try:
            left, right = contour._halves(x_max)
        except ValueError:
            # a start outside its sector, or a waypoint half that never
            # comes within x_max
            break
        halves = [left] if _mirrored(q, left, right) else [left, right]
        paths += halves
        trial += [k] * len(halves)
        radii.append(x_max)
    if not paths:
        return radius
    trial = np.array(trial)
    starts = np.array([path[0] for path in paths])
    count = _SERIES_FIRST
    with np.errstate(all="ignore"):
        damping = _dampings(q, paths)
        done = 0  # paths[:done] are known to pass
        while True:
            err, stopped = q.start.errors(starts[done:], count)
            # ln(err * exp(-damping)), in logs so that a steep path's damping
            # cannot overflow; an exact start (err = 0) passes, and a NaN
            # damping or error fails
            passed = stopped & (np.log(err) - damping[done:] <= log_rtol)
            if passed.all():
                return radii[-1]
            failed = ~passed & (stopped | np.isnan(damping[done:]))
            first = done + passed.argmin()
            if failed[trial[done:] == trial[first]].any():
                return radii[trial[first] - 1]
            done = first
            count += _SERIES_MORE


def _mirrored(q, left, right) -> bool:
    """True when the energy of q is real and the right half's nodes are the
    PT mirror (r -> -conj r) of the left half's, so that the right half's
    values are the left half's mirrored, bit for bit (see the module
    docstring)."""
    return q.terms[-1].imag == 0 and left == [-z.conjugate() for z in right]


def _resolved(contour: Contour, q, rtol: float) -> Contour:
    """The contour as given when it has an x_max, else with
    x_max = _start_radius(q, ...)."""
    if contour.x_max is not None:
        return contour
    return dataclasses.replace(contour, x_max=_start_radius(q, contour, rtol))


def _integrate_half(q, nodes, rtol: float, atol: float):
    """(rs, ys, u) of the half with these nodes, from its start nodes[0]
    to the matching point: the accepted points and log-derivatives, and
    u = dy/dE at the matching point.  y starts on the decaying branch
    (q.start), u at u0 = -1/(2 y0), the leading term of the start's
    E-derivative (only the r^0 coefficient -E of Q depends on E, and the
    series term it enters, c_5 r^(-5), has dc_5/dE = 1/2).  A start whose
    first blocks already overflow to inf or NaN stops the half there, as a
    start beyond the pole threshold does: PoleError at nodes[0]."""
    if not cmath.isfinite(q(nodes[0])):
        raise ValueError(f"Q overflows at the contour start {nodes[0]}: x_max is too large")
    y, _ = q.start(nodes[0])
    if not cmath.isfinite(y):
        raise PoleError(nodes[0])
    u = -0.5 / y
    rs = [nodes[0]]
    ys = [y]
    for z0, z1 in zip(nodes[:-1], nodes[1:]):
        dr = z1 - z0
        sol = solve_ivp(q.terms, z0, z1, y, rtol, atol, u)
        rs.extend(z0 + t * dr for t in sol.t[1:])
        ys.extend(sol.y[1:])
        y, u = ys[-1], sol.u
    return rs, ys, u


def integrate_log_derivative(coeffs: PotentialCoeffs, big_l, energy, contour: Contour,
                             direction: str, *, rtol: float = _RTOL, atol: float = _ATOL):
    """Samples (r, y) of the log-derivative along one half of the contour.

    direction is "from_left" or "from_right"; integration starts on the
    decaying branch at the half's start (its far end, or on a waypoint
    contour where its path first comes within |r| = x_max) and runs toward
    the matching point.  A contour without x_max, default or waypoint,
    starts at the radius derived at this energy.  Raises PoleError where a
    leg stops (solve_ivp).
    """
    if direction not in ("from_left", "from_right"):
        raise ValueError(f'direction must be "from_left" or "from_right", got {direction!r}')
    q = _q_func(coeffs, big_l, energy)
    contour = _resolved(contour, q, rtol)
    nodes = contour.left_nodes() if direction == "from_left" else contour.right_nodes()
    rs, ys, _ = _integrate_half(q, nodes, rtol, atol)
    return np.array(rs), np.array(ys)


def mismatch_and_slope(coeffs: PotentialCoeffs, big_l, energy, contour: Contour,
                       *, rtol: float = _RTOL, atol: float = _ATOL):
    """(g, g') at this energy: the mismatch of wronskian_mismatch and its
    derivative in E, from one integration per integrated half.

    With y_l, y_r the left and right log-derivatives at the matching point
    and u_l, u_r their E-derivatives (carried by the integration, see
    solve_ivp), N = y_l - y_r and D = 1 + |y_l| + |y_r|:

        g = Re(N / D),   g' = Re((N' D - N D') / D^2),
        N' = u_l - u_r,  D' = Re(conj(y_l) u_l) / |y_l| + Re(conj(y_r) u_r) / |y_r|.

    On a contour that is its own PT mirror, at a real energy, only the left
    half is integrated: y_r = -conj(y_l) and u_r = -conj(u_l).  A contour
    without x_max starts both halves at the radius derived at this energy.
    Raises PoleError as integrate_log_derivative does."""
    q = _q_func(coeffs, big_l, energy)
    return _mismatch_and_slope(q, _resolved(contour, q, rtol), rtol, atol)


def _mismatch_and_slope(q, contour: Contour, rtol: float, atol: float):
    """mismatch_and_slope for the Q of q on a contour with x_max."""
    left, right = contour.left_nodes(), contour.right_nodes()
    _, ys, u_l = _integrate_half(q, left, rtol, atol)
    y_l = ys[-1]
    if _mirrored(q, left, right):
        y_r, u_r = -y_l.conjugate(), -u_l.conjugate()
    else:
        _, ys, u_r = _integrate_half(q, right, rtol, atol)
        y_r = ys[-1]
    num, den = y_l - y_r, 1 + abs(y_l) + abs(y_r)
    den_slope = _abs_slope(y_l, u_l) + _abs_slope(y_r, u_r)
    slope = ((u_l - u_r) * den - num * den_slope).real / (den * den)
    # numpy's complex division, which multiplies by the reciprocal of a real
    # divisor, so that g is the formula on integrate_log_derivative's
    # samples bit for bit
    return float((np.complex128(num) / den).real), float(slope)


def _abs_slope(y: complex, u: complex) -> float:
    """d|y|/dE = Re(conj(y) u) / |y| for u = dy/dE; 0 at y = 0."""
    return (y.real * u.real + y.imag * u.imag) / abs(y) if y else 0.0


def wronskian_mismatch(coeffs: PotentialCoeffs, big_l, energy: float, contour: Contour,
                       *, rtol: float = _RTOL, atol: float = _ATOL) -> float:
    """Dimensionless mismatch of left and right log-derivatives at the match
    point, Re((y_l - y_r) / (1 + |y_l| + |y_r|)); vanishes exactly at
    eigenvalues.  On the symmetric contour the complex parts cancel, so only
    the real part carries information.  It is the g of mismatch_and_slope,
    which says which halves are integrated, and from which radius."""
    return mismatch_and_slope(coeffs, big_l, energy, contour, rtol=rtol, atol=atol)[0]


def find_eigenvalue(coeffs: PotentialCoeffs, big_l, e_guess: float, contour: Contour,
                    residual_tol: float = 1e-6, max_iter: int = 40,
                    e_bound: float = 1e6) -> ShootingResult:
    """Newton refinement of the Wronskian mismatch starting from e_guess.

    Each step evaluates (g, g') by mismatch_and_slope, at rtol _LOOSE_RTOL
    (1e-5) until a Newton step is at most _TIGHTEN_STEP * (1 + |E|), then
    at _RTOL (1e-10) for the rest of the search.  It converges when, after
    at least two _RTOL evaluations, the correction |g / g'| is at most
    _E_TOL * (1 + |E|) and |g| is at most residual_tol; it returns the
    corrected energy and |g| of the last evaluated one.  g' = 0 or not
    finite, a step beyond e_bound and max_iter evaluations end it
    unconverged, at the last evaluated energy.

    Non-convergence (wild steps, |E| escaping e_bound, a leg that stops at
    a pole) is reported in the result, never raised: a PoleError ends the
    search at e_guess, with an infinite residual and no iterations.  A
    contour without x_max gets the radius derived at e_guess, one for the
    whole search, and the result carries it.  A non-finite e_guess, an
    e_bound or residual_tol that is not positive (NaN included) and a
    max_iter below 1 raise ValueError first.
    """
    if not math.isfinite(e_guess):
        raise ValueError(f"e_guess must be finite, got {e_guess}")
    # "not v > 0" rather than "v <= 0", so that NaN is rejected too
    if not e_bound > 0:
        raise ValueError(f"e_bound must be positive, got {e_bound}")
    if not residual_tol > 0:
        raise ValueError(f"residual_tol must be positive, got {residual_tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    q = _q_func(coeffs, big_l, e_guess)
    contour = _resolved(contour, q, _RTOL)
    try:
        found = _newton(coeffs, big_l, q, contour, residual_tol, max_iter, e_bound)
    except PoleError:
        return ShootingResult(energy=float(e_guess), wronskian_residual=math.inf,
                              iterations=0, converged=False, contour=contour)
    return ShootingResult(*found, contour=contour)


def _newton(coeffs, big_l, q, contour, residual_tol, max_iter, e_bound):
    """(energy, residual, iterations, converged) of the Newton search from
    the energy of q, the Q that derived the contour's radius."""
    rtol, tight = _LOOSE_RTOL, 0
    next_energy = q.terms[-1].real
    for iterations in range(1, max_iter + 1):
        energy = next_energy
        if iterations > 1:
            q = _q_func(coeffs, big_l, energy)
        g, slope = _mismatch_and_slope(q, contour, rtol, _ATOL)
        tight += rtol == _RTOL
        if not slope or not math.isfinite(slope):
            break
        correction = g / slope
        next_energy = energy - correction
        if (tight >= 2 and abs(correction) <= _E_TOL * (1 + abs(energy))
                and abs(g) <= residual_tol):
            return next_energy, abs(g), iterations, True
        # "not <=" rather than ">", so that a NaN step ends the search too
        if not abs(next_energy) <= e_bound:
            break
        if abs(correction) <= _TIGHTEN_STEP * (1 + abs(next_energy)):
            rtol = _RTOL
    return energy, abs(g), iterations, False
