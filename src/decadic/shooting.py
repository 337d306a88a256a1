"""Independent eigenvalue verification by complex-contour shooting.

The radial equation is integrated in log-derivative (Riccati) form

    y' = Q(r) - y^2,      y = psi'/psi,      Q = L(L+1)/r^2 + V(r) - E,

along the contour r(x) = x - i*min(epsilon, 0.5), which keeps the
centrifugal spike smooth for every real x.  The linear form would overflow
doubles beyond |x| ~ 3.5 because of the exp(+-x^6/6) envelopes; y stays
bounded except at isolated poles.  Both ends start on the decaying branch
(y ~ -r^5 at large |r|) and integrate toward the matching point, the
contour's middle node, where an eigenvalue announces itself by equal left
and right log-derivatives.  Bent contours ending in other decay wedges,
and the retries of a pole on the default contour, use explicit waypoints.
Each start value is the optimally truncated asymptotic series of the
decaying log-derivative in powers of 1/r^2 (_series_start), which also
estimates its own error.

find_eigenvalue's secant shoots its far iterates at _LOOSE_RTOL, where a
cheaper mismatch moves it as far (Dembo, Eisenstat & Steihaug, SIAM J.
Numer. Anal. 19, 400, 1982), and converges on three _RTOL mismatches.

The equation is stiff where |y| ~ |r|^5 is large, so the start radius x_max
sets most of the cost, on both kinds of contour: the default one starts at
+-x_max - i*min(epsilon, 0.5), and each half of a waypoint contour where its
path first comes within |r| = x_max.  Unless the caller fixes x_max, it is
derived from the potential at the shot's energy: scanning down from 4 in
steps of 0.1, the last radius whose starts still lie inside the decay
sectors of their ends and whose start error, damped along the path by the
WKB factor exp(-2 Re of the integral of sqrt(Q) dr) (Bender & Orszag,
chapter 10), is below the integration tolerance at the matching point.

V is the decadic well of model.potential_coeffs, with real coefficients,
so at a real energy V(-conj r) = conj V(r): on a contour that is its own PT
mirror (r -> -conj r) the left log-derivative is -conj of the right one,
bit for bit, since IEEE complex arithmetic and cmath.sqrt commute with
conjugation and DOP853 takes the same steps.  wronskian_mismatch then
integrates the left half only.

The integrator is scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
section II.10) run on one complex scalar in this module: scipy's step,
generated from its tableau as straight-line code with the Riccati
right-hand side written into every stage, and scipy's error estimate and
step control, without solve_ivp's per-step numpy work on a two-element real
state.  The tableau is kept here as literal floats, scipy's bit for bit
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
    "find_eigenvalue",
]


class PoleError(RuntimeError):
    """The log-derivative blew up (psi has a zero on the path)."""

    def __init__(self, location: complex):
        super().__init__(f"log-derivative pole near r = {location}")
        self.location = location


# the depth of a default contour deeper than this (see Contour)
_TRANSIT_DEPTH = 0.5
# the secant stops when a step is at most _E_TOL * (1 + |E|)
_E_TOL = 1e-9
# |y| at which an integration stops and reports a pole (PoleError)
_POLE_THRESHOLD = 1e8
# default relative tolerance of the integration, the one the secant converges at
_RTOL = 1e-10
# the secant's far iterates' rtol, until a step is at most _TIGHTEN_STEP * (1 + |E|)
_LOOSE_RTOL = 1e-5
_TIGHTEN_STEP = 1e-3
# the derived start radius is scanned down from _X_MAX_START in _X_MAX_STEP
# steps; each candidate's damping is a trapezoid sum of _DAMPING_NODES
# nodes per straight leg
_X_MAX_START = 4.0
_X_MAX_STEP = 0.1
_DAMPING_NODES = 64
# the start's asymptotic series stops once a block's size is below
# _SERIES_RTOL * |y| (see _series_start)
_SERIES_RTOL = 1e-13


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
            for sign, endpoint in ((-1.0, pts[0]), (1.0, pts[-1])):
                sector = _decay_sector(endpoint)
                if sector is None:
                    raise ValueError(
                        f"contour endpoint at angle {cmath.phase(endpoint):.4f} is not "
                        "strictly inside any decay sector")
                start = self._half(sign)[0]
                if not sector.contains(cmath.phase(start)):
                    raise ValueError(
                        f"the start at |r| = x_max = {self.x_max}, angle "
                        f"{cmath.phase(start):.4f}, is not strictly inside the decay sector "
                        f"of its endpoint at angle {cmath.phase(endpoint):.4f}")
        elif self.x_max is not None:
            # _DECAY_SECTORS[0] is centred on 0; the left start is the right
            # one's mirror (r -> -conj r), in the one centred on pi
            start = self.right_nodes()[0]
            if not _DECAY_SECTORS[0].contains(cmath.phase(start)):
                raise ValueError(
                    f"the contour start {start} at angle {cmath.phase(start):.4f} is not "
                    "strictly inside any decay sector of the real-axis pair: x_max must "
                    "be above min(epsilon, 0.5) / tan(pi/12), ~1.866 at epsilon >= 0.5")

    def left_nodes(self):
        return self._half(-1.0)

    def right_nodes(self):
        return self._half(1.0)

    def _half(self, sign: float):
        """Nodes of the left (sign -1) or right (+1) half, from its start to
        the match point, the middle node: x = 0 on the default contour."""
        if self.waypoints is not None:
            mid = len(self.waypoints) // 2
            half = self.waypoints[: mid + 1] if sign < 0 else self.waypoints[mid:][::-1]
            return list(half) if self.x_max is None else _cut(half, self.x_max)
        if self.x_max is None:
            raise ValueError("x_max is None: shooting derives it per potential and energy, "
                             "so only a contour with x_max has nodes")
        depth = min(self.epsilon, _TRANSIT_DEPTH)
        return [complex(sign * self.x_max, -depth), complex(0.0, -depth)]


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
    """iterations counts the secant steps of both phases (see
    find_eigenvalue); wronskian_residual is the last mismatch, at _RTOL when
    converged, possibly at _LOOSE_RTOL when not."""

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
    (_series_start)."""
    a, b, c, d = (float(coeffs.a), float(coeffs.b), float(coeffs.c), float(coeffs.d))
    if not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError(f"potential coefficients must be finite, got {(a, b, c, d)}")
    ll1 = float(big_l) * (float(big_l) + 1.0)
    terms = (a, b, c, d, ll1, complex(energy))
    q = _q_of_terms(*terms)
    q.terms = terms
    q.start = _series_start(terms)
    return q


def _series_start(terms):
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
    and shared by every start at this Q."""
    a, b, c, d, ll1, e0 = terms
    q_n = (1.0, a, b, c, d, -e0, ll1)
    coeffs = [-1.0]

    def extend(count):
        for k in range(len(coeffs), count):
            # sum_(i=1..k-1) c_i c_(k-i), each pair of equal products once
            pairs = sum(map(operator.mul, coeffs[1:(k + 1) // 2], coeffs[k - 1:k // 2:-1]))
            total = (q_n[k] if k < len(q_n) else 0.0) - 2 * pairs
            if k % 2 == 0:
                total -= coeffs[k // 2] ** 2
            if k >= 3:
                total -= (11 - 2 * k) * coeffs[k - 3]
            coeffs.append(-total / 2)

    def start(r):
        u = 1 / (r * r)
        term = r ** 5
        y, err, last = 0j, math.inf, 0.0
        for first in itertools.count(0, 3):
            extend(first + 3)
            block = []
            for coeff in coeffs[first:first + 3]:
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

    return start


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
    nfev: int  # counted as scipy counts: 2 for the start, 12 per attempted step


# the Riccati right-hand side dr * (Q(z0 + t * dr) - y^2) of one leg into k;
# stage values far past a pole would overflow y * y, so they give 0j and the
# pole event raises PoleError on the accepted values
_RICCATI = """\
        if abs({y}) <= 1e100:
            r = z0 + {t} * dr
            r2 = r * r
            {k} = dr * (%s - {y} * {y})
        else:
            {k} = 0j""" % _Q


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
    right-hand side rhs(t, y) and step(t, h, t_new, y, f) -> (y_new, f_new,
    err3, err5): the eleven stages after f, the update, f_new = rhs(t_new,
    y_new) and the two error estimates as straight-line code, with no call
    per stage.  The coefficients are written in with repr and the zero ones
    left out; every sum starts from 0j and runs in the tableau's order, as
    a loop over it would, so the results are the loop's bit for bit.
    """
    def combination(weights):
        return "0j" + "".join(f" + k{j} * {w!r}" for j, w in enumerate(weights) if w)

    source = ["def leg(z0, dr, a, b, c, d, ll1, e0):", "    def rhs(t, y):",
              _RICCATI.format(y="y", t="t", k="f"), "        return f",
              "    def step(t, h, t_new, y, k0):"]
    for s in range(1, _Tableau.n_stages):
        source += [f"        y_s = y + ({combination(_Tableau.A[s])}) * h",
                   _RICCATI.format(y="y_s", t=f"(t + {_Tableau.C[s]!r} * h)", k=f"k{s}")]
    n = _Tableau.n_stages  # k{n} is f_new, as in scipy's K
    source += [f"        y_new = y + h * ({combination(_Tableau.B)})",
               _RICCATI.format(y="y_new", t="t_new", k=f"k{n}"),
               f"        err3 = {combination(_Tableau.E3)}",
               f"        err5 = {combination(_Tableau.E5)}",
               f"        return y_new, k{n}, err3, err5",
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


def solve_ivp(terms, z0: complex, z1: complex, y0, rtol, atol) -> IvpResult:
    """Integrate the Riccati equation of the Q with these terms (q.terms of
    _q_func) along the straight leg r = z0 + t * (z1 - z0), t from 0 to 1,
    with DOP853:

        dy/dt = (z1 - z0) * (Q(r) - y^2),

    where y is the log-derivative in r.  scipy's step, generated from its
    tableau (_Tableau, _dop853), with the step control of
    scipy.integrate.solve_ivp(method="DOP853") and a terminal event on the
    upward crossing of |y| - _POLE_THRESHOLD: the real and imaginary parts
    are scaled and normed separately, as scipy does on the state [re, im],
    so the steps are scipy's.  Sums run in sequence rather than through
    BLAS, so results may differ from scipy's in the last bits.  Raises
    PoleError where the leg stops: at the threshold crossing, placed by
    linear interpolation of |y| within the step that crosses it, or at the
    last accepted t when the step size collapses.
    """
    t, t_bound = 0.0, 1.0
    y = complex(y0)
    if not cmath.isfinite(y):
        raise ValueError(f"y0 must be finite, got {y}")
    # atol = 0 would divide by a zero scale where a part of y stays 0
    if not atol > 0:
        raise ValueError(f"atol must be positive, got {atol}")
    if math.isnan(rtol):
        raise ValueError("rtol must not be NaN")
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
            y_new, f_new, err3, err5 = step(t, h, t_new, y, f)
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
        if g <= 0 <= g_new:
            crossing = g / (g - g_new) if g < g_new else 0.0
            raise PoleError(z0 + (t + crossing * (t_new - t)) * (z1 - z0))
        t, y, f, g = t_new, y_new, f_new, g_new
    return IvpResult(ts, ys, nfev)


def _damping(q, nodes) -> float:
    """2 Re of the integral of sqrt(Q) from the last node (the matching
    point) out to the first (the contour end), on the branch decaying
    radially outward at the end, continued along the path: the nats by
    which an error in the start value has decayed when the integration
    reaches the matching point.
    Trapezoid rule, _DAMPING_NODES nodes per straight leg."""
    # the root of Q at the end with Re(s * end) > 0, so that exp(-integral
    # of s) decays radially outward
    s = cmath.sqrt(q(nodes[0]))
    if (s * nodes[0]).real < 0:
        s = -s
    total = 0j
    for z0, z1 in zip(nodes[:-1], nodes[1:]):
        step = (z1 - z0) / (_DAMPING_NODES - 1)
        for k in range(1, _DAMPING_NODES):
            s_next = cmath.sqrt(q(z0 + k * step))
            if (s_next * s.conjugate()).real < 0:
                s_next = -s_next
            total += (s + s_next) * step
            s = s_next
    # total / 2 runs inward, from the end to the matching point
    return -total.real


def _start_radius(q, contour: Contour, rtol: float) -> float:
    """The x_max of a contour without one, for the Q of q.

    Scans R down from _X_MAX_START in steps of _X_MAX_STEP and returns the
    last R before the first that fails either test: each half's start lies
    strictly inside a decay sector (on a waypoint contour, its endpoint's,
    and the half comes within R at all), and on both halves the start's
    own error estimate err (q.start, _series_start), damped by the path
    (_damping), is at most rtol at the matching point:
    err * exp(-damping) <= rtol.  When the first step down fails, the
    default contour keeps R = _X_MAX_START and a waypoint contour its
    waypoints (R is its outer endpoint's radius), so no derived start lies
    further out.  Where the halves are mirror images (_mirrored), the right
    half's start and damping are the left half's, bit for bit, and only the
    left half is integrated.
    """
    log_rtol = math.log(max(rtol, _RTOL_FLOOR))

    def damped_error(nodes):
        # ln(err * exp(-damping)), in logs so that a steep path's damping
        # cannot overflow; an exact start (err = 0) passes
        _, err = q.start(nodes[0])
        return (math.log(err) if err else -math.inf) - _damping(q, nodes)

    if contour.waypoints is None:
        radius = _X_MAX_START
    else:
        radius = max(abs(contour.waypoints[0]), abs(contour.waypoints[-1]))
    for k in range(1, round(_X_MAX_START / _X_MAX_STEP)):
        x_max = round(_X_MAX_START - k * _X_MAX_STEP, 10)
        try:
            trial = dataclasses.replace(contour, x_max=x_max)
        except ValueError:
            # a start outside its sector, or a waypoint half that never
            # comes within x_max
            break
        halves = (trial.left_nodes,)
        if not _mirrored(q, trial):
            halves += (trial.right_nodes,)
        # "<= log_rtol" rather than "not > log_rtol", so that a NaN fails
        if not all(damped_error(half()) <= log_rtol for half in halves):
            break
        radius = x_max
    return radius


def _mirrored(q, contour: Contour) -> bool:
    """True when the energy of q is real and the right half of the contour
    is the PT mirror (r -> -conj r) of the left half, so that the right
    half's values are the left half's mirrored, bit for bit (see the module
    docstring)."""
    mirrored = [-z.conjugate() for z in contour.right_nodes()]
    return q.terms[-1].imag == 0 and contour.left_nodes() == mirrored


def _resolved(contour: Contour, q, rtol: float) -> Contour:
    """The contour as given when it has an x_max, else with
    x_max = _start_radius(q, ...)."""
    if contour.x_max is not None:
        return contour
    return dataclasses.replace(contour, x_max=_start_radius(q, contour, rtol))


def integrate_log_derivative(coeffs: PotentialCoeffs, big_l, energy, contour: Contour,
                             direction: str, *, rtol: float = _RTOL, atol: float = 1e-10):
    """Samples (r, y) of the log-derivative along one half of the contour.

    direction is "from_left" or "from_right"; integration starts on the
    decaying branch at the half's start (its far end, or on a waypoint
    contour where its path first comes within |r| = x_max) and runs toward
    the matching point.  A contour without x_max, default or waypoint,
    starts at the radius derived at this energy.
    Raises PoleError when y passes through a pole (find_eigenvalue then
    retries the default contour's halves, matched at x = +-0.3).
    """
    if direction not in ("from_left", "from_right"):
        raise ValueError(f'direction must be "from_left" or "from_right", got {direction!r}')
    q = _q_func(coeffs, big_l, energy)
    contour = _resolved(contour, q, rtol)
    nodes = contour.left_nodes() if direction == "from_left" else contour.right_nodes()
    if not cmath.isfinite(q(nodes[0])):
        raise ValueError(f"Q overflows at the contour start {nodes[0]}: x_max is too large")
    y, _ = q.start(nodes[0])
    rs = [nodes[0]]
    ys = [y]
    for z0, z1 in zip(nodes[:-1], nodes[1:]):
        dr = z1 - z0
        sol = solve_ivp(q.terms, z0, z1, y, rtol, atol)
        rs.extend(z0 + t * dr for t in sol.t[1:])
        ys.extend(sol.y[1:])
        y = ys[-1]
    return np.array(rs), np.array(ys)


def wronskian_mismatch(coeffs: PotentialCoeffs, big_l, energy: float, contour: Contour,
                       *, rtol: float = _RTOL, atol: float = 1e-10) -> float:
    """Dimensionless mismatch of left and right log-derivatives at the match
    point; vanishes exactly at eigenvalues.  On the symmetric contour the
    complex parts cancel, so only the real part carries information.

    The right half is taken as -conj of the left one, not integrated, when
    the energy is real and the contour is its own PT mirror (see the module
    docstring).  A contour without x_max starts both halves at the radius
    derived at this energy."""
    q = _q_func(coeffs, big_l, energy)
    contour = _resolved(contour, q, rtol)
    _, ys_l = integrate_log_derivative(coeffs, big_l, energy, contour, "from_left",
                                       rtol=rtol, atol=atol)
    yl = ys_l[-1]
    if _mirrored(q, contour):
        yr = -yl.conjugate()
    else:
        _, ys_r = integrate_log_derivative(coeffs, big_l, energy, contour, "from_right",
                                           rtol=rtol, atol=atol)
        yr = ys_r[-1]
    return float(((yl - yr) / (1 + abs(yl) + abs(yr))).real)


def find_eigenvalue(coeffs: PotentialCoeffs, big_l, e_guess: float, contour: Contour,
                    residual_tol: float = 1e-6, max_iter: int = 40,
                    e_bound: float = 1e6) -> ShootingResult:
    """Secant refinement of the Wronskian mismatch starting from e_guess.

    The mismatches run at rtol _LOOSE_RTOL (1e-5) until a secant step is at
    most _TIGHTEN_STEP * (1 + |E|), then at _RTOL (1e-10) for the rest of
    the search; the step test (at most _E_TOL * (1 + |E|)) stops it only
    when the last three ran at _RTOL.

    Non-convergence (wild steps, |E| escaping e_bound, persistent poles) is
    reported in the result, never raised.  A contour without x_max gets the
    radius derived at e_guess, one for the whole search, and the result
    carries it.  A pole on a default contour retries its halves matched at
    x = +0.3, then -0.3 (_shifted); the result still carries the default
    contour.  A non-finite e_guess, an e_bound or residual_tol that is not
    positive (NaN included) and a max_iter below 1 raise ValueError first.
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
    contour = _resolved(contour, _q_func(coeffs, big_l, e_guess), _RTOL)
    match_points = (0.0,) if contour.waypoints is not None else (0.0, 0.3, -0.3)
    for x in match_points:
        shot = contour if x == 0.0 else _shifted(contour, x)
        try:
            found = _secant(coeffs, big_l, e_guess, shot, residual_tol, max_iter, e_bound)
        except PoleError:
            continue
        return ShootingResult(*found, contour=contour)
    return ShootingResult(energy=float(e_guess), wronskian_residual=math.inf,
                          iterations=0, converged=False, contour=contour)


def _shifted(contour: Contour, x: float) -> Contour:
    """The default contour's halves matched at x: the waypoint contour with
    the same starts, and x_max their radius, so _cut keeps both."""
    if not abs(x) < contour.x_max:
        raise ValueError("matching point must lie strictly inside the contour")
    left, right = contour.left_nodes(), contour.right_nodes()
    waypoints = (*left[:-1], complex(x, left[-1].imag), *right[-2::-1])
    return Contour(waypoints=waypoints, x_max=abs(left[0]))


def _secant(coeffs, big_l, e_guess, contour, residual_tol, max_iter, e_bound):
    """(energy, residual, iterations, converged) of the secant search."""
    rtol = _LOOSE_RTOL

    def g(e):
        return wronskian_mismatch(coeffs, big_l, e, contour, rtol=rtol)

    e0 = float(e_guess)
    e1 = e0 + max(1e-3, 1e-3 * abs(e0))
    f0, f1 = g(e0), g(e1)
    iterations = tight = 0
    step_converged = False
    for iterations in range(1, max_iter + 1):
        if f1 == f0:
            break
        e2 = e1 - f1 * (e1 - e0) / (f1 - f0)
        if not math.isfinite(e2) or abs(e2) > e_bound:
            return float(e1), float(abs(f1)), iterations, False
        if abs(e2 - e1) <= _TIGHTEN_STEP * (1 + abs(e2)):
            rtol = _RTOL
        e0, f0 = e1, f1
        e1 = e2
        f1 = g(e1)
        tight = tight + 1 if rtol == _RTOL else 0
        if tight >= 3 and abs(e1 - e0) <= _E_TOL * (1 + abs(e1)):
            step_converged = True
            break
    residual = float(abs(f1))
    return float(e1), residual, iterations, step_converged and residual <= residual_tol
