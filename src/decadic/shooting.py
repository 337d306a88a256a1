"""Independent eigenvalue verification by complex-contour shooting.

The radial equation is integrated in log-derivative (Riccati) form

    y' = Q(r) - y^2,      y = psi'/psi,      Q = L(L+1)/r^2 + V(r) - E,

along the contour r(x) = x - i*epsilon, which keeps the centrifugal spike
smooth for every real x.  The linear form would overflow doubles beyond
|x| ~ 3.5 because of the exp(+-x^6/6) envelopes; y stays bounded except at
isolated poles.  Both ends start on the decaying branch (y ~ -r^5 at large
|r|) and integrate toward a matching point, where an eigenvalue announces
itself by equal left and right log-derivatives.  Bent contours ending in
other decay wedges are supported through explicit waypoints.

With real potential coefficients and a real energy, V(-conj r) = conj V(r),
so on a contour that is its own PT mirror (r -> -conj r) the left
log-derivative is -conj of the right one, bit for bit: IEEE complex
arithmetic and cmath.sqrt commute with conjugation, and DOP853 takes the
same steps.  wronskian_mismatch then integrates the left half only.

The integrator is scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
section II.10) run on one complex scalar in this module: scipy's tableau,
error estimate and step control, without solve_ivp's per-step numpy work on
a two-element real state.  The tableau is imported from scipy on the first
integration, so importing decadic does not load scipy.integrate.
"""

from __future__ import annotations

import cmath
import functools
import math
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


# deepest point of the default contour's inner stretch (see Contour)
_TRANSIT_DEPTH = 0.5
# the secant stops when a step is at most _E_TOL * (1 + |E|)
_E_TOL = 1e-9


@dataclass(frozen=True)
class Contour:
    """Integration path.  Default: endpoints at +-x_max - i*epsilon, with
    the inner stretch transiting at depth min(epsilon, _TRANSIT_DEPTH).

    The log-derivative is single-valued and meromorphic, so the quadrature
    route between the two wedge endpoints is a free choice; only the
    endpoints define the boundary conditions.  Deep contours (epsilon near
    1) would otherwise cross a pocket where Re(r^6) turns negative and the
    decaying solution becomes recessive by hundreds of orders of magnitude,
    which double precision cannot carry; transiting closer to the real
    axis keeps that pocket shallow.

    Alternatively an odd-length polyline of waypoints whose middle node is
    the matching point; both endpoints must lie strictly inside a decay
    sector of the degree-10 asymptotics (z = 3)."""

    epsilon: float = 0.5
    x_max: float = 4.0
    waypoints: "tuple | None" = None

    def __post_init__(self):
        # "not 0 < v < inf" also rejects NaN
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 < self.x_max < math.inf:
            raise ValueError(f"x_max must be positive and finite, got {self.x_max}")
        if self.waypoints is not None:
            pts = tuple(complex(w) for w in self.waypoints)
            object.__setattr__(self, "waypoints", pts)
            if len(pts) < 3 or len(pts) % 2 == 0:
                raise ValueError("waypoints must be an odd-length polyline of >= 3 nodes")
            sectors = sectors_for_degree(3)
            for endpoint in (pts[0], pts[-1]):
                angle = cmath.phase(endpoint)
                if not any(s.contains(angle) for s in sectors):
                    raise ValueError(
                        f"contour endpoint at angle {angle:.4f} is not strictly "
                        "inside any decay sector")

    def _half(self, sign: float, match_x: float):
        if not -self.x_max < match_x < self.x_max:
            raise ValueError("matching point must lie strictly inside the contour")
        depth = min(self.epsilon, _TRANSIT_DEPTH)
        nodes = [complex(sign * self.x_max, -self.epsilon)]
        if depth != self.epsilon:
            nodes.append(complex(sign * self.x_max, -depth))
        nodes.append(complex(match_x, -depth))
        return nodes

    def left_nodes(self, match_x: float = 0.0):
        if self.waypoints is not None:
            if match_x != 0.0:
                raise ValueError("match_x shifts are only supported on the default contour")
            mid = len(self.waypoints) // 2
            return list(self.waypoints[: mid + 1])
        return self._half(-1.0, match_x)

    def right_nodes(self, match_x: float = 0.0):
        if self.waypoints is not None:
            if match_x != 0.0:
                raise ValueError("match_x shifts are only supported on the default contour")
            mid = len(self.waypoints) // 2
            return list(reversed(self.waypoints[mid:]))
        return self._half(1.0, match_x)


@dataclass(frozen=True)
class ShootingResult:
    energy: float
    wronskian_residual: float
    iterations: int
    converged: bool


def _poly_potential(coeffs: PotentialCoeffs):
    if coeffs.d is None:
        raise TypeError("quadratic coupling d is unsolved; shooting needs a numeric d")
    a, b, c, d = (float(coeffs.a), float(coeffs.b), float(coeffs.c), float(coeffs.d))
    if not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError(f"potential coefficients must be finite, got {(a, b, c, d)}")

    def v(r: complex) -> complex:
        r2 = r * r
        return ((((r2 + a) * r2 + b) * r2 + c) * r2 + d) * r2

    return v


def _q_func(coeffs, big_l, energy, potential):
    v = potential if potential is not None else _poly_potential(coeffs)
    ll1 = float(big_l) * (float(big_l) + 1.0)
    e0 = complex(energy)

    def q(r: complex) -> complex:
        return v(r) + ll1 / (r * r) - e0

    return q


def _wkb_start(q, node0: complex, node1: complex) -> complex:
    """Log-derivative of the branch decaying away from the matching point."""
    outward = (node0 - node1) / abs(node0 - node1)
    q0 = q(node0)
    s = cmath.sqrt(q0)
    if (s * outward).real < 0:
        s = -s
    delta = 1e-6 * (1 + abs(node0))
    dq = (q(node0 + delta) - q(node0 - delta)) / (2 * delta)
    return -s - dq / (4 * q0)


# step control of scipy.integrate's explicit Runge-Kutta methods
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
_RTOL_FLOOR = 100 * sys.float_info.epsilon


@dataclass(frozen=True)
class IvpResult:
    t: list  # accepted times, starting at t_span[0]
    y: list  # complex solution at those times
    nfev: int  # counted as scipy counts: 2 for the start, 12 per attempted step
    status: int  # 0 reached t_span[1], -1 step too small, 1 pole
    t_pole: "float | None" = None


@functools.cache
def _dop853():
    """scipy's DOP853 tableau as Python floats without its zero entries:
    (c, ((j, a_j), ...)) for each stage after the first, ((j, b_j), ...),
    and ((j, e3_j, e5_j), ...) for the two error estimates."""
    from scipy.integrate import DOP853

    def nonzero(row):
        return tuple((j, float(v)) for j, v in enumerate(row) if v != 0)

    stages = tuple((float(DOP853.C[s]), nonzero(DOP853.A[s, :s]))
                   for s in range(1, DOP853.n_stages))
    errors = tuple((j, float(e3), float(e5))
                   for j, (e3, e5) in enumerate(zip(DOP853.E3, DOP853.E5)) if e3 or e5)
    return stages, nonzero(DOP853.B), errors


def _rms(z: complex, scale_re: float, scale_im: float) -> float:
    """scipy's RMS norm of [re, im] / scale."""
    a, b = z.real / scale_re, z.imag / scale_im
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """scipy.integrate._ivp.common.select_initial_step for error order 7."""
    interval = t_bound - t0
    scale_re = atol + abs(y0.real) * rtol
    scale_im = atol + abs(y0.imag) * rtol
    d0 = _rms(y0, scale_re, scale_im)
    d1 = _rms(f0, scale_re, scale_im)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms(f1 - f0, scale_re, scale_im) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def solve_ivp(fun, t_span, y0, rtol, atol, pole_threshold) -> IvpResult:
    """Integrate the complex scalar y' = fun(t, y) over t_span with DOP853.

    A line-for-line port of scipy.integrate.solve_ivp(method="DOP853") with
    a terminal event on the upward crossing of |y| - pole_threshold: the
    real and imaginary parts are scaled and normed separately, as scipy
    does on the state [re, im], so the steps are scipy's.  Sums run in
    sequence rather than through BLAS, so results may differ from scipy's
    in the last bits.  The pole is placed by linear interpolation of |y|
    within the step that crosses the threshold.
    """
    stages, weights, errors = _dop853()
    t, t_bound = float(t_span[0]), float(t_span[1])
    y = complex(y0)
    if not cmath.isfinite(y):
        raise ValueError(f"y0 must be finite, got {y}")
    # atol = 0 would divide by a zero scale where a part of y stays 0
    if not atol > 0:
        raise ValueError(f"atol must be positive, got {atol}")
    if math.isnan(rtol):
        raise ValueError("rtol must not be NaN")
    if not t_bound > t:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    rtol = max(rtol, _RTOL_FLOOR)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev = 2
    ts, ys = [t], [y]
    g = abs(y) - pole_threshold
    k = [0j] * (len(stages) + 2)  # scipy's K: the 12 stages, then f_new
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also ends a NaN step size
                return IvpResult(ts, ys, nfev, -1)
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            k[0] = f
            for s, (c, row) in enumerate(stages, 1):
                dy = 0j
                for j, a in row:
                    dy += k[j] * a
                k[s] = fun(t + c * h, y + dy * h)
            dy = 0j
            for j, b in weights:
                dy += k[j] * b
            y_new = y + h * dy
            f_new = k[-1] = fun(t_new, y_new)
            nfev += 12
            err3 = err5 = 0j
            for j, e3, e5 in errors:
                err3 += k[j] * e3
                err5 += k[j] * e5
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
        g_new = abs(y_new) - pole_threshold
        if g <= 0 <= g_new:
            crossing = g / (g - g_new) if g < g_new else 0.0
            return IvpResult(ts, ys, nfev, 1, t + crossing * (t_new - t))
        t, y, f, g = t_new, y_new, f_new, g_new
    return IvpResult(ts, ys, nfev, 0)


def _integrate_nodes(q, nodes, rtol, atol, pole_threshold):
    y = _wkb_start(q, nodes[0], nodes[1])
    if not cmath.isfinite(y):
        raise ValueError(f"the log-derivative overflows at the contour end {nodes[0]}: "
                         "x_max or epsilon is too large")
    rs = [nodes[0]]
    ys = [y]
    for z0, z1 in zip(nodes[:-1], nodes[1:]):
        dr = z1 - z0

        def rhs(t, y):
            # stage values far past a pole would overflow y * y; the pole
            # event ends the run on the accepted values
            if not abs(y) <= 1e100:
                return 0j
            return dr * (q(z0 + t * dr) - y * y)

        sol = solve_ivp(rhs, (0.0, 1.0), y, rtol, atol, pole_threshold)
        if sol.status != 0:
            raise PoleError(z0 + (sol.t_pole if sol.status == 1 else sol.t[-1]) * dr)
        rs.extend(z0 + t * dr for t in sol.t[1:])
        ys.extend(sol.y[1:])
        y = ys[-1]
    return np.array(rs), np.array(ys)


def integrate_log_derivative(coeffs: PotentialCoeffs, big_l, energy, contour: Contour,
                             direction: str, potential=None, match_x: float = 0.0,
                             rtol: float = 1e-10, atol: float = 1e-10,
                             pole_threshold: float = 1e8):
    """Samples (r, y) of the log-derivative along one half of the contour.

    direction is "from_left" or "from_right"; integration starts on the
    decaying branch at the far end and runs toward the matching point.
    Raises PoleError when y passes through a pole (the caller may retry
    with a shifted matching point).
    """
    if direction == "from_left":
        nodes = contour.left_nodes(match_x)
    elif direction == "from_right":
        nodes = contour.right_nodes(match_x)
    else:
        raise ValueError(f'direction must be "from_left" or "from_right", got {direction!r}')
    q = _q_func(coeffs, big_l, energy, potential)
    return _integrate_nodes(q, nodes, rtol, atol, pole_threshold)


def wronskian_mismatch(coeffs: PotentialCoeffs, big_l, energy: float, contour: Contour,
                       potential=None, match_x: float = 0.0,
                       rtol: float = 1e-10, atol: float = 1e-10,
                       pole_threshold: float = 1e8) -> float:
    """Dimensionless mismatch of left and right log-derivatives at the match
    point; vanishes exactly at eigenvalues.  On the symmetric contour the
    complex parts cancel, so only the real part carries information.

    The right half is taken as -conj of the left one, not integrated, when
    the contour is its own PT mirror at this match point, the potential is
    the built-in one and the energy is real (see the module docstring)."""
    _, ys_l = integrate_log_derivative(coeffs, big_l, energy, contour, "from_left",
                                       potential=potential, match_x=match_x,
                                       rtol=rtol, atol=atol, pole_threshold=pole_threshold)
    yl = ys_l[-1]
    mirrored = [-z.conjugate() for z in contour.right_nodes(match_x)]
    if potential is None and complex(energy).imag == 0 and contour.left_nodes(match_x) == mirrored:
        yr = -yl.conjugate()
    else:
        _, ys_r = integrate_log_derivative(coeffs, big_l, energy, contour, "from_right",
                                           potential=potential, match_x=match_x,
                                           rtol=rtol, atol=atol, pole_threshold=pole_threshold)
        yr = ys_r[-1]
    return float(((yl - yr) / (1 + abs(yl) + abs(yr))).real)


def find_eigenvalue(coeffs: PotentialCoeffs, big_l, e_guess: float, contour: Contour,
                    potential=None, residual_tol: float = 1e-6, max_iter: int = 40,
                    e_bound: float = 1e6, pole_threshold: float = 1e8) -> ShootingResult:
    """Secant refinement of the Wronskian mismatch starting from e_guess.

    Non-convergence (wild steps, |E| escaping e_bound, persistent poles) is
    reported in the result, never raised.  A pole at the default matching
    point triggers retries at x = +0.3 and x = -0.3.  A non-finite e_guess,
    an e_bound or residual_tol that is not positive (NaN included) and a
    max_iter below 1 raise ValueError before any integration.
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
    match_points = (0.0,) if contour.waypoints is not None else (0.0, 0.3, -0.3)
    for mx in match_points:
        try:
            return _secant(coeffs, big_l, e_guess, contour, potential, mx,
                           residual_tol, max_iter, e_bound, pole_threshold)
        except PoleError:
            continue
    return ShootingResult(energy=float(e_guess), wronskian_residual=math.inf,
                          iterations=0, converged=False)


def _secant(coeffs, big_l, e_guess, contour, potential, match_x,
            residual_tol, max_iter, e_bound, pole_threshold):
    def g(e):
        return wronskian_mismatch(coeffs, big_l, e, contour,
                                  potential=potential, match_x=match_x,
                                  pole_threshold=pole_threshold)

    e0 = float(e_guess)
    e1 = e0 + max(1e-3, 1e-3 * abs(e0))
    f0, f1 = g(e0), g(e1)
    iterations = 0
    step_converged = False
    for iterations in range(1, max_iter + 1):
        if f1 == f0:
            break
        e2 = e1 - f1 * (e1 - e0) / (f1 - f0)
        if not math.isfinite(e2) or abs(e2) > e_bound:
            return ShootingResult(energy=float(e1), wronskian_residual=float(abs(f1)),
                                  iterations=iterations, converged=False)
        e0, f0 = e1, f1
        e1 = e2
        f1 = g(e1)
        if abs(e1 - e0) <= _E_TOL * (1 + abs(e1)):
            step_converged = True
            break
    residual = abs(f1)
    return ShootingResult(energy=float(e1), wronskian_residual=float(residual),
                          iterations=iterations,
                          converged=bool(step_converged and residual <= residual_tol))
