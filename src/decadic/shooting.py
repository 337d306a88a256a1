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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

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


@dataclass(frozen=True)
class Contour:
    """Integration path.  Default: endpoints at +-x_max - i*epsilon, with
    the inner stretch transiting at depth min(epsilon, transit_depth).

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
    transit_depth: float = 0.5

    def __post_init__(self):
        # "not 0 < v < inf" also rejects NaN; an infinite transit_depth is
        # harmless, because only min(epsilon, transit_depth) is used
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 < self.x_max < math.inf:
            raise ValueError(f"x_max must be positive and finite, got {self.x_max}")
        if not self.transit_depth > 0:
            raise ValueError(f"transit_depth must be positive, got {self.transit_depth}")
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
        depth = min(self.epsilon, self.transit_depth)
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


def _integrate_nodes(q, nodes, rtol, atol, pole_threshold):
    y = _wkb_start(q, nodes[0], nodes[1])
    rs = [nodes[0]]
    ys = [y]
    for z0, z1 in zip(nodes[:-1], nodes[1:]):
        dr = z1 - z0

        def rhs(t, state):
            yv = complex(state[0], state[1])
            if not (math.isfinite(yv.real) and math.isfinite(yv.imag)) or abs(yv) > 1e100:
                return [0.0, 0.0]
            dy = dr * (q(z0 + t * dr) - yv * yv)
            return [dy.real, dy.imag]

        def blowup(t, state):
            return math.hypot(state[0], state[1]) - pole_threshold

        blowup.terminal = True
        blowup.direction = 1.0
        sol = solve_ivp(rhs, (0.0, 1.0), [y.real, y.imag], method="DOP853",
                        rtol=rtol, atol=atol, events=blowup)
        if sol.t_events[0].size > 0:
            raise PoleError(z0 + sol.t_events[0][0] * dr)
        if sol.status != 0 or sol.t[-1] < 1.0:
            raise PoleError(z0 + sol.t[-1] * dr)
        rs.extend(z0 + t * dr for t in sol.t[1:])
        ys.extend(complex(a, b) for a, b in zip(sol.y[0][1:], sol.y[1][1:]))
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
                    potential=None, residual_tol: float = 1e-6,
                    e_tol: float = 1e-9, max_iter: int = 40,
                    e_bound: float = 1e6, pole_threshold: float = 1e8) -> ShootingResult:
    """Secant refinement of the Wronskian mismatch starting from e_guess.

    Non-convergence (wild steps, |E| escaping e_bound, persistent poles) is
    reported in the result, never raised.  A pole at the default matching
    point triggers retries at x = +0.3 and x = -0.3.
    """
    match_points = (0.0,) if contour.waypoints is not None else (0.0, 0.3, -0.3)
    for mx in match_points:
        try:
            return _secant(coeffs, big_l, e_guess, contour, potential, mx,
                           residual_tol, e_tol, max_iter, e_bound, pole_threshold)
        except PoleError:
            continue
    return ShootingResult(energy=float(e_guess), wronskian_residual=math.inf,
                          iterations=0, converged=False)


def _secant(coeffs, big_l, e_guess, contour, potential, match_x,
            residual_tol, e_tol, max_iter, e_bound, pole_threshold):
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
        if abs(e1 - e0) <= e_tol * (1 + abs(e1)):
            step_converged = True
            break
    residual = abs(f1)
    return ShootingResult(energy=float(e1), wronskian_residual=float(residual),
                          iterations=iterations,
                          converged=bool(step_converged and residual <= residual_tol))
