import cmath
import dataclasses
import functools
import importlib.util
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from decadic import (
    Contour,
    ModelSpec,
    PoleError,
    PotentialCoeffs,
    find_eigenvalue,
    integrate_log_derivative,
    potential_coeffs,
    potential_eval,
    solve_coupled,
    solve_energies,
    solve_sturmian,
    sturmian_multiplet,
    verify_solution,
    wavefunction_eval,
    wronskian_mismatch,
)
from decadic import shooting
from decadic.wedges import sectors_for_degree

CBRT192 = 192 ** (1 / 3)
# the mirrored polyline of TestPoles and the bent pair of TestBentContour,
# whose endpoints are mirror images only up to the last bits
POLE_TEST_WAYPOINTS = (complex(-4, -0.5), complex(0, -1), complex(4, -0.5))
BENT_WAYPOINTS = (4 * cmath.exp(-2j * math.pi / 3), -0.5j, 4 * cmath.exp(-1j * math.pi / 3))
# halves of two legs, cut to one leg below |r| = 1.53
TWO_LEG_WAYPOINTS = (complex(-3, -0.5), complex(-1.5, -0.3), -0.5j, complex(1.5, -0.3),
                     complex(3, -0.5))


def reference_m2_n3():
    spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
    energy = CBRT192
    coeffs = potential_coeffs(spec, energy * energy / 4)
    h = [e for e in solve_energies(spec) if e.energy > 1][0].h
    return spec, energy, coeffs, h


@functools.cache
def validated_states():
    """(spec, energy, coeffs, h) of the reference state and of the four
    validated states that the shooting benchmark shoots, each the first
    multi-term solution that verify_solution accepts."""
    states = [reference_m2_n3()]
    for big_m, n, alpha, beta in ((1, 2, "3/4", "-3/4"), (1, 4, "7/8", "-7/8"),
                                  (2, 3, "1", "11/8"), (2, 4, "-7/8", "7/8")):
        spec = ModelSpec(alpha=Fraction(alpha), beta=Fraction(beta), big_m=big_m, n_states=n)
        if big_m == 1:
            result = solve_sturmian(spec)
            solutions = [(0.0, d, h) for d, h in zip(result.d_values, result.h_vectors)]
        else:
            solutions = [(e.energy, e.quadratic_coupling, e.h) for e in solve_energies(spec)]
        e, d, h = next((e, d, h) for e, d, h in solutions
                       if sum(1 for x in h if abs(x) > 1e-12) > 1
                       and verify_solution(spec, e, d, h).passed)
        states.append((spec, e, potential_coeffs(spec, d), h))
    return tuple(states)


class TestContourValidation:
    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            Contour(epsilon=0.0)
        with pytest.raises(ValueError):
            Contour(x_max=-1.0)
        for bad in ({"epsilon": math.inf}, {"epsilon": math.nan}, {"x_max": math.inf}):
            with pytest.raises(ValueError, match="must be positive and finite"):
                Contour(**bad)
        # below 2**-511 the match point's r^2 = -epsilon^2 is not a normal float
        with pytest.raises(ValueError, match=r"at least 2\*\*-511"):
            Contour(epsilon=1e-300)
        assert Contour(epsilon=2**-511).epsilon == 2**-511

    def test_waypoints_must_be_odd_polyline(self):
        with pytest.raises(ValueError):
            Contour(waypoints=(complex(-4, -1), complex(4, -1)))

    def test_waypoints_must_be_finite(self):
        # phase(inf) = 0 lies in a decay sector, so the sector test alone
        # does not stop an infinite endpoint
        for bad in ((-math.inf, 0, math.inf),
                    (complex(-4, -0.5), complex(0, math.nan), complex(4, -0.5))):
            with pytest.raises(ValueError, match="waypoints must be finite"):
                Contour(waypoints=bad)

    def test_waypoint_endpoints_must_sit_in_decay_sectors(self):
        good = Contour(waypoints=(4 * cmath.exp(-2j * math.pi / 3), -0.5j,
                                  4 * cmath.exp(-1j * math.pi / 3)))
        assert good.waypoints is not None
        with pytest.raises(ValueError):
            # pi/6 is a growth direction for exp(-r^6/6)
            Contour(waypoints=(4 * cmath.exp(1j * math.pi / 6), -0.5j,
                               4 * cmath.exp(-1j * math.pi / 3)))
        with pytest.raises(ValueError):
            # exactly on a sector boundary: open intervals exclude it
            Contour(waypoints=(4 * cmath.exp(1j * math.pi / 12), -0.5j,
                               4 * cmath.exp(-1j * math.pi / 3)))

    def test_waypoint_x_max_cuts_the_halves(self):
        # x_max was ignored on a waypoint contour: both halves started at
        # their ends, |r| = 4; epsilon has no effect on one
        contour = Contour(waypoints=BENT_WAYPOINTS, x_max=1.0, epsilon=7.0)
        halves = (contour.left_nodes(), contour.right_nodes())
        default_epsilon = Contour(waypoints=BENT_WAYPOINTS, x_max=1.0)
        assert halves == (default_epsilon.left_nodes(), default_epsilon.right_nodes())
        for half, end in zip(halves, (BENT_WAYPOINTS[0], BENT_WAYPOINTS[-1])):
            assert abs(abs(half[0]) - 1.0) <= 1e-15
            assert half[1:] == [BENT_WAYPOINTS[1]]
            sector, = (s for s in sectors_for_degree(3) if s.contains(cmath.phase(end)))
            assert sector.contains(cmath.phase(half[0]))
        # at |r| = 0.8 the path has left the end's sector; it never comes
        # within 0.4 of the origin
        with pytest.raises(ValueError, match="not strictly inside the decay sector"):
            Contour(waypoints=BENT_WAYPOINTS, x_max=0.8)
        with pytest.raises(ValueError, match="never comes within"):
            Contour(waypoints=BENT_WAYPOINTS, x_max=0.4)

    def test_default_contour_ends_must_sit_in_decay_sectors(self):
        # 1.5 - 0.5i lies at -0.322 rad, outside (-pi/12, pi/12); a shot
        # from 1.5 - i converged at E = 8.779, far from the exact 192^(1/3)
        with pytest.raises(ValueError, match="not strictly inside any decay sector"):
            Contour(epsilon=1.0, x_max=1.5)
        # 0.3 - 0.5i lies at -1.030 rad, inside the sector centred on -pi/3:
        # that start quantized on another pair's recipe
        with pytest.raises(ValueError, match="not strictly inside any decay sector"):
            Contour(epsilon=0.5, x_max=0.3)
        # the path transits at depth min(epsilon, 0.5), so the start lies in
        # the sector exactly when x_max > 0.5 / tan(pi/12) ~ 1.866
        assert 1.86 < 0.5 / math.tan(math.pi / 12) < 1.87
        for epsilon in (1.0, 8.0):
            with pytest.raises(ValueError, match="x_max must be above"):
                Contour(epsilon=epsilon, x_max=1.86)
            for x_max in (1.87, 3.9, 4.0):
                assert (Contour(epsilon=epsilon, x_max=x_max).right_nodes()
                        == [complex(x_max, -0.5), -0.5j])
        # at epsilon 1.2 and 8 the start once lay deeper than the sector
        # centred on 0 allows (raising), or in the one centred on -pi/3
        # (converging on another level); it now starts at 1.9 - 0.5i
        spec, _, coeffs, _ = reference_m2_n3()
        for epsilon in (1.2, 8.0):
            result = find_eigenvalue(coeffs, spec.angular_momentum, 5.5, Contour(epsilon=epsilon))
            assert result.converged
            assert abs(result.energy - CBRT192) <= 1e-9
            start = result.contour.right_nodes()[0]
            assert shooting._DECAY_SECTORS[0].contains(cmath.phase(start))

    def test_direction_validated(self):
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=1, n_states=1)
        coeffs = potential_coeffs(spec, 0.0)
        with pytest.raises(ValueError):
            integrate_log_derivative(coeffs, 0.5, 0.0, Contour(), "upward")


class TestIntegration:
    def test_exact_state_satisfies_ode_along_contour(self):
        # finite-difference oracle: sample the closed-form state on the
        # contour and check the radial equation residual directly
        spec, energy, coeffs, h = reference_m2_n3()
        big_l = float(spec.angular_momentum)
        eps, step = 0.5, 1e-3

        def psi(x):
            return wavefunction_eval(spec, h, complex(x, -eps))

        worst = 0.0
        for k in range(-30, 31):
            x = k * 0.05
            r = complex(x, -eps)
            d2 = (-psi(x - 2 * step) + 16 * psi(x - step) - 30 * psi(x)
                  + 16 * psi(x + step) - psi(x + 2 * step)) / (12 * step * step)
            vterm = (potential_eval(coeffs, r) + big_l * (big_l + 1) / (r * r)
                     - coeffs.f / (r * r) - energy) * psi(x)
            residual = abs(-d2 + vterm)
            scale = max(abs(d2), abs(vterm), 1e-30)
            worst = max(worst, residual / scale)
        assert worst <= 1e-8

    def test_start_matches_decaying_branch(self):
        # the start against the decaying branch itself: y integrated at rtol
        # 1e-13 onto the start node from -r^5 at R = 4, an error that the
        # path damps by hundreds of nats.  A start that took "outward" from
        # the first leg landed on the growing branch, y ~ +r^5
        coeffs = PotentialCoeffs(a=0.0, b=0.0, c=0.0, f=0.0, d=0.0)
        q = shooting._q_func(coeffs, 0.5, 1.0)
        for epsilon in (0.5, 0.75, 1.0):
            for direction in ("from_left", "from_right"):
                rs, ys = integrate_log_derivative(coeffs, 0.5, 1.0, Contour(epsilon=epsilon),
                                                  direction)
                r0 = rs[0]
                far = complex(math.copysign(4.0, r0.real), r0.imag)
                y_ref = shooting.solve_ivp(q.terms, far, r0, -far**5, 1e-13, 1e-13).y[-1]
                assert abs(ys[0] - y_ref) <= 1e-9 * abs(y_ref), (epsilon, direction)
                # decay radially outward
                assert (ys[0] * r0).real < 0, (epsilon, direction)

    def test_start_error_covers_runs_of_zero_coefficients(self):
        # at alpha = beta = 0, M = 2, d = 0 the start's coefficients c_6..c_9
        # vanish at every E (the E = 0 state r^(5/2) exp(-r^6/6) ends the
        # series at c_3).  Measured by its own three terms, that zero block
        # passed for convergence: err was 0 at every radius, and the scan at
        # E = 0.07 came down to R = 1.0 at epsilon 0.25, where the start was
        # off by 1e-4
        coeffs = potential_coeffs(ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3), 0.0)
        q = shooting._q_func(coeffs, 1.5, 0.07)
        # the decaying branch, integrated inward from -r^5 at R = 3, an error
        # that the path damps by over 100 nats before R = 1.9
        z = complex(-3.0, -0.25)
        y_ref = -z**5
        for x in (1.9, 1.6, 1.3, 1.0):
            r0 = complex(-x, -0.25)
            y_ref = shooting.solve_ivp(q.terms, z, r0, y_ref, 1e-13, 1e-13).y[-1]
            z = r0
            y, err = q.start(r0)
            assert abs(y - y_ref) <= err + 1e-12 * abs(y_ref), x
        assert shooting._start_radius(q, Contour(epsilon=0.25), shooting._RTOL) > 1.5

    def test_samples_cover_the_path(self):
        # a given x_max is used as given, also beyond the largest derived one
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=1, n_states=1)
        coeffs = potential_coeffs(spec, 0.0)
        for x_max in (4.0, 8.0):
            rs, ys = integrate_log_derivative(coeffs, 0.5, 0.0, Contour(x_max=x_max),
                                              "from_right")
            assert rs[0] == complex(x_max, -0.5)
            assert rs[-1] == complex(0.0, -0.5)
            assert len(rs) == len(ys) > 10


class TestStartRadius:
    """A Contour without x_max starts where the decadic asymptotics already
    hold: inside a decay sector, and far enough out that the start error is
    damped below the integration tolerance before the matching point."""

    @pytest.mark.parametrize("contour", [
        Contour(epsilon=0.25), Contour(epsilon=0.5), Contour(epsilon=1.0),
        Contour(waypoints=BENT_WAYPOINTS), Contour(waypoints=POLE_TEST_WAYPOINTS)],
        ids=["0.25", "0.5", "1.0", "bent", "waypoints"])
    def test_derived_default_radius(self, contour):
        spec, energy, coeffs, _ = reference_m2_n3()
        big_l = spec.angular_momentum
        q = shooting._q_func(coeffs, big_l, energy)
        radius = shooting._start_radius(q, contour, shooting._RTOL)
        assert radius < 4.0
        shot = dataclasses.replace(contour, x_max=radius)
        for direction, half in (("from_left", shot.left_nodes()),
                                ("from_right", shot.right_nodes())):
            rs, _ = integrate_log_derivative(coeffs, big_l, energy, contour, direction)
            assert rs[0] == half[0]
            if contour.waypoints is None:
                end = half[0]  # the default contour starts at its end
            else:
                # a waypoint half starts on |r| = R, in the sector of its
                # given end
                end = contour.waypoints[0 if direction == "from_left" else -1]
                assert abs(abs(rs[0]) - radius) <= 1e-15 * radius
            sector, = (s for s in sectors_for_degree(3) if s.contains(cmath.phase(end)))
            assert sector.contains(cmath.phase(rs[0]))
            # the start's own error, damped by the path, is within rtol
            _, err = q.start(half[0])
            assert err * math.exp(-shooting._dampings(q, [half])[0]) <= shooting._RTOL
        # find_eigenvalue derives it once, at e_guess, and reports it.  On
        # the pole test's polyline the integrated y misses the closed form
        # at -i by 4e-3 (1e-2 with the waypoints as given), so the search
        # does not settle there
        result = find_eigenvalue(coeffs, big_l, energy, contour)
        assert result.converged == (contour.waypoints != POLE_TEST_WAYPOINTS)
        assert result.contour == shot

    @staticmethod
    def potentials():
        """The Q of each of validated_states()."""
        return [shooting._q_func(coeffs, spec.angular_momentum, energy)
                for spec, energy, coeffs, _ in validated_states()]

    @staticmethod
    def default_nodes(sign, x_max, epsilon):
        # the nodes of Contour(epsilon, x_max)'s half, also where its start
        # lies outside every decay sector, so that Contour rejects it
        depth = min(epsilon, shooting._TRANSIT_DEPTH)
        return [complex(sign * x_max, -depth), complex(0.0, -depth)]

    @pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.0])
    def test_mirror_halves_damp_alike(self, monkeypatch, epsilon):
        # at match point 0 and a real energy the right half's damping and
        # start error are the left half's bit for bit (its start value is
        # -conj of the left one), so the scan that integrates the left half
        # only derives the radius of the scan that integrates both
        for q in self.potentials():
            for k in range(30):
                x_max = round(4.0 - k * 0.1, 10)
                left, right = (self.default_nodes(sign, x_max, epsilon) for sign in (-1.0, 1.0))
                assert (shooting._dampings(q, [left])[0]
                        == shooting._dampings(q, [right])[0]), (epsilon, x_max)
                y, err = q.start(left[0])
                assert q.start(right[0]) == (-y.conjugate(), err), (epsilon, x_max)
            radius = shooting._start_radius(q, Contour(epsilon), shooting._RTOL)
            with monkeypatch.context() as patched:
                patched.setattr(shooting, "_mirrored", lambda *args: False)
                assert shooting._start_radius(q, Contour(epsilon), shooting._RTOL) == radius

    def test_mirror_scan_integrates_one_half(self, monkeypatch):
        # the scan damps the integrated halves of all its trials in one
        # batch: one half per trial, the left one, on a mirror contour at a
        # real energy, and both halves otherwise
        batches = []
        dampings = shooting._dampings

        def recording_dampings(q, paths):
            batches.append(paths)
            return dampings(q, paths)

        monkeypatch.setattr(shooting, "_dampings", recording_dampings)
        spec, energy, coeffs, _ = reference_m2_n3()
        mirror = Contour(waypoints=POLE_TEST_WAYPOINTS)
        for contour, e, halves in (
                (Contour(0.5), energy, 1), (Contour(0.5), complex(energy, 0.01), 2),
                (mirror, energy, 1), (mirror, complex(energy, 0.01), 2)):
            batches.clear()
            q = shooting._q_func(coeffs, spec.angular_momentum, e)
            shooting._start_radius(q, contour, shooting._RTOL)
            paths, = batches
            # the trials are every R from 3.9 down whose starts lie in their
            # sectors; a trial's two starts lie at one |r|, mirror images of
            # each other
            trials = []
            for k in range(1, 40):
                try:
                    dataclasses.replace(contour, x_max=round(4.0 - k * 0.1, 10))
                except ValueError:
                    break
                trials.append(k)
            assert len(trials) > 5, (contour, e)
            assert len(paths) == halves * len(trials), (contour, e)
            radii = [abs(path[0]) for path in paths]
            assert len(set(radii)) == len(trials), (contour, e)
            assert all(radii.count(r) == halves for r in radii), (contour, e)
            assert all(path[0].real < 0 for path in paths[::halves]), (contour, e)

    def test_given_contours_used_as_given(self):
        spec, energy, coeffs, _ = reference_m2_n3()
        # both bent ends lie within |r| = 4, so x_max = 4 cuts neither half
        bent = Contour(waypoints=BENT_WAYPOINTS, x_max=4.0)
        w0, w1, w2 = BENT_WAYPOINTS
        assert (bent.left_nodes(), bent.right_nodes()) == ([w0, w1], [w2, w1])
        for contour in (Contour(x_max=3.0), bent):
            result = find_eigenvalue(coeffs, spec.angular_momentum, 5.6, contour, max_iter=1)
            assert result.contour is contour

    def test_unresolved_contour_has_no_nodes(self):
        with pytest.raises(ValueError, match="only a contour with x_max has nodes"):
            Contour().left_nodes()

    @pytest.mark.parametrize("epsilon", [0.75, 1.0, 1.2, 8.0])
    def test_deep_contour_shoots_the_transit_contour(self, monkeypatch, epsilon):
        # a contour deeper than the transit depth 0.5 is the epsilon = 0.5
        # one: the same halves, the same derived radius and the same shot,
        # bit for bit, with no stiff leg down to -i*epsilon: 5 integrated
        # legs per shot (3 at _LOOSE_RTOL, 2 at _RTOL), where a vertical
        # first leg and the secant made 14
        spec, _, coeffs, _ = reference_m2_n3()
        big_l = spec.angular_momentum
        for x_max in (1.9, 4.0):
            deep, transit = Contour(epsilon, x_max), Contour(0.5, x_max)
            assert deep.left_nodes() == transit.left_nodes()
            assert deep.right_nodes() == transit.right_nodes()
        q = shooting._q_func(coeffs, big_l, 5.5)
        assert shooting._start_radius(q, Contour(epsilon), shooting._RTOL) == 1.9
        assert shooting._start_radius(q, Contour(0.5), shooting._RTOL) == 1.9
        calls = []
        solve_ivp = shooting.solve_ivp

        def counting_solve_ivp(terms, z0, z1, y0, rtol, atol, u0):
            calls.append(rtol)
            return solve_ivp(terms, z0, z1, y0, rtol, atol, u0)

        monkeypatch.setattr(shooting, "solve_ivp", counting_solve_ivp)
        transit = find_eigenvalue(coeffs, big_l, 5.5, Contour(0.5))
        calls.clear()
        deep = find_eigenvalue(coeffs, big_l, 5.5, Contour(epsilon))
        assert calls == [shooting._LOOSE_RTOL] * 3 + [shooting._RTOL] * 2
        assert ((deep.energy, deep.wronskian_residual, deep.iterations, deep.converged)
                == (transit.energy, transit.wronskian_residual, transit.iterations, True))
        assert deep.contour == Contour(epsilon, 1.9)


def scalar_damping(q, nodes):
    """The damping of one path node by node in cmath, as _start_radius took
    it before it damped every trial in one array pass: the oracle of
    shooting._dampings."""
    s = cmath.sqrt(q(nodes[0]))
    if (s * nodes[0]).real < 0:
        s = -s
    total = 0j
    for z0, z1 in zip(nodes[:-1], nodes[1:]):
        step = (z1 - z0) / (shooting._DAMPING_NODES - 1)
        for k in range(1, shooting._DAMPING_NODES):
            s_next = cmath.sqrt(q(z0 + k * step))
            if (s_next * s.conjugate()).real < 0:
                s_next = -s_next
            total += (s + s_next) * step
            s = s_next
    return -total.real


def scalar_start_radius(q, contour, rtol):
    """(radius, margin): the scan one trial Contour at a time, with q.start
    and scalar_damping on each integrated half, as _start_radius ran it
    before its array pass; margin is the smallest distance in nats between
    the threshold and a finite damped error of the trials it evaluated."""
    log_rtol = math.log(max(rtol, shooting._RTOL_FLOOR))
    if contour.waypoints is None:
        radius = 4.0
    else:
        radius = max(abs(contour.waypoints[0]), abs(contour.waypoints[-1]))
    margin = math.inf
    for k in range(1, 40):
        x_max = round(4.0 - k * 0.1, 10)
        try:
            trial = dataclasses.replace(contour, x_max=x_max)
        except ValueError:
            break
        left, right = trial.left_nodes(), trial.right_nodes()
        damped = []
        for half in [left] if shooting._mirrored(q, left, right) else [left, right]:
            _, err = q.start(half[0])
            damped.append((math.log(err) if err else -math.inf) - scalar_damping(q, half))
        margin = min([margin] + [abs(d - log_rtol) for d in damped if math.isfinite(d)])
        if not all(d <= log_rtol for d in damped):
            break
        radius = x_max
    return radius, margin


class TestStartRadiusOracle:
    """_start_radius takes every trial radius in one array pass; it derives
    the radius of the scan that took them one at a time (scalar_start_radius)
    on every case here, none of them within 1e-6 nats of the threshold, so
    that a platform's last-bit difference cannot flip one unnoticed."""

    @staticmethod
    def census_states():
        """(spec, E, d) of the census test's subset (tests/test_shot_census.py)."""
        path = Path(__file__).resolve().parent.parent / "tools" / "shot_census.py"
        spec = importlib.util.spec_from_file_location("shot_census", path)
        census = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(census)
        found, _ = census.states(("1", "2.25"), ("-3", "2.25"), ((1, 4), (2, 4), (3, 4)))
        return found

    @staticmethod
    def assert_same_radius(cases):
        for label, coeffs, big_l, energy, contour in cases:
            # separate potentials, so that neither scan extends the other's
            # series coefficients
            radius = shooting._start_radius(shooting._q_func(coeffs, big_l, energy), contour,
                                            shooting._RTOL)
            expected, margin = scalar_start_radius(shooting._q_func(coeffs, big_l, energy),
                                                   contour, shooting._RTOL)
            assert radius == expected, label
            assert margin > 1e-6, label

    def test_workload_and_reference_contours(self):
        spec, energy, coeffs, _ = reference_m2_n3()
        big_l = spec.angular_momentum
        cases = [(f"reference {e} {contour}", coeffs, big_l, e, contour)
                 for e in (5.5, 5.6, energy, complex(5.5, 0.01), complex(5.7, -0.3))
                 for contour in (Contour(0.25), Contour(0.5), Contour(1.0),
                                 Contour(waypoints=BENT_WAYPOINTS),
                                 Contour(waypoints=POLE_TEST_WAYPOINTS),
                                 Contour(waypoints=TWO_LEG_WAYPOINTS))]
        # the default contour's halves matched off centre, with the starts
        # at x_max as given or cut further in
        cases += [(f"shifted {x} {x_max} {e}", coeffs, big_l, e,
                   Contour(waypoints=(complex(-x_max, -0.5), complex(x, -0.5),
                                      complex(x_max, -0.5))))
                  for x in (0.3, -0.3) for x_max in (1.9, 4.0)
                  for e in (5.5, complex(5.5, 0.01))]
        # the shooting benchmark's states, from every offset it may deal
        cases += [(f"state {state} {e}", state_coeffs, state.angular_momentum, e, Contour())
                  for state, state_e, state_coeffs, _ in validated_states()[1:]
                  for offset in (0.02, 0.03, 0.04, 0.05)
                  for e in (state_e - offset, state_e + offset)]
        self.assert_same_radius(cases)

    def test_census_subset(self):
        cases = []
        for spec, energy, coupling in self.census_states():
            coeffs = potential_coeffs(spec, coupling)
            cases += [(f"{spec} {energy} {offset} {epsilon}", coeffs, spec.angular_momentum,
                       energy + offset, Contour(epsilon))
                      for offset in (0.05, -0.05) for epsilon in (0.25, 0.5, 1.0)]
        assert len(cases) == 168
        self.assert_same_radius(cases)

    def test_dampings_and_errors_match_the_scalar_ones(self):
        # the batch sums in another order, and numpy divides complex
        # numbers its own way, so it agrees with the scalar values to
        # rounding, not bit for bit
        spec, _, coeffs, _ = reference_m2_n3()
        q = shooting._q_func(coeffs, spec.angular_momentum, 5.5)
        paths = [Contour(0.25, x_max).left_nodes() for x_max in (3.9, 2.5, 1.0)]
        paths += [[complex(-2, -0.5), complex(0.3, -0.5)],
                  Contour(waypoints=BENT_WAYPOINTS, x_max=1.9).right_nodes(),
                  Contour(waypoints=TWO_LEG_WAYPOINTS, x_max=2.5).left_nodes(),
                  Contour(waypoints=TWO_LEG_WAYPOINTS, x_max=1.4).right_nodes()]
        # the one-leg paths are padded to two legs
        assert [len(path) for path in paths] == [2, 2, 2, 2, 2, 3, 2]
        for path, damping in zip(paths, shooting._dampings(q, paths)):
            expected = scalar_damping(q, path)
            assert abs(damping - expected) <= 1e-12 * (1 + abs(expected))
        starts = np.array([path[0] for path in paths])
        errors, stopped = q.start.errors(starts, 96)
        assert stopped.all()
        for r, err in zip(starts, errors):
            expected = q.start(r)[1]
            assert abs(err - expected) <= 1e-12 * expected

    def test_overflow_fails_the_trials_quietly(self):
        # a waypoint half that detours to |r| = 2e31, where Q overflows,
        # on every trial from 3.9 down to its end at |r| = 3.04: the first
        # trial fails (with no RuntimeWarning, which would raise here), so
        # the scan keeps the waypoints as given
        spec, energy, coeffs, _ = reference_m2_n3()
        far = complex(-2e31, -0.5)
        detour = Contour(waypoints=(complex(-3, -0.5), far, -0.5j, -far.conjugate(),
                                    complex(3, -0.5)))
        q = shooting._q_func(coeffs, spec.angular_momentum, 5.5)
        assert not cmath.isfinite(q(far / 2))
        for e in (5.5, complex(5.5, 0.01)):
            q = shooting._q_func(coeffs, spec.angular_momentum, e)
            assert shooting._start_radius(q, detour, shooting._RTOL) == abs(complex(3, -0.5))
        # a potential whose series coefficients overflow past the first few
        # blocks: the scalar scan summed no further than those, and derived
        # R = 1.9; the batch stops its sums before the overflowing block
        huge = PotentialCoeffs(a=1e20, b=0.0, c=0.0, f=0.0, d=0.0)
        self.assert_same_radius([("huge a", huge, 0.5, 1.0, Contour(0.5))])
        q = shooting._q_func(huge, 0.5, 1.0)
        assert shooting._start_radius(q, Contour(0.5), shooting._RTOL) == 1.9


class TestClosedFormOracle:
    """The integrated log-derivative against the closed form of the
    reference state, y = psi'/psi with psi from wavefunction_eval:

        y(r) = -(r^5 + alpha r^3 + beta r) + sum h_n (2n - L) r^(2n-L-1) / sum h_n r^(2n-L).

    RTOL is fixed here, before any run.  The start must lie within
    RTOL * (1 + |y_exact|) of the closed form; once an accepted node does,
    every later node must stay there, and the matching point must be
    reached within it."""

    RTOL = 1e-9

    @staticmethod
    def closed_form(spec, h, r):
        big_l = float(spec.angular_momentum)
        alpha, beta = float(spec.alpha), float(spec.beta)
        num = sum(float(hn) * (2 * n - big_l) * r ** (2 * n - big_l - 1) for n, hn in enumerate(h))
        den = sum(float(hn) * r ** (2 * n - big_l) for n, hn in enumerate(h))
        return -(r**5 + alpha * r**3 + beta * r) + num / den

    def failures(self, contour, state=None):
        """The checks the integrated halves of the state (spec, energy,
        coeffs, h), by default the reference state, fail, as readable
        strings."""
        spec, energy, coeffs, h = state or reference_m2_n3()
        failed = []
        for direction in ("from_left", "from_right"):
            rs, ys = integrate_log_derivative(coeffs, spec.angular_momentum, energy, contour,
                                              direction)
            exact = [self.closed_form(spec, h, r) for r in rs]
            errors = [abs(y - ye) / (1 + abs(ye)) for y, ye in zip(ys, exact)]
            if not errors[0] <= self.RTOL:
                failed.append(f"{direction}: start error {errors[0]:.2e}")
            settled = next((k for k, e in enumerate(errors) if e <= self.RTOL), len(errors))
            if settled == len(errors):
                failed.append(f"{direction}: error {errors[-1]:.2e} at the matching point")
            worst = max(errors[settled:], default=0.0)
            if not worst <= self.RTOL:
                failed.append(f"{direction}: error {worst:.2e} after settling")
        return failed

    def test_closed_form_is_psi_prime_over_psi(self):
        spec, _, _, h = reference_m2_n3()
        step = 1e-4

        def psi(r):
            return wavefunction_eval(spec, h, r)

        for r in (complex(1.3, -0.5), complex(-2, -0.25), complex(0.4, -1), complex(3, -0.7)):
            fd = (-psi(r + 2 * step) + 8 * psi(r + step) - 8 * psi(r - step)
                  + psi(r - 2 * step)) / (12 * step * psi(r))
            exact = self.closed_form(spec, h, r)
            # the five-point stencil's own error at this step is about 1e-8
            assert abs(fd - exact) <= 1e-7 * (1 + abs(exact))

    @pytest.mark.parametrize("contour", [
        Contour(epsilon=0.25), Contour(epsilon=0.5), Contour(epsilon=1.0),
        Contour(waypoints=BENT_WAYPOINTS)], ids=["eps0.25", "eps0.5", "eps1", "bent"])
    def test_integrated_log_derivative_matches(self, contour):
        assert self.failures(contour) == []

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_validated_states_match_on_the_derived_contour(self, index):
        state = validated_states()[index]
        assert self.failures(Contour(), state) == []

    def test_too_small_radius_fails(self):
        # at R = 1.2, epsilon = 0.25 the start's series has passed its
        # smallest term at 7e-5 and the path damps it by 5 nats, so the
        # budget rejects R (the derived radius is 1.5), and the shot misses
        # the closed form
        spec, energy, coeffs, _ = reference_m2_n3()
        q = shooting._q_func(coeffs, spec.angular_momentum, energy)
        contour = Contour(epsilon=0.25, x_max=1.2)
        assert shooting._start_radius(q, Contour(epsilon=0.25), shooting._RTOL) == 1.5
        for half in (contour.left_nodes(), contour.right_nodes()):
            _, err = q.start(half[0])
            assert err * math.exp(-shooting._dampings(q, [half])[0]) > shooting._RTOL
        assert self.failures(contour) != []


class TestMismatch:
    def test_zero_at_exact_eigenvalue(self):
        spec, energy, coeffs, _ = reference_m2_n3()
        m = wronskian_mismatch(coeffs, spec.angular_momentum, energy, Contour())
        assert abs(m) <= 1e-6

    def test_bounded_away_off_eigenvalue(self):
        spec, energy, coeffs, _ = reference_m2_n3()
        m = wronskian_mismatch(coeffs, spec.angular_momentum, energy + 1.0, Contour())
        assert abs(m) >= 0.01

    def test_continuous_in_energy(self):
        spec, energy, coeffs, _ = reference_m2_n3()
        grid = [4.8 + 0.2 * k for k in range(9)]
        values = [wronskian_mismatch(coeffs, spec.angular_momentum, e, Contour())
                  for e in grid]
        assert all(math.isfinite(v) for v in values)
        steps = [abs(b - a) for a, b in zip(values, values[1:])]
        assert max(steps) < 0.5
        # the root is bracketed inside the grid
        assert min(values) < 0 < max(values)


class TestMirrorHalf:
    """On a PT-mirror contour (r -> -conj(r)) with real coefficients and a
    real energy, wronskian_mismatch integrates the left half only and takes
    the right log-derivative as -conj of the left one."""

    @staticmethod
    def two_half_mismatch(coeffs, big_l, energy, contour):
        _, ys_l = integrate_log_derivative(coeffs, big_l, energy, contour, "from_left")
        _, ys_r = integrate_log_derivative(coeffs, big_l, energy, contour, "from_right")
        yl, yr = ys_l[-1], ys_r[-1]
        return float(((yl - yr) / (1 + abs(yl) + abs(yr))).real)

    @pytest.mark.parametrize("contour", [
        Contour(epsilon=0.25), Contour(epsilon=0.5), Contour(epsilon=1.0),
        Contour(waypoints=POLE_TEST_WAYPOINTS)], ids=["eps0.25", "eps0.5", "eps1", "waypoints"])
    @pytest.mark.parametrize("energy", [5.5, CBRT192], ids=["E5.5", "E_exact"])
    def test_equals_two_half_mismatch_bit_for_bit(self, contour, energy):
        spec, _, coeffs, _ = reference_m2_n3()
        big_l = spec.angular_momentum
        assert (wronskian_mismatch(coeffs, big_l, energy, contour)
                == self.two_half_mismatch(coeffs, big_l, energy, contour))

    def test_integrates_both_halves_only_off_the_mirror(self, monkeypatch):
        calls = []
        solve_ivp = shooting.solve_ivp

        def counting_solve_ivp(*args, **kwargs):
            calls.append(1)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(shooting, "solve_ivp", counting_solve_ivp)
        spec, energy, coeffs, _ = reference_m2_n3()
        big_l = spec.angular_momentum
        # one solve_ivp call per straight segment of each integrated half:
        # the bent pair is no exact mirror, and at a complex energy
        # Q(-conj r) = conj Q(r) fails
        cases = [(Contour(), energy, 1), (Contour(waypoints=POLE_TEST_WAYPOINTS), energy, 1),
                 (Contour(waypoints=BENT_WAYPOINTS), energy, 2),
                 (Contour(), complex(energy, 0.01), 2)]
        for contour, e, expected in cases:
            calls.clear()
            wronskian_mismatch(coeffs, big_l, e, contour)
            assert len(calls) == expected, (contour, e)


class TestScalarDop853:
    """shooting.solve_ivp is scipy's DOP853 on one complex scalar; scipy's own
    solve_ivp on the [re, im] state of the same Riccati leg is the reference."""

    @staticmethod
    def legs(contour, direction, energy):
        """The Q of the reference state, the straight legs (z0, z1) of one
        contour half and the start value at its far end."""
        spec, _, coeffs, _ = reference_m2_n3()
        q = shooting._q_func(coeffs, spec.angular_momentum, energy)
        nodes = contour.left_nodes() if direction == "from_left" else contour.right_nodes()
        return q, list(zip(nodes[:-1], nodes[1:])), q.start(nodes[0])[0]

    @staticmethod
    def riccati(q, z0, z1):
        """The leg's right-hand side in t, with the guard of the generated step."""
        dr = z1 - z0

        def rhs(t, y):
            return dr * (q(z0 + t * dr) - y * y) if abs(y) <= 1e100 else 0j

        return rhs

    @staticmethod
    def scipy_dop853(rhs, y0):
        from scipy.integrate import solve_ivp

        def real_rhs(t, state):
            dy = rhs(t, complex(state[0], state[1]))
            return [dy.real, dy.imag]

        def blowup(t, state):
            return math.hypot(state[0], state[1]) - 1e8

        blowup.terminal = True
        blowup.direction = 1.0
        return solve_ivp(real_rhs, (0.0, 1.0), [y0.real, y0.imag], method="DOP853",
                         rtol=1e-10, atol=1e-10, events=blowup)

    # x_max = 4, so that the comparison covers the stiff outer stretch
    @pytest.mark.parametrize("contour", [
        Contour(epsilon=0.25, x_max=4.0), Contour(epsilon=0.5, x_max=4.0),
        Contour(epsilon=1.0, x_max=4.0),
        Contour(waypoints=BENT_WAYPOINTS)], ids=["eps0.25", "eps0.5", "eps1", "bent"])
    @pytest.mark.parametrize("direction", ["from_left", "from_right"])
    @pytest.mark.parametrize("energy", [5.5, CBRT192], ids=["E5.5", "E_exact"])
    def test_matches_scipy_dop853(self, contour, direction, energy):
        q, legs, y0 = self.legs(contour, direction, energy)
        for z0, z1 in legs:
            ours = shooting.solve_ivp(q.terms, z0, z1, y0, 1e-10, 1e-10)
            ref = self.scipy_dop853(self.riccati(q, z0, z1), y0)
            # a return from ours means that it reached t = 1
            assert ref.status == 0
            steps, ref_steps = len(ours.t) - 1, len(ref.t) - 1
            assert abs(steps - ref_steps) <= 0.01 * ref_steps
            assert ours.nfev > steps
            y_ref = complex(ref.y[0][-1], ref.y[1][-1])
            assert abs(ours.y[-1] - y_ref) <= 1e-9 * abs(y_ref)
            # both integrators start the next leg from the same value
            y0 = ours.y[-1]

    def test_y_does_not_depend_on_u(self):
        # u = dy/dE rides along: the steps, the values and the count of
        # right-hand sides are those of u0 = 0 for every u0
        q, legs, y0 = self.legs(Contour(epsilon=0.5, x_max=4.0), "from_left", 5.5)
        (z0, z1), = legs
        runs = [shooting.solve_ivp(q.terms, z0, z1, y0, rtol, 1e-10, u0)
                for rtol in (1e-10, 1e-5) for u0 in (0j, -0.5 / y0, complex(1e3, -1e3))]
        for plain, *carried in (runs[:3], runs[3:]):
            for sol in carried:
                assert (sol.t, sol.nfev) == (plain.t, plain.nfev)
                assert TestGeneratedStep.bits(sol.y) == TestGeneratedStep.bits(plain.y)

    def test_non_finite_start_raises_at_once(self):
        # terms that cannot be unpacked: a leg that were integrated before
        # the checks would raise TypeError instead
        terms, z0, z1 = None, complex(-4, -0.5), complex(0, -0.5)
        for y0 in (complex(math.nan, 0), complex(0, math.inf)):
            with pytest.raises(ValueError, match="y0 must be finite"):
                shooting.solve_ivp(terms, z0, z1, y0, 1e-10, 1e-10)
        for atol in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="atol"):
                shooting.solve_ivp(terms, z0, z1, 1j, 1e-10, atol)
        with pytest.raises(ValueError, match="rtol"):
            shooting.solve_ivp(terms, z0, z1, 1j, math.nan, 1e-10)

    def test_import_leaves_scipy_integrate_unloaded(self, capsys):
        # the step is generated from the tableau on the first integration
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, decadic; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        # and a shot runs where every scipy import raises ImportError
        argv = ["shoot", "-M", "2", "-N", "3", "--d", "8.320335292207618", "--e-guess", "5.5",
                "--epsilon", "0.25"]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; sys.modules['scipy'] = None\n"
             f"from decadic import cli; sys.exit(cli.main({argv!r}))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        from decadic import cli
        assert cli.main(argv) == 0
        assert json.loads(proc.stdout) == json.loads(capsys.readouterr().out)

    def test_pole_status_and_location(self):
        # psi of the reference state vanishes at the zero of its polynomial
        # part nearest 0.2836 - 1.0585i, where y = psi'/psi has a simple
        # pole; a vertical leg from the closed-form y crosses it
        spec, energy, coeffs, h = reference_m2_n3()
        roots = np.roots([float(hn) for hn in reversed(h)])  # in r^2
        zero = min((s * cmath.sqrt(w) for w in roots for s in (1, -1)),
                   key=lambda z: abs(z - complex(0.2836, -1.0585)))
        z0, z1 = complex(zero.real, -0.7), complex(zero.real, -1.4)
        q = shooting._q_func(coeffs, spec.angular_momentum, energy)
        y0 = TestClosedFormOracle.closed_form(spec, h, z0)
        with pytest.raises(shooting.PoleError) as info:
            shooting.solve_ivp(q.terms, z0, z1, y0, 1e-10, 1e-10)
        # |y| = 1e8 lies about 1e-8 from the zero
        t_pole = ((info.value.location - z0) / (z1 - z0)).real
        assert t_pole == pytest.approx(((zero - z0) / (z1 - z0)).real, abs=1e-6)


class TestGeneratedStep:
    """The straight-line step of shooting._dop853 gives, bit for bit, what a
    loop over scipy's tableau gives with the Riccati right-hand side called
    once per stage, and u = dy/dE what the same loop gives with the
    variational right-hand side dr * (-1 - 2 y u) beside it."""

    @staticmethod
    def looped_step(rhs, slope_rhs, t, h, t_new, y, f, u):
        from scipy.integrate import DOP853

        def combination(stages, weights):
            total = 0j
            for j, w in enumerate(weights):
                if w:
                    total += stages[j] * float(w)
            return total

        k, v = [f], [slope_rhs(y, u)]
        for s in range(1, DOP853.n_stages):
            y_s = y + combination(k, DOP853.A[s, :s]) * h
            u_s = u + combination(v, DOP853.A[s, :s]) * h
            k.append(rhs(t + float(DOP853.C[s]) * h, y_s))
            v.append(slope_rhs(y_s, u_s))
        y_new = y + h * combination(k, DOP853.B)
        u_new = u + h * combination(v, DOP853.B)
        k.append(rhs(t_new, y_new))
        return (y_new, k[-1], combination(k, DOP853.E3), combination(k, DOP853.E5), u_new)

    def test_tableau_is_scipys(self):
        # every entry shooting keeps, zeros included, so that a moved or
        # dropped zero fails
        from scipy.integrate import DOP853

        def hexes(values):
            return [float(v).hex() for v in values]

        ours = shooting._Tableau
        n = DOP853.n_stages
        assert ours.n_stages == n == 12
        assert [hexes(row) for row in ours.A] == [hexes(DOP853.A[s, :s]) for s in range(n)]
        assert hexes(ours.C) == hexes(DOP853.C[:n])
        for name in ("B", "E3", "E5"):
            assert hexes(getattr(ours, name)) == hexes(getattr(DOP853, name)), name

    @staticmethod
    def bits(values):
        # float.hex tells -0.0 from 0.0, which == does not
        return [(z.real.hex(), z.imag.hex()) for z in values]

    def assert_same_steps(self, q, z0, z1, points):
        """Compares the steps (t, h, y) of the leg, with u = -1/(2y) (the
        start's) and u = 0; returns how many stage values of the loop fell
        outside the guard |y| <= 1e100."""
        rhs, step = shooting._dop853()(z0, z1 - z0, *q.terms)
        riccati = TestScalarDop853.riccati(q, z0, z1)
        dr = z1 - z0
        guarded = []

        def reference(t, y):
            if not abs(y) <= 1e100:
                guarded.append(y)
            return riccati(t, y)

        def slope_reference(y, u):
            return -2 * dr * (y * u) - dr if abs(y) <= 1e100 else 0j

        for t, h, y in points:
            t_new = t + h
            f = rhs(t, y)
            assert self.bits([f]) == self.bits([reference(t, y)])
            steps = []
            for u in (-0.5 / y if y else 0j, 0j):
                counted = len(guarded)
                ours = step(t, t_new - t, t_new, y, f, u)
                looped = self.looped_step(reference, slope_reference, t, t_new - t, t_new, y, f, u)
                assert self.bits(ours) == self.bits(looped), (t, h, y, u)
                steps.append(ours[:4])
            # the y outputs do not depend on u; the second loop's stages are
            # the first one's
            assert self.bits(steps[0]) == self.bits(steps[1])
            del guarded[counted:]
        return len(guarded)

    @pytest.mark.parametrize("contour", [
        Contour(epsilon=0.25, x_max=4.0), Contour(epsilon=1.0, x_max=4.0),
        Contour(waypoints=BENT_WAYPOINTS)], ids=["eps0.25", "eps1", "bent"])
    def test_accepted_and_rejected_steps(self, contour):
        # the accepted steps of each leg from the stiff outer end inward, and
        # steps twice as long, which the step control would reject
        q, legs, y0 = TestScalarDop853.legs(contour, "from_left", 5.5)
        for z0, z1 in legs:
            sol = shooting.solve_ivp(q.terms, z0, z1, y0, 1e-10, 1e-10)
            points = [(t, scale * (t_next - t), y)
                      for t, t_next, y in list(zip(sol.t, sol.t[1:], sol.y))[::7]
                      for scale in (1, 2)]
            self.assert_same_steps(q, z0, z1, points)
            y0 = sol.y[-1]

    def test_guard_branch(self):
        # stage values beyond |y| = 1e100 take the guard's 0j, as does a
        # start value beyond it or a NaN
        q, legs, _ = TestScalarDop853.legs(Contour(epsilon=0.5, x_max=4.0), "from_left", 5.5)
        (z0, z1), = legs
        points = [(0.25, h, complex(1e49, s * 1e49)) for h in (1e-3, 1e-2, 0.5) for s in (1, -1)]
        points += [(0.5, 1e-3, complex(1e101, 0)), (0.0, 1e-2, complex(math.nan, 1)),
                   (0.75, 1e-4, complex(-1e99, 1e99))]
        assert self.assert_same_steps(q, z0, z1, points) > len(points)


class TestFindEigenvalue:
    def test_sturmian_state_recovered_at_zero_energy(self):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        coeffs = potential_coeffs(spec, -4.0)
        result = find_eigenvalue(coeffs, spec.angular_momentum, 0.3, Contour())
        assert result.converged
        assert abs(result.energy) <= 1e-6

    def test_x_max_robustness(self):
        spec, energy, coeffs, _ = reference_m2_n3()
        e4 = find_eigenvalue(coeffs, spec.angular_momentum, 5.76, Contour(x_max=4.0))
        e8 = find_eigenvalue(coeffs, spec.angular_momentum, 5.76, Contour(x_max=8.0))
        assert e4.converged and e8.converged
        assert abs(e4.energy - e8.energy) <= 1e-7

    @staticmethod
    def recording(monkeypatch, mismatch=None):
        """Records (energy, rtol) of every mismatch the search evaluates,
        through mismatch(energy, rtol) -> (g, g') in place of
        _mismatch_and_slope, or through the real one."""
        evaluations = []
        real = shooting._mismatch_and_slope

        def recorded(q, contour, rtol, atol):
            energy = q.terms[-1].real
            evaluations.append((energy, rtol))
            if mismatch is None:
                return real(q, contour, rtol, atol)
            return mismatch(energy, rtol)

        monkeypatch.setattr(shooting, "_mismatch_and_slope", recorded)
        return evaluations

    @staticmethod
    def assert_tightened_once(evaluations, result):
        # loose first, one switch to _RTOL, never undone, at least two _RTOL
        # evaluations, and the last correction within _E_TOL
        rtols = [rtol for _, rtol in evaluations]
        loose = rtols.count(shooting._LOOSE_RTOL)
        assert loose >= 2
        assert rtols == [shooting._LOOSE_RTOL] * loose + [shooting._RTOL] * (len(rtols) - loose)
        assert len(rtols) - loose >= 2
        assert len(rtols) == result.iterations
        last = evaluations[-1][0]
        assert abs(result.energy - last) <= shooting._E_TOL * (1 + abs(last))

    def test_secant_tightens_before_it_converges(self, monkeypatch):
        # (the Newton search, as the secant before it)
        evaluations = self.recording(monkeypatch)
        spec, _, coeffs, _ = reference_m2_n3()
        result = find_eigenvalue(coeffs, spec.angular_momentum, 5.5, Contour(0.5))
        assert result.converged
        self.assert_tightened_once(evaluations, result)
        assert abs(result.energy - CBRT192) <= 1e-9
        spec, energy, coeffs, _ = validated_states()[3]
        evaluations.clear()
        result = find_eigenvalue(coeffs, spec.angular_momentum, energy + 0.05, Contour())
        assert result.converged
        self.assert_tightened_once(evaluations, result)
        assert abs(result.energy - energy) <= 1e-9 * (1 + abs(energy))

    @pytest.mark.parametrize("e_star, e_guess", [(3.0, 3.5), (-2.0, 1.0), (40.0, 41.0)])
    def test_secant_converges_only_at_full_tolerance(self, monkeypatch, e_star, e_guess):
        # (the Newton search, as the secant before it) a mismatch whose error
        # scales with rtol: the loose phase lands near e_star, and only the
        # _RTOL evaluations pin it to _E_TOL
        def mismatch(e, rtol):
            return ((e - e_star) + rtol * math.sin(1e3 * e),
                    1 + 1e3 * rtol * math.cos(1e3 * e))

        evaluations = self.recording(monkeypatch, mismatch)
        spec, _, coeffs, _ = reference_m2_n3()
        contour = Contour(0.5, 2.0)

        def converges():
            evaluations.clear()
            result = find_eigenvalue(coeffs, spec.angular_momentum, e_guess, contour)
            assert result.converged
            assert abs(result.energy - e_star) <= shooting._E_TOL * (1 + abs(e_star))
            self.assert_tightened_once(evaluations, result)

        converges()
        # one evaluation ends the search in the loose phase
        evaluations.clear()
        result = find_eigenvalue(coeffs, spec.angular_momentum, e_guess, contour, max_iter=1)
        assert evaluations == [(e_guess, shooting._LOOSE_RTOL)]
        assert not result.converged
        # with the switch put off until a loose step passes the step test
        # itself, the search still stops only on _RTOL mismatches
        monkeypatch.setattr(shooting, "_TIGHTEN_STEP", shooting._E_TOL)
        converges()

    def test_offset_shots_land_within_1e_9(self):
        # shots from off the exact energy, where the loose phase does the
        # travelling: each still lands as close as an _RTOL search alone
        shots = [(spec, energy, coeffs, energy + offset, Contour())
                 for spec, energy, coeffs, _ in validated_states()[1:]
                 for offset in (0.02, -0.02, 0.05, -0.05)]
        spec, energy, coeffs, _ = reference_m2_n3()
        shots += [(spec, energy, coeffs, e_guess, Contour(epsilon))
                  for epsilon in (0.25, 0.5, 1.0) for e_guess in (5.5, 5.7, 6.0)]
        assert len(shots) == 25
        for spec, energy, coeffs, e_guess, contour in shots:
            result = find_eigenvalue(coeffs, spec.angular_momentum, e_guess, contour)
            assert result.converged, (spec, e_guess, contour)
            assert abs(result.energy - energy) <= 1e-9 * (1 + abs(energy)), (spec, e_guess)

    def test_escape_bound_reports_non_convergence(self):
        spec, energy, coeffs, _ = reference_m2_n3()
        result = find_eigenvalue(coeffs, spec.angular_momentum, -50.0, Contour(),
                                 e_bound=100.0)
        assert not result.converged

    def test_iteration_cap_reports_non_convergence(self):
        spec, energy, coeffs, _ = reference_m2_n3()
        result = find_eigenvalue(coeffs, spec.angular_momentum, 40.0, Contour(),
                                 max_iter=1)
        assert not result.converged

    @pytest.mark.parametrize("change, message", [
        ({"e_bound": math.nan}, "e_bound"),
        ({"e_bound": 0.0}, "e_bound"),
        ({"residual_tol": math.nan}, "residual_tol"),
        ({"residual_tol": 0.0}, "residual_tol"),
        ({"max_iter": 0}, "max_iter"),
        ({"e_guess": math.inf}, "e_guess"),
        ({"e_guess": math.nan}, "e_guess"),
        ({"d": math.nan}, "coefficients"),
    ], ids=["e_bound-nan", "e_bound-0", "residual_tol-nan", "residual_tol-0",
            "max_iter-0", "e_guess-inf", "e_guess-nan", "d-nan"])
    def test_invalid_input_raises_before_integrating(self, monkeypatch, change, message):
        # the reference state shot from -50, where e_bound=nan used to report
        # convergence at E ~ 825.73 and a non-finite e_guess or d was blamed
        # on the contour
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before validating the input")

        monkeypatch.setattr(shooting, "solve_ivp", no_integration)
        kwargs = dict(change)
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
        coeffs = potential_coeffs(spec, kwargs.pop("d", 8.320335292207618))
        e_guess = kwargs.pop("e_guess", -50.0)
        with pytest.raises(ValueError, match=message):
            find_eigenvalue(coeffs, spec.angular_momentum, e_guess, Contour(), **kwargs)

    @pytest.mark.parametrize("d", [5.0, 12.0])
    def test_recipe_one_levels_fill_the_small_determinant_curve(self, d):
        # at M = 2, N = 3, alpha = beta = 0 the small determinant vanishes on
        # E^2 = 4d; there the Frobenius solutions at r = 0 have no logarithm,
        # so the solution decaying at +inf continues below the origin into
        # the one decaying at -inf, and both E = +-2 sqrt(d) are levels of
        # the default contour at every d, not only at d = 192^(2/3) / 4
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
        coeffs = potential_coeffs(spec, d)
        for level in (2 * math.sqrt(d), -2 * math.sqrt(d)):
            for offset in (0.05, -0.05):
                result = find_eigenvalue(coeffs, spec.angular_momentum, level + offset,
                                         Contour())
                assert result.converged, (d, level, offset)
                assert abs(result.energy - level) <= 1e-7, (d, level, offset)

    def test_algebraic_solutions_pass_shooting(self):
        # every validated multiplet entry seeds a shot that converges back.
        # Single-monomial states (one nonzero h entry with positive power,
        # e.g. h = (0, 0, 1) at alpha = beta = 0) are excluded: their
        # squared wave function is entire and odd, so the contour integral
        # behind the mismatch derivative vanishes identically and the
        # matching has no lever arm on E for them.
        shots = []
        for n in range(1, 5):
            spec = ModelSpec(alpha=0.6, beta=-0.35, big_m=1, n_states=n)
            result = solve_sturmian(spec)
            for d, h in zip(result.d_values, result.h_vectors):
                if sum(1 for x in h if abs(x) > 1e-12) > 1:
                    shots.append((spec, 0.0, d))
        for n in range(1, 5):
            spec = ModelSpec(alpha=0.6, beta=-0.35, big_m=2, n_states=n)
            for entry in solve_energies(spec):
                if sum(1 for x in entry.h if abs(x) > 1e-12) > 1:
                    shots.append((spec, entry.energy, entry.quadratic_coupling))
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
        for entry in solve_energies(spec):
            if entry.energy > 1:
                shots.append((spec, entry.energy, entry.quadratic_coupling))
        assert len(shots) >= 8
        for spec, energy, coupling in shots:
            coeffs = potential_coeffs(spec, coupling)
            result = find_eigenvalue(coeffs, spec.angular_momentum, energy, Contour())
            assert result.converged, (spec, energy, coupling)
            assert abs(result.energy - energy) <= 1e-6, (spec, energy, coupling)


class TestNewton:
    """find_eigenvalue takes Newton steps on (g, g') of mismatch_and_slope,
    whose slope comes from u = dy/dE carried by the integration."""

    @pytest.mark.parametrize("contour", [
        Contour(epsilon=0.25), Contour(epsilon=0.5), Contour(epsilon=1.0),
        Contour(waypoints=BENT_WAYPOINTS)], ids=["eps0.25", "eps0.5", "eps1", "bent"])
    def test_slope_matches_central_difference(self, monkeypatch, contour):
        # u starts at -1/(2 y0), the leading term of the start's derivative;
        # the path damps its error, to 2.2e-3 relative at epsilon 0.5, E 5.5
        spec, _, coeffs, _ = reference_m2_n3()
        big_l, h = spec.angular_momentum, 1e-6
        for energy in (5.5, 5.77, 6.0):
            q = shooting._q_func(coeffs, big_l, energy)
            shot = shooting._resolved(contour, q, shooting._RTOL)
            g, slope = shooting.mismatch_and_slope(coeffs, big_l, energy, shot)
            assert g == wronskian_mismatch(coeffs, big_l, energy, shot)
            central = (wronskian_mismatch(coeffs, big_l, energy + h, shot)
                       - wronskian_mismatch(coeffs, big_l, energy - h, shot)) / (2 * h)
            assert abs(slope - central) <= 1e-2 * abs(central), (energy, slope, central)
            if contour.waypoints is None:
                # u_r = -conj(u_l) on the mirror, as the right half gives it
                with monkeypatch.context() as patched:
                    patched.setattr(shooting, "_mirrored", lambda *args: False)
                    assert (shooting.mismatch_and_slope(coeffs, big_l, energy, shot)
                            == (g, slope))

    def test_exactly_linear_mismatch_converges(self, monkeypatch):
        # g = (e - 3) + rtol is exactly linear at each tolerance.  The secant
        # stalled on it: a loose step landed on the loose root, so the next
        # step was 0 and every later slope was taken between equal energies;
        # it ended after 4 steps at 2.99999, unconverged.  Newton takes the
        # slope from the evaluation itself
        def mismatch(e, rtol):
            return (e - 3.0) + rtol, 1.0

        evaluations = TestFindEigenvalue.recording(monkeypatch, mismatch)
        spec, _, coeffs, _ = reference_m2_n3()
        result = find_eigenvalue(coeffs, spec.angular_momentum, 3.5, Contour(0.5, 2.0))
        assert result.converged
        assert abs(result.energy - (3.0 - shooting._RTOL)) <= shooting._E_TOL * 4
        TestFindEigenvalue.assert_tightened_once(evaluations, result)
        # a search that ends in the loose phase is unconverged
        result = find_eigenvalue(coeffs, spec.angular_momentum, 3.5, Contour(0.5, 2.0),
                                 max_iter=1)
        assert (result.energy, result.iterations, result.converged) == (3.5, 1, False)

    def test_flat_mismatch_ends_unconverged(self, monkeypatch):
        # g' = 0 or not finite ends the search at the last evaluated energy
        spec, _, coeffs, _ = reference_m2_n3()
        for slope in (0.0, math.nan, math.inf):
            monkeypatch.setattr(shooting, "_mismatch_and_slope",
                                lambda *args, slope=slope: (1e-3, slope))
            result = find_eigenvalue(coeffs, spec.angular_momentum, 3.5, Contour(0.5, 2.0))
            assert (result.energy, result.wronskian_residual, result.iterations,
                    result.converged) == (3.5, 1e-3, 1, False)


class TestPoles:
    def test_pole_error_reports_location(self, monkeypatch):
        # M = 2, N = 2 state at E = 4, d = 4 has psi(+-i) = 0; route the
        # matching point straight into the zero at -i
        monkeypatch.setattr(shooting, "_POLE_THRESHOLD", 1e4)
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=2)
        coeffs = potential_coeffs(spec, 4.0)
        contour = Contour(waypoints=POLE_TEST_WAYPOINTS)
        with pytest.raises(PoleError) as info:
            integrate_log_derivative(coeffs, spec.angular_momentum, 4.0, contour,
                                     "from_right")
        assert abs(info.value.location - complex(0, -1)) < 0.2

    def test_find_eigenvalue_survives_poles(self, monkeypatch):
        monkeypatch.setattr(shooting, "_POLE_THRESHOLD", 1e4)
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=2)
        coeffs = potential_coeffs(spec, 4.0)
        contour = Contour(waypoints=POLE_TEST_WAYPOINTS)
        result = find_eigenvalue(coeffs, spec.angular_momentum, 4.0, contour)
        assert not result.converged

    @staticmethod
    def poles_at(monkeypatch, *xs):
        """Make every mismatch matched at x in xs raise PoleError; returns
        the x at which each mismatch is matched, poled or not."""
        ends = []
        mismatch = shooting._mismatch_and_slope

        def poled(q, contour, rtol, atol):
            end = contour.left_nodes()[-1]
            ends.append(end.real)
            if any(abs(end.real - x) <= 1e-12 for x in xs):
                raise PoleError(end)
            return mismatch(q, contour, rtol, atol)

        monkeypatch.setattr(shooting, "_mismatch_and_slope", poled)
        return ends

    def test_pole_ends_the_shot_unconverged(self, monkeypatch):
        # a pole on the default contour ends the search at its guess after
        # one evaluation, with no retry, and reports the contour it shot
        spec, _, coeffs, _ = reference_m2_n3()
        unpoled = find_eigenvalue(coeffs, spec.angular_momentum, 5.5, Contour())
        ends = self.poles_at(monkeypatch, 0.0)
        result = find_eigenvalue(coeffs, spec.angular_momentum, 5.5, Contour())
        assert ends == [0.0]
        assert (result.energy, result.wronskian_residual, result.iterations,
                result.converged) == (5.5, math.inf, 0, False)
        assert result.contour == unpoled.contour
        assert result.contour.waypoints is None

    def test_start_beyond_the_threshold_raises_at_the_start(self):
        # the event is armed from the start: a start value at or beyond
        # _POLE_THRESHOLD stops the leg at z0
        spec, _, coeffs, _ = reference_m2_n3()
        q = shooting._q_func(coeffs, spec.angular_momentum, 5.5)
        z0, z1 = complex(-4, -0.5), complex(0, -0.5)
        for y0 in (1e9 + 0j, complex(0, -shooting._POLE_THRESHOLD)):
            with pytest.raises(PoleError) as info:
                shooting.solve_ivp(q.terms, z0, z1, y0, 1e-10, 1e-10)
            assert info.value.location == z0

    def test_overflowing_start_series_ends_unconverged(self):
        # the series coefficients of a = 1e40 overflow at c_8, in the third
        # block, where inf - inf leaves NaN; the start sums the first two,
        # to |y0| ~ 1e197, so the first leg stops at its start.  The
        # recurrence used to raise OverflowError out of the radius scan
        huge = PotentialCoeffs(a=1e40, b=0.0, c=0.0, f=0.0, d=0.0)
        result = find_eigenvalue(huge, 0.5, 1.0, Contour())
        assert (result.energy, result.wronskian_residual, result.iterations,
                result.converged) == (1.0, math.inf, 0, False)

    @pytest.mark.parametrize("a", [1e63, 1e70])
    def test_non_finite_start_ends_unconverged(self, a):
        # from a about 1e62 up, c_5 already overflows and the start's first
        # two blocks, which are summed unchecked, give NaN: solve_ivp used
        # to raise ValueError on y0
        huge = PotentialCoeffs(a=a, b=0.0, c=0.0, f=0.0, d=0.0)
        result = find_eigenvalue(huge, 0.5, 1.0, Contour())
        assert (result.energy, result.wronskian_residual, result.iterations,
                result.converged) == (1.0, math.inf, 0, False)

    def test_start_beyond_the_threshold_exits_one(self):
        # at alpha = 1e20 the derived radius is 1.9 and |y0| ~ 1.4e39: the
        # shot used to spin in solve_ivp for minutes.  A subprocess with a
        # timeout, so that a spin fails here rather than hanging the suite
        argv = ["shoot", "-M", "2", "-N", "3", "--alpha=1e20", "--d=0", "--e-guess=1"]
        proc = subprocess.run([sys.executable, "-m", "decadic.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert '"converged":false' in proc.stdout


class TestBentContour:
    def test_lower_wedge_pair_recovers_same_eigenvalue(self):
        # quantization through the other mirror pair (sector centers -2pi/3
        # and -pi/3) must agree with the real-axis pair at the closed-form
        # solution
        spec, energy, coeffs, _ = reference_m2_n3()
        contour = Contour(waypoints=BENT_WAYPOINTS)
        m = wronskian_mismatch(coeffs, spec.angular_momentum, energy, contour)
        assert abs(m) <= 1e-6
        result = find_eigenvalue(coeffs, spec.angular_momentum, 5.6, contour)
        assert result.converged
        assert abs(result.energy - energy) <= 1e-6

    def test_upper_pair_above_the_spike_is_the_lower_pair_conjugated(self):
        # at real E the conjugated waypoints conjugate every node, step and
        # value of the shot, so this upper-pair contour is no third recipe
        spec, energy, coeffs, _ = reference_m2_n3()
        big_l = spec.angular_momentum
        upper = tuple(z.conjugate() for z in BENT_WAYPOINTS)
        for x_max in (None, 4.0):
            lower_c = Contour(waypoints=BENT_WAYPOINTS, x_max=x_max)
            upper_c = Contour(waypoints=upper, x_max=x_max)
            for e in (energy, -6.3):
                for direction in ("from_left", "from_right"):
                    rs, ys = integrate_log_derivative(coeffs, big_l, e, lower_c, direction)
                    rs_u, ys_u = integrate_log_derivative(coeffs, big_l, e, upper_c, direction)
                    assert rs_u.tolist() == rs.conj().tolist()
                    assert ys_u.tolist() == ys.conj().tolist()
        lower, up = (find_eigenvalue(coeffs, big_l, 5.6, Contour(waypoints=w))
                     for w in (BENT_WAYPOINTS, upper))
        assert lower.converged and abs(lower.energy - energy) <= 1e-6
        assert ((up.energy, up.iterations, up.converged, up.contour.x_max)
                == (lower.energy, lower.iterations, lower.converged, lower.contour.x_max))


class TestCNorm:
    """The c-norm of an exact state, the integral of psi^2 along
    r = x - 0.5i, x in [-4, 4], below the spike: psi^2 = F(r^2) r^(1-2M)
    with F(u) = exp(-u^3/3 - alpha u^2/2 - beta u) P(u)^2 and
    P(u) = sum h_n u^n is odd, so the path below the origin gives minus the
    path above, and their difference, the loop around r = 0, is 2 pi i
    Res_0 with Res_0 = [u^(M-1)] F(u).  The integral is pi i Res_0; at M = 2
    row 0 of the recurrence gives h_1 / h_0 = (E + 2 beta) / 4, so it is
    pi i E h_0^2 / 2.  The ends lie where exp(-u^3/3) is below 1e-500."""

    X, W = (4 * v for v in np.polynomial.legendre.leggauss(401))

    @classmethod
    def integrals(cls, spec, h):
        """(the integral of psi^2, the integral of |psi^2| |dr|)."""
        values = [wavefunction_eval(spec, h, complex(x, -0.5)) ** 2 for x in cls.X]
        return np.dot(cls.W, values), np.dot(cls.W, np.abs(values))

    @staticmethod
    def residue(spec, h):
        """Res_0 = [u^(M-1)] of exp(-u^3/3 - alpha u^2/2 - beta u) P(u)^2."""
        m = spec.big_m
        g = [0.0, -float(spec.beta), -float(spec.alpha) / 2, -1 / 3] + [0.0] * m
        # f = exp(g) from f' = g' f: n f_n = sum of k g_k f_(n-k)
        f = [1.0]
        for n in range(1, m):
            f.append(sum(k * g[k] * f[n - k] for k in range(1, n + 1)) / n)
        p2 = np.convolve(h, h)
        return sum(f[k] * p2[m - 1 - k] for k in range(m) if m - 1 - k < len(p2))

    ENTRIES = [
        (sturmian_multiplet, ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)),
        (sturmian_multiplet, ModelSpec(alpha=0.5, beta=-1.0, big_m=1, n_states=3)),
        (solve_energies, ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)),
        (solve_energies, ModelSpec(alpha=0.5, beta=0.2, big_m=2, n_states=5)),
        (solve_coupled, ModelSpec(alpha=0.0, beta=0.0, big_m=3, n_states=3)),
    ]

    def entries(self):
        return [(spec, entry) for solve, spec in self.ENTRIES for entry in solve(spec)]

    def test_equals_pi_i_residue(self):
        checked = 0
        for spec, entry in self.entries():
            if entry.h[0] == 0:
                continue
            integral, _ = self.integrals(spec, entry.h)
            ratio = integral / (math.pi * 1j * self.residue(spec, entry.h))
            assert abs(ratio - 1) <= 1e-9, (spec, entry)
            if spec.big_m == 2:
                closed = math.pi * 1j * entry.energy * entry.h[0] ** 2 / 2
                assert abs(integral / closed - 1) <= 1e-9, (spec, entry)
            checked += 1
        assert checked == 8

    def test_vanishes_when_h0_is_zero(self):
        # the E = 0 state of criterion 3 and d = -12 at alpha = 2, beta = 0,
        # M = 1, N = 2: psi^2 is entire and odd
        zero = [(spec, entry) for spec, entry in self.entries() if entry.h[0] == 0]
        assert [(spec.big_m, entry.energy, entry.quadratic_coupling)
                for spec, entry in zero] == [(1, 0.0, -12.0), (2, 0.0, 0.0)]
        for spec, entry in zero:
            integral, scale = self.integrals(spec, entry.h)
            assert abs(integral) <= 1e-14 * scale, (spec, entry)
