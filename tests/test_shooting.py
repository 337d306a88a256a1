import cmath
import math
import subprocess
import sys

import pytest

from decadic import (
    Contour,
    ModelSpec,
    PoleError,
    PotentialCoeffs,
    angular_momentum,
    find_eigenvalue,
    integrate_log_derivative,
    potential_coeffs,
    potential_eval,
    solve_energies,
    solve_sturmian,
    wavefunction_eval,
    wronskian_mismatch,
)
from decadic import shooting

CBRT192 = 192 ** (1 / 3)
# the mirrored polyline of TestPoles and the bent pair of TestBentContour,
# whose endpoints are mirror images only up to the last bits
POLE_TEST_WAYPOINTS = (complex(-4, -0.5), complex(0, -1), complex(4, -0.5))
BENT_WAYPOINTS = (4 * cmath.exp(-2j * math.pi / 3), -0.5j, 4 * cmath.exp(-1j * math.pi / 3))


def reference_m2_n3():
    spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
    energy = CBRT192
    coeffs = potential_coeffs(spec, energy * energy / 4)
    h = [e for e in solve_energies(spec) if e.energy > 1][0].h
    return spec, energy, coeffs, h


class TestContourValidation:
    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            Contour(epsilon=0.0)
        with pytest.raises(ValueError):
            Contour(x_max=-1.0)
        for bad in ({"epsilon": math.inf}, {"epsilon": math.nan}, {"x_max": math.inf}):
            with pytest.raises(ValueError, match="must be positive and finite"):
                Contour(**bad)

    def test_waypoints_must_be_odd_polyline(self):
        with pytest.raises(ValueError):
            Contour(waypoints=(complex(-4, -1), complex(4, -1)))

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

    def test_direction_validated(self):
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=1, n_states=1)
        coeffs = potential_coeffs(spec, 0.0)
        with pytest.raises(ValueError):
            integrate_log_derivative(coeffs, 0.5, 0.0, Contour(), "upward")

    def test_unsolved_coupling_rejected(self):
        coeffs = PotentialCoeffs(a=0, b=0, c=0, f=0, d=None)
        with pytest.raises(TypeError):
            integrate_log_derivative(coeffs, 0.5, 0.0, Contour(), "from_left")


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

    def test_wkb_start_matches_decadic_asymptote(self):
        coeffs = PotentialCoeffs(a=0.0, b=0.0, c=0.0, f=0.0, d=0.0)
        for direction in ("from_left", "from_right"):
            rs, ys = integrate_log_derivative(coeffs, 0.5, 1.0, Contour(), direction)
            r0 = rs[0]
            assert abs(ys[0] - (-r0**5)) <= 0.02 * abs(r0**5)
            # decay away from the matching point
            outward = -1.0 if direction == "from_left" else 1.0
            assert (ys[0] * outward).real < 0

    def test_samples_cover_the_path(self):
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=1, n_states=1)
        coeffs = potential_coeffs(spec, 0.0)
        rs, ys = integrate_log_derivative(coeffs, 0.5, 0.0, Contour(), "from_right")
        assert rs[0] == complex(4.0, -0.5)
        assert rs[-1] == complex(0.0, -0.5)
        assert len(rs) == len(ys) > 10


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
        # one solve_ivp call per straight segment of each integrated half
        cases = [(Contour(), None, 1), (Contour(waypoints=POLE_TEST_WAYPOINTS), None, 1),
                 (Contour(waypoints=BENT_WAYPOINTS), None, 2),
                 (Contour(), lambda r: r * r, 2)]
        for contour, potential, expected in cases:
            calls.clear()
            wronskian_mismatch(coeffs, big_l, energy, contour, potential=potential)
            assert len(calls) == expected, (contour, potential)


class TestScalarDop853:
    """shooting.solve_ivp is scipy's DOP853 on one complex scalar; scipy's own
    solve_ivp on the [re, im] state is the reference."""

    @staticmethod
    def segments(contour, direction, energy):
        """The right-hand sides of the straight segments of one contour half,
        and the WKB start value at its far end."""
        spec, _, coeffs, _ = reference_m2_n3()
        q = shooting._q_func(coeffs, spec.angular_momentum, energy, None)
        nodes = contour.left_nodes() if direction == "from_left" else contour.right_nodes()

        def riccati(z0, dr):
            def rhs(t, y):
                # the guard of shooting._integrate_nodes
                return dr * (q(z0 + t * dr) - y * y) if abs(y) <= 1e100 else 0j

            return rhs

        return ([riccati(z0, z1 - z0) for z0, z1 in zip(nodes[:-1], nodes[1:])],
                shooting._wkb_start(q, nodes[0], nodes[1]))

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

    @pytest.mark.parametrize("contour", [
        Contour(epsilon=0.25), Contour(epsilon=0.5), Contour(epsilon=1.0),
        Contour(waypoints=BENT_WAYPOINTS)], ids=["eps0.25", "eps0.5", "eps1", "bent"])
    @pytest.mark.parametrize("direction", ["from_left", "from_right"])
    @pytest.mark.parametrize("energy", [5.5, CBRT192], ids=["E5.5", "E_exact"])
    def test_matches_scipy_dop853(self, contour, direction, energy):
        rhss, y0 = self.segments(contour, direction, energy)
        for rhs in rhss:
            ours = shooting.solve_ivp(rhs, (0.0, 1.0), y0, 1e-10, 1e-10, 1e8)
            ref = self.scipy_dop853(rhs, y0)
            assert ours.status == ref.status == 0
            steps, ref_steps = len(ours.t) - 1, len(ref.t) - 1
            assert abs(steps - ref_steps) <= 0.01 * ref_steps
            assert ours.nfev > steps
            y_ref = complex(ref.y[0][-1], ref.y[1][-1])
            assert abs(ours.y[-1] - y_ref) <= 1e-9 * abs(y_ref)
            # both integrators start the next segment from the same value
            y0 = ours.y[-1]

    def test_non_finite_start_raises_at_once(self):
        def rhs(t, y):
            raise AssertionError("the right-hand side must not be called")

        for y0 in (complex(math.nan, 0), complex(0, math.inf)):
            with pytest.raises(ValueError, match="y0 must be finite"):
                shooting.solve_ivp(rhs, (0.0, 1.0), y0, 1e-10, 1e-10, 1e8)
        for atol in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="atol"):
                shooting.solve_ivp(rhs, (0.0, 1.0), 1j, 1e-10, atol, 1e8)
        with pytest.raises(ValueError, match="rtol"):
            shooting.solve_ivp(rhs, (0.0, 1.0), 1j, math.nan, 1e-10, 1e8)

    def test_import_leaves_scipy_integrate_unloaded(self):
        # the tableau is imported on the first integration
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, decadic; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_pole_status_and_location(self):
        # y' = y^2 from y(0) = 1 is 1 / (1 - t), with a pole at t = 1
        sol = shooting.solve_ivp(lambda t, y: y * y, (0.0, 2.0), 1 + 0j, 1e-10, 1e-10, 1e4)
        assert sol.status == 1
        assert sol.t_pole == pytest.approx(1 - 1e-4, abs=1e-3)
        assert sol.t[-1] >= sol.t_pole


class TestFindEigenvalue:
    def test_sturmian_state_recovered_at_zero_energy(self):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        coeffs = potential_coeffs(spec, -4.0)
        result = find_eigenvalue(coeffs, spec.angular_momentum, 0.3, Contour())
        assert result.converged
        assert abs(result.energy) <= 1e-6

    def test_harmonic_control(self):
        # V = r^2 with L = 1/2: lowest regular level sits at 4n + 2L + 3 = 4
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=1, n_states=1)
        coeffs = potential_coeffs(spec, 0.0)
        result = find_eigenvalue(coeffs, angular_momentum(1), 3.6,
                                 Contour(epsilon=0.5, x_max=8.0),
                                 potential=lambda r: r * r)
        assert result.converged
        assert abs(result.energy - 4.0) <= 1e-4

    def test_x_max_robustness(self):
        spec, energy, coeffs, _ = reference_m2_n3()
        e4 = find_eigenvalue(coeffs, spec.angular_momentum, 5.76, Contour(x_max=4.0))
        e8 = find_eigenvalue(coeffs, spec.angular_momentum, 5.76, Contour(x_max=8.0))
        assert e4.converged and e8.converged
        assert abs(e4.energy - e8.energy) <= 1e-7

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


class TestPoles:
    def test_pole_error_reports_location(self):
        # M = 2, N = 2 state at E = 4, d = 4 has psi(+-i) = 0; route the
        # matching point straight into the zero at -i
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=2)
        coeffs = potential_coeffs(spec, 4.0)
        contour = Contour(waypoints=POLE_TEST_WAYPOINTS)
        with pytest.raises(PoleError) as info:
            integrate_log_derivative(coeffs, spec.angular_momentum, 4.0, contour,
                                     "from_right", pole_threshold=1e4)
        assert abs(info.value.location - complex(0, -1)) < 0.2

    def test_find_eigenvalue_survives_poles(self):
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=2)
        coeffs = potential_coeffs(spec, 4.0)
        contour = Contour(waypoints=POLE_TEST_WAYPOINTS)
        result = find_eigenvalue(coeffs, spec.angular_momentum, 4.0, contour,
                                 pole_threshold=1e4)
        assert not result.converged


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
