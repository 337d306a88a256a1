import cmath
import math
from fractions import Fraction

import pytest

from decadic import (
    ModelSpec,
    PotentialCoeffs,
    angular_momentum,
    potential_coeffs,
    potential_eval,
    spike_strength,
    wavefunction_eval,
)


class TestSpikeStrength:
    def test_one_dimensional_s_wave(self):
        assert spike_strength(1, 1, 0) == Fraction(3, 4)

    def test_four_dimensional_s_wave_vanishes(self):
        assert spike_strength(1, 4, 0) == 0

    def test_two_dimensional_d_wave_vanishes(self):
        assert spike_strength(2, 2, 2) == 0

    def test_zero_exactly_on_integer_grid(self):
        # f = 0 iff M = ell - 1 + D/2
        for m in range(1, 11):
            for dim in range(1, 9):
                for ell in range(0, 9):
                    f = spike_strength(m, dim, ell)
                    expected_zero = Fraction(ell) - 1 + Fraction(dim, 2) == m
                    assert (f == 0) == expected_zero

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            spike_strength(0, 3, 0)
        with pytest.raises(ValueError):
            spike_strength(1, 0, 0)
        with pytest.raises(ValueError):
            spike_strength(1, 3, -1)


class TestAngularMomentum:
    @pytest.mark.parametrize("big_m,expected", [(1, Fraction(1, 2)), (2, Fraction(3, 2)), (5, Fraction(9, 2))])
    def test_values(self, big_m, expected):
        assert angular_momentum(big_m) == expected

    def test_positive_only(self):
        with pytest.raises(ValueError):
            angular_momentum(0)


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(alpha=0, beta=0, big_m=0, n_states=1)
        with pytest.raises(ValueError):
            ModelSpec(alpha=0, beta=0, big_m=1, n_states=0)
        with pytest.raises(ValueError):
            ModelSpec(alpha=0, beta=0, big_m=1, n_states=1, dimension=0)
        with pytest.raises(ValueError):
            ModelSpec(alpha=0, beta=0, big_m=1, n_states=1, ell=-1)

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_shape_parameter_rejected(self, name, value):
        shape = {"alpha": 0.0, "beta": 0.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelSpec(**shape, big_m=1, n_states=2)

    def test_derived_quantities(self):
        spec = ModelSpec(alpha=1, beta=2, big_m=3, n_states=2, dimension=4, ell=1)
        assert spec.angular_momentum == Fraction(5, 2)
        assert spec.spike == 9 - Fraction(2) ** 2


class TestPotentialCoeffs:
    def test_example_m2_n3(self):
        spec = ModelSpec(alpha=0, beta=0, big_m=2, n_states=3)
        c = potential_coeffs(spec, 0)
        assert (c.a, c.b, c.c) == (0, 0, -10)

    def test_example_m1_n1(self):
        spec = ModelSpec(alpha=1, beta=2, big_m=1, n_states=1)
        c = potential_coeffs(spec, 0)
        assert (c.a, c.b, c.c) == (2, 5, 0)

    def test_example_minimal(self):
        spec = ModelSpec(alpha=0, beta=0, big_m=1, n_states=1)
        assert potential_coeffs(spec, 0).c == -4

    def test_exact_identity_at_rationals(self):
        # re-derive the coupling map from scratch and compare exactly
        import random
        rng = random.Random(42)
        for _ in range(30):
            al = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            be = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            m = rng.randint(1, 6)
            n = rng.randint(1, 8)
            spec = ModelSpec(alpha=al, beta=be, big_m=m, n_states=n)
            c = potential_coeffs(spec, d_value=Fraction(7, 3))
            assert c.a == al + al
            assert c.b == al * al + be + be
            assert c.c == 2 * al * be + 2 * m - 4 * n - 2
            assert c.d == Fraction(7, 3)
            assert c.f == spike_strength(m, spec.dimension, spec.ell)


class TestPotentialEval:
    def test_all_unit_coefficients(self):
        c = PotentialCoeffs(a=1, b=1, c=1, f=1, d=1)
        assert potential_eval(c, 1) == 6

    def test_pure_decadic(self):
        c = PotentialCoeffs(a=0, b=0, c=0, f=0, d=0)
        assert potential_eval(c, 2) == 1024

    def test_spike_term(self):
        # the r^10 term is structural and contributes 0.5^10 = 2^-10 here
        c = PotentialCoeffs(a=0, b=0, c=0, f=Fraction(3, 4), d=0)
        assert potential_eval(c, Fraction(1, 2)) == 3 + Fraction(1, 1024)

    def test_complex_argument(self):
        c = PotentialCoeffs(a=1.0, b=2.0, c=3.0, f=0.5, d=1.5)
        r = 0.7 - 0.3j
        expected = (r**10 + 1.0 * r**8 + 2.0 * r**6 + 3.0 * r**4 + 1.5 * r**2
                    + 0.5 / r**2)
        assert abs(potential_eval(c, r) - expected) < 1e-14 * abs(expected)

    def test_singular_origin(self):
        c = PotentialCoeffs(a=0, b=0, c=0, f=1, d=0)
        with pytest.raises(ValueError):
            potential_eval(c, 0)


class TestWavefunctionEval:
    def test_unit_series(self):
        spec = ModelSpec(alpha=0, beta=0, big_m=1, n_states=1)
        value = wavefunction_eval(spec, [1], 1.0)
        assert abs(value - math.exp(-1 / 6)) < 1e-12

    def test_zero_series(self):
        spec = ModelSpec(alpha=0.2, beta=-0.1, big_m=2, n_states=3)
        for r in (0.5, 1.0 + 0.3j, -2.0):
            assert wavefunction_eval(spec, [0, 0, 0], r) == 0

    def test_envelope_dominates_at_large_radius(self):
        spec = ModelSpec(alpha=0, beta=0, big_m=1, n_states=1)
        assert abs(wavefunction_eval(spec, [1], 3.0)) < math.exp(-3**6 / 6 + 1)

    def test_real_axis_is_real_after_removing_branch_power(self):
        spec = ModelSpec(alpha=0.3, beta=-0.7, big_m=2, n_states=2)
        for r in (0.4, 1.3, 2.1):
            psi = wavefunction_eval(spec, [1.0, 0.5], r)
            ratio = psi / r ** (-float(spec.angular_momentum))
            assert abs(ratio.imag) < 1e-13 * abs(ratio)

    def test_branch_cut_upward(self):
        # on the negative real axis arg(r) = -pi, so (-1)^(-1/2) = e^(i pi/2) = i
        spec = ModelSpec(alpha=0, beta=0, big_m=1, n_states=1)
        psi = wavefunction_eval(spec, [1], -1.0)
        expected = math.exp(-1 / 6) * 1j
        assert abs(psi - expected) < 1e-12

    def test_lower_half_plane_matches_principal_branch(self):
        spec = ModelSpec(alpha=0, beta=0, big_m=2, n_states=1)
        r = 0.8 - 0.6j
        L = float(spec.angular_momentum)
        expected = cmath.exp(-(r**6) / 6) * r ** (-L)
        assert abs(wavefunction_eval(spec, [1], r) - expected) < 1e-12 * abs(expected)

    def test_singular_origin(self):
        spec = ModelSpec(alpha=0, beta=0, big_m=1, n_states=1)
        with pytest.raises(ValueError):
            wavefunction_eval(spec, [1], 0)

    def test_series_length_checked(self):
        spec = ModelSpec(alpha=0, beta=0, big_m=1, n_states=2)
        with pytest.raises(ValueError):
            wavefunction_eval(spec, [1], 1.0)
