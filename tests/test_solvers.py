import random
from fractions import Fraction

import numpy as np
import pytest

import decadic.polynomial as pl
import decadic.recurrence as recurrence
import decadic.solvers as solvers
from decadic import (
    COUPLING,
    ENERGY,
    ModelSpec,
    NotRankDeficientError,
    Poly,
    WrongModeError,
    char_poly,
    det_bipoly,
    main_matrix,
    null_vector,
    recurrence_residual,
    shifted_coupling,
    shifted_coupling_poly,
    solve_coupled,
    solve_energies,
    solve_sturmian,
    sturmian_multiplet,
)
from decadic.cli import main

CBRT192 = 192 ** (1 / 3)


def table_poly(n, al, be):
    """Coupling polynomials det(main - F*I) for N = 1..5, in the shifted
    coupling; leading coefficient (-1)^N."""
    if n == 1:
        return Poly((0, -1))
    if n == 2:
        return Poly((16 * be - 4 * al**2, 0, 1))
    if n == 3:
        return Poly((256, 16 * al**2 - 64 * be, 0, -1))
    if n == 4:
        return Poly((144 * al**4 - 1152 * be * al**2 + 2304 * be**2, -1536,
                     160 * be - 40 * al**2, 0, 1))
    if n == 5:
        return Poly((196608 * be - 49152 * al**2,
                     8192 * be * al**2 - 1024 * al**4 - 16384 * be**2,
                     5376, 80 * al**2 - 320 * be, 0, -1))
    raise ValueError(n)


def rational_specs(seed, big_m, sizes):
    """One spec with small random rational alpha, beta per size."""
    rng = random.Random(seed)
    for n in sizes:
        yield ModelSpec(alpha=Fraction(rng.randint(-15, 15), rng.randint(1, 4)),
                        beta=Fraction(rng.randint(-15, 15), rng.randint(1, 4)),
                        big_m=big_m, n_states=n)


class _Expanded(Exception):
    """Carries the determinant a solver expanded, and stops the solver."""


def expanded_determinant(monkeypatch, solve, spec):
    """The exact polynomial that solve(spec) gets from its pl.det call."""
    real_det = pl.det

    def spy(m):
        raise _Expanded(real_det(m))

    monkeypatch.setattr(pl, "det", spy)
    with pytest.raises(_Expanded) as caught:
        solve(spec)
    monkeypatch.undo()
    return caught.value.args[0]


class TestSturmian:
    def test_n1(self):
        spec = ModelSpec(alpha=1.0, beta=2.0, big_m=1, n_states=1)
        result = solve_sturmian(spec)
        assert result.d_values == pytest.approx([2.0])
        assert result.shifted_couplings == pytest.approx([0.0])

    def test_n2(self):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        result = solve_sturmian(spec)
        assert result.d_values == pytest.approx([-12.0, -4.0])
        assert result.shifted_couplings == pytest.approx([-4.0, 4.0])
        for f in result.shifted_couplings:
            assert f * f == pytest.approx(4 * 2.0**2 - 16 * 0.0)

    def test_n3_single_real_coupling(self):
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=1, n_states=3)
        result = solve_sturmian(spec)
        assert len(result.d_values) == 1
        assert result.d_values[0] == pytest.approx(256 ** (1 / 3), abs=1e-9)
        assert result.shifted_couplings[0] == pytest.approx(result.d_values[0])

    def test_wrong_mode(self):
        with pytest.raises(WrongModeError):
            solve_sturmian(ModelSpec(alpha=0, beta=0, big_m=2, n_states=2))

    def test_count_bounded_and_deterministic(self):
        rng = random.Random(23)
        for _ in range(10):
            spec = ModelSpec(alpha=rng.uniform(-3, 3), beta=rng.uniform(-3, 3),
                             big_m=1, n_states=rng.randint(1, 8))
            first = solve_sturmian(spec)
            second = solve_sturmian(spec)
            assert len(first.d_values) <= spec.n_states
            assert first.d_values == second.d_values
            assert first.h_vectors == second.h_vectors

    def test_couplings_are_roots_of_coupling_poly(self):
        spec = ModelSpec(alpha=1.3, beta=-0.7, big_m=1, n_states=4)
        result = solve_sturmian(spec)
        scale = result.coupling_poly.max_abs_coeff()
        for f in result.shifted_couplings:
            assert abs(result.coupling_poly(f)) <= 1e-9 * scale

    def test_eigvals_failure_falls_back_to_characteristic_roots(self, monkeypatch):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        expected = solve_sturmian(spec)

        def failing_eigvals(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
        result = solve_sturmian(spec)
        assert result.d_values == pytest.approx(expected.d_values, abs=1e-9)
        assert result.shifted_couplings == pytest.approx(expected.shifted_couplings, abs=1e-9)

    def test_multiplet_wrapper_validates(self):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        mult = sturmian_multiplet(spec)
        assert len(mult) == 2
        for entry in mult:
            assert entry.energy == 0.0
            assert entry.validated
            assert entry.recurrence_residual <= 1e-10


class TestLazyCouplingPoly:
    def test_float_solves_never_build_the_exact_polynomial(self, monkeypatch, capsys):
        def refuse(spec):
            raise AssertionError("exact coupling polynomial built")

        monkeypatch.setattr(solvers, "shifted_coupling_poly", refuse)
        assert main(["sturmian", "--alpha", "2", "--beta", "0", "-N", "2"]) == 0
        assert main(["sweep", "-M", "1", "-N", "2",
                     "--alpha-min", "-4", "--alpha-max", "4", "--alpha-steps", "3",
                     "--beta-min", "-4", "--beta-max", "4", "--beta-steps", "3"]) == 0
        spec = ModelSpec(alpha=Fraction(3, 2), beta=Fraction(-1, 4), big_m=1, n_states=2)
        result = solve_sturmian(spec)
        monkeypatch.undo()
        assert result.coupling_poly == table_poly(2, spec.alpha, spec.beta)


class TestShiftedCouplingPoly:
    def test_matches_table_exactly(self):
        rng = random.Random(7)
        for n in range(1, 6):
            for _ in range(6):
                al = Fraction(rng.randint(-15, 15), rng.randint(1, 3))
                be = Fraction(rng.randint(-15, 15), rng.randint(1, 3))
                spec = ModelSpec(alpha=al, beta=be, big_m=1, n_states=n)
                assert shifted_coupling_poly(spec) == table_poly(n, al, be)

    def test_substitution_in_entries_equals_shifted_char_poly(self):
        # d = F + shift in the matrix entries, expanded once, against the
        # characteristic polynomial of main(0, 0) evaluated at F + shift
        for spec in rational_specs(31, 1, [1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24]):
            shift = spec.beta ** 2 - 2 * spec.n_states * spec.alpha
            p = shifted_coupling_poly(spec)
            reference = char_poly(main_matrix(spec, 0, 0))
            assert p.degree == spec.n_states
            for k in range(spec.n_states + 1):
                f = Fraction(2 * k - spec.n_states, 3)
                assert p(f) == reference(f + shift)

    def test_float_inputs_give_float_poly(self):
        spec = ModelSpec(alpha=0.5, beta=0.25, big_m=1, n_states=2)
        p = shifted_coupling_poly(spec)
        assert all(isinstance(c, float) for c in p.coeffs)
        assert p.coeffs == (16 * 0.25 - 4 * 0.25, 0.0, 1.0)

    def test_wrong_mode(self):
        with pytest.raises(WrongModeError):
            shifted_coupling_poly(ModelSpec(alpha=0, beta=0, big_m=2, n_states=2))


class TestShiftedCoupling:
    def test_n1_shift_vanishes_at_eigencoupling(self):
        spec = ModelSpec(alpha=3.0, beta=-1.0, big_m=1, n_states=1)
        d = spec.beta**2 - 2 * spec.alpha
        assert shifted_coupling(d, spec) == 0

    def test_trivial(self):
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=1, n_states=5)
        assert shifted_coupling(0.0, spec) == 0

    def test_example_values(self):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        assert shifted_coupling(-4.0, spec) == 4.0


class TestEnergies:
    def test_m2_n3_reference_multiplet(self):
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
        mult = solve_energies(spec)
        energies = [e.energy for e in mult]
        assert energies == pytest.approx([0.0, CBRT192], abs=1e-9)
        for entry in mult:
            assert entry.validated
            assert entry.quadratic_coupling == pytest.approx(entry.energy**2 / 4)
        assert mult.entries[0].h == pytest.approx((0.0, 0.0, 1.0))

    def test_n1_determinant_roots_vs_validated_set(self):
        # the raw 1x1 determinant vanishes at E = +-2*beta, but only
        # E = -2*beta also satisfies recurrence row 0; the rank test must
        # reject the other root
        beta = 1.5
        spec = ModelSpec(alpha=0.7, beta=beta, big_m=2, n_states=1)
        det = det_bipoly(main_matrix(spec, ENERGY, COUPLING))
        poly_e = det(Poly((0, 0, 0.25))).as_float()
        from decadic import real_filter, roots
        assert sorted(real_filter(roots(poly_e))) == pytest.approx([-2 * beta, 2 * beta])
        mult = solve_energies(spec)
        assert [e.energy for e in mult] == pytest.approx([-2 * beta])
        assert mult.entries[0].quadratic_coupling == pytest.approx(beta * beta)

    def test_wrong_mode(self):
        with pytest.raises(WrongModeError):
            solve_energies(ModelSpec(alpha=0, beta=0, big_m=1, n_states=2))

    def test_substitution_in_entries_equals_bivariate_route(self, monkeypatch):
        # d = E^2/4 in the matrix entries, expanded once, against the
        # bivariate determinant with d = E^2/4 substituted afterwards
        quarter = Poly((0, 0, Fraction(1, 4)))
        for spec in rational_specs(29, 2, [n for n in range(1, 13) for _ in range(2)]):
            poly_e = expanded_determinant(monkeypatch, solve_energies, spec)
            det = det_bipoly(main_matrix(spec, ENERGY, COUPLING))
            assert poly_e == det(quarter)

    def test_quintic_roots_are_determinant_roots(self):
        # the degree-5 reference polynomial's roots must all satisfy our
        # degree-6 secular determinant with the coupling tied to E^2/4
        rng = random.Random(9)
        for _ in range(20):
            al, be = rng.uniform(-3, 3), rng.uniform(-3, 3)
            spec = ModelSpec(alpha=al, beta=be, big_m=2, n_states=3)
            det = det_bipoly(main_matrix(
                ModelSpec(alpha=Fraction(al), beta=Fraction(be), big_m=2, n_states=3),
                ENERGY, COUPLING))
            our_poly = det(Poly((0, 0, Fraction(1, 4)))).as_float()
            quintic = Poly((
                -1024 * be * al**2 - 1280 * be**2 + 4096 * al - 32 * be**5 + 384 * be**3 * al,
                -256 * be - 512 * al**2 + 192 * be**2 * al - 16 * be**4,
                -96 * be * al + 192 + 16 * be**3,
                -48 * al + 8 * be**2,
                -2 * be,
                -1.0))
            from decadic import roots
            scale = our_poly.max_abs_coeff()
            for root in roots(quintic).roots:
                z = root.value
                assert abs(our_poly(z)) <= 1e-8 * scale * max(1.0, abs(z)) ** our_poly.degree

    def test_residual_gate(self):
        rng = random.Random(31)
        for _ in range(6):
            spec = ModelSpec(alpha=rng.uniform(-2, 2), beta=rng.uniform(-2, 2),
                             big_m=2, n_states=rng.randint(1, 6))
            for entry in solve_energies(spec):
                assert entry.recurrence_residual <= 1e-10
                assert entry.validated


class TestCoupled:
    def test_matches_energy_solver_at_m2(self):
        rng = random.Random(13)
        for _ in range(12):
            spec = ModelSpec(alpha=rng.uniform(-2.5, 2.5), beta=rng.uniform(-2.5, 2.5),
                             big_m=2, n_states=rng.randint(1, 4))
            via_energies = [(e.energy, e.quadratic_coupling) for e in solve_energies(spec)]
            via_coupled = [(p.energy, p.quadratic_coupling) for p in solve_coupled(spec)]
            assert len(via_energies) == len(via_coupled)
            for (e1, d1), (e2, d2) in zip(via_energies, via_coupled):
                assert abs(e1 - e2) <= 1e-8 * (1 + abs(e1))
                assert abs(d1 - d2) <= 1e-8 * (1 + abs(d1))

    def test_m3_n3_matches_grid_oracle(self):
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=3, n_states=3)
        accepted = [(p.energy, p.quadratic_coupling) for p in solve_coupled(spec)]

        # independent oracle: scan the (E, d) square for rank deficiency of
        # the full recurrence system, then polish with Nelder-Mead
        def smallest_sv(point):
            full = np.array(recurrence.full_system(spec, point[0], point[1]), dtype=float)
            return np.linalg.svd(full, compute_uv=False)[-1]

        from scipy.optimize import minimize
        grid = np.linspace(-20, 20, 321)
        coarse = []
        values = np.array([[smallest_sv((e, d)) for d in grid] for e in grid])
        for i in range(1, len(grid) - 1):
            for j in range(1, len(grid) - 1):
                if values[i, j] < 1.0 and values[i, j] <= values[i - 1:i + 2, j - 1:j + 2].min():
                    coarse.append((grid[i], grid[j]))
        oracle = set()
        for e0, d0 in coarse:
            res = minimize(smallest_sv, [e0, d0], method="Nelder-Mead",
                           options=dict(xatol=1e-13, fatol=1e-14, maxiter=4000))
            if res.fun < 1e-8:
                oracle.add((round(res.x[0], 6), round(res.x[1], 6)))
        assert oracle == set((round(e, 6), round(d, 6)) for e, d in accepted)
        # the eliminant also vanishes at (E, d) = (8, 8), which has no joint
        # null vector; the rank test must have rejected it
        assert all(abs(e - 8.0) > 1e-6 for e, _ in accepted)

    def test_empty_result_is_valid(self):
        # an empty accepted set is a result, not an error; an extreme rank
        # tolerance makes the gate reject every candidate
        spec = ModelSpec(alpha=1.0, beta=2.0, big_m=3, n_states=2)
        result = solve_coupled(spec, rank_rtol=1e-30)
        assert result.entries == ()

    def test_degenerate_coupling_found_through_main_determinant(self):
        # at E = 0 the small determinant here vanishes identically in d;
        # the coupling must be recovered from the main determinant instead
        spec = ModelSpec(alpha=1.0, beta=2.0, big_m=3, n_states=2)
        pairs = [(p.energy, p.quadratic_coupling) for p in solve_coupled(spec)]
        assert any(abs(e) < 1e-9 and abs(d - 6.0) < 1e-9 for e, d in pairs)
        entry = [p for p in solve_coupled(spec) if abs(p.energy) < 1e-9][0]
        assert entry.h == pytest.approx((1.0, 1.0))

    def test_wrong_mode(self):
        with pytest.raises(WrongModeError):
            solve_coupled(ModelSpec(alpha=0, beta=0, big_m=1, n_states=2))

    def test_residual_gate(self):
        for spec in (ModelSpec(alpha=0.0, beta=0.0, big_m=3, n_states=3),
                     ModelSpec(alpha=0.5, beta=-0.5, big_m=2, n_states=3),
                     ModelSpec(alpha=-1.0, beta=0.25, big_m=3, n_states=4)):
            for pair in solve_coupled(spec):
                res = recurrence_residual(spec, pair.energy, pair.quadratic_coupling, pair.h)
                assert res <= 1e-10


class TestNullVector:
    def test_pinned_example(self):
        assert null_vector([[0, 0], [4, -8]]) == pytest.approx((1.0, 0.5))

    def test_full_rank_rejected(self):
        with pytest.raises(NotRankDeficientError):
            null_vector([[1, 0], [0, 1]])

    def test_first_nonzero_normalization(self):
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
        rows = recurrence.full_system(spec, 0.0, 0.0)
        assert null_vector(rows) == pytest.approx((0.0, 0.0, 1.0))
