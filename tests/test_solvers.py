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
    small_matrix,
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


# (alpha, beta) as a sweep over [-4, 4] makes them: floats whose exact
# values have power-of-two denominators up to 2^53 (0.4 is 3602879701896397 / 2^53)
FLOAT_GRID_VALUES = ((-3.6, 0.4), (-4 + 8 * 7 / 20, 4 - 8 * 3 / 20), (1.2, -2.8))


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
    """The exact polynomial that solve(spec) expands, through its one
    solvers._main_det call (int coefficients over one denominator)."""
    real_main_det = solvers._main_det

    def spy(*args):
        coeffs, den = real_main_det(*args)
        raise _Expanded(Poly(tuple(Fraction(c, den) for c in coeffs)))

    monkeypatch.setattr(solvers, "_main_det", spy)
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

    @pytest.mark.parametrize("alpha, beta, n", [(0.0, 1e200, 3), (1e150, -1e300, 2)])
    def test_overflowing_matrix_raises_without_fallback(self, monkeypatch, alpha, beta, n):
        # beta^2 overflows, so LAPACK rejects the matrix; the characteristic
        # polynomial of the same inf matrix cannot help
        def no_char_poly(m):
            raise AssertionError("char_poly called on an overflowed matrix")

        monkeypatch.setattr(pl, "char_poly", no_char_poly)
        spec = ModelSpec(alpha=alpha, beta=beta, big_m=1, n_states=n)
        with pytest.raises(ValueError, match="overflows") as info:
            solve_sturmian(spec)
        assert f"alpha = {alpha}, beta = {beta}" in str(info.value)

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

    def test_float_grid_values_equal_shifted_char_poly(self):
        # sweep-style float alpha and beta (power-of-two denominators): built from
        # their numerators, the polynomial equals char_poly at F + shift
        for n in (3, 6, 12):
            for al, be in FLOAT_GRID_VALUES:
                spec = ModelSpec(alpha=al, beta=be, big_m=1, n_states=n)
                exact = ModelSpec(alpha=Fraction(al), beta=Fraction(be), big_m=1, n_states=n)
                shift = exact.beta ** 2 - 2 * n * exact.alpha
                reference = char_poly(main_matrix(exact, 0, 0))(Poly((shift, 1)))
                assert shifted_coupling_poly(exact) == reference
                assert shifted_coupling_poly(spec).coeffs == reference.as_float().coeffs

    def test_depends_on_alpha_and_beta_only_through_s(self):
        # two shapes with the same s = alpha^2 - 4 beta give one polynomial
        rng = random.Random(19)
        for n in range(1, 13):
            for _ in range(10):
                al = Fraction(rng.randint(-15, 15), rng.randint(1, 4))
                be = Fraction(rng.randint(-15, 15), rng.randint(1, 4))
                al2 = al + Fraction(rng.choice((-1, 1)) * rng.randint(1, 15), rng.randint(1, 4))
                be2 = (al2 * al2 - (al * al - 4 * be)) / 4
                assert (shifted_coupling_poly(ModelSpec(alpha=al, beta=be, big_m=1, n_states=n))
                        == shifted_coupling_poly(ModelSpec(alpha=al2, beta=be2, big_m=1, n_states=n)))

    def test_float_inputs_give_float_poly(self):
        spec = ModelSpec(alpha=0.5, beta=0.25, big_m=1, n_states=2)
        p = shifted_coupling_poly(spec)
        assert all(isinstance(c, float) for c in p.coeffs)
        assert p.coeffs == (16 * 0.25 - 4 * 0.25, 0.0, 1.0)

    def test_wrong_mode(self):
        with pytest.raises(WrongModeError):
            shifted_coupling_poly(ModelSpec(alpha=0, beta=0, big_m=2, n_states=2))

    @staticmethod
    def gcd_degree(p, q):
        """Degree of gcd(p, q) by Euclid's algorithm over Fraction, on
        coefficient lists ascending by degree; q is not zero."""
        def trimmed(c):
            while len(c) > 1 and c[-1] == 0:
                c = c[:-1]
            return c

        p, q = trimmed(list(p)), trimmed(list(q))
        while q != [0]:
            rem = p[:]
            while len(rem) >= len(q) and rem != [0]:
                factor, shift = rem[-1] / q[-1], len(rem) - len(q)
                for k, c in enumerate(q):
                    rem[shift + k] -= factor * c
                rem = trimmed(rem[:-1] or [Fraction(0)])
            p, q = q, rem
        return len(p) - 1

    def test_repeated_root_at_zero_exactly_when_n_is_two_mod_three(self):
        # at alpha = beta = 0, P_N has a repeated root exactly when
        # N = 2 (mod 3): a double root at F = 0, that is d = 0
        for n in range(1, 27):
            spec = ModelSpec(alpha=Fraction(0), beta=Fraction(0), big_m=1, n_states=n)
            p = shifted_coupling_poly(spec)
            dp = p.derivative()
            assert self.gcd_degree(p.coeffs, dp.coeffs) == (1 if n % 3 == 2 else 0), n
            if n % 3 == 2:
                assert p(0) == dp(0) == 0 != dp.derivative()(0), n


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

    def test_float_grid_values_equal_bivariate_route(self, monkeypatch):
        # sweep-style float alpha and beta (power-of-two denominators): the
        # eliminant built from their numerators under one scale is exact
        quarter = Poly((0, 0, Fraction(1, 4)))
        for n in (3, 6, 12):
            for al, be in FLOAT_GRID_VALUES:
                spec = ModelSpec(alpha=al, beta=be, big_m=2, n_states=n)
                exact = ModelSpec(alpha=Fraction(al), beta=Fraction(be), big_m=2, n_states=n)
                poly_e = expanded_determinant(monkeypatch, solve_energies, spec)
                assert poly_e == det_bipoly(main_matrix(exact, ENERGY, COUPLING))(quarter)

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
        # both routes share one candidate loop, and their eliminants differ
        # only by the exact factor +-4^N: the multiplets agree bit for bit
        rng = random.Random(13)
        for _ in range(12):
            spec = ModelSpec(alpha=rng.uniform(-2.5, 2.5), beta=rng.uniform(-2.5, 2.5),
                             big_m=2, n_states=rng.randint(1, 4))
            assert solve_coupled(spec) == solve_energies(spec)

    def test_integer_route_equals_fraction_expansion(self):
        # the coupled route's int determinants over their powers of the scale
        # S, and its float eliminant, against det_bipoly and resultant on
        # the Fraction matrices: every beta has an odd, non-dyadic
        # denominator, so S >= 9 and a power of S off by one changes every
        # coefficient
        rng = random.Random(31)
        checked = 0
        for big_m in range(2, 6):
            for n in range(big_m - 1, 9):
                spec = ModelSpec(
                    alpha=Fraction(rng.randint(-15, 15), rng.choice((3, 5, 7, 15))),
                    beta=Fraction(rng.choice((-13, -8, -5, -2, -1, 1, 2, 4, 5, 8, 13)),
                                  rng.choice((3, 7, 9, 11))),
                    big_m=big_m, n_states=n)
                dets, eliminant = solvers._coupled_system(spec)
                small = det_bipoly(small_matrix(spec, ENERGY, COUPLING))
                main = det_bipoly(main_matrix(spec, ENERGY, COUPLING))
                for (p, den), want in zip(dets, (small, main)):
                    assert Poly(tuple(Poly(tuple(Fraction(x, den) for x in c.coeffs))
                                      for c in p.coeffs)) == want
                assert eliminant.coeffs == pl.resultant(small, main).as_float().coeffs
                checked += 1
        assert checked == 26

    @pytest.mark.parametrize("alpha, beta, coupling", [(0.1, 20.0, 400.2), (6.0, 1 / 3, 109 / 9)])
    def test_state_at_near_double_eliminant_root(self, alpha, beta, coupling):
        # alpha * beta misses 2(N-1) by one rounding, so the eliminant has a
        # near-double root at E ~ 0 where the small determinant loses d to
        # cancellation: its root is beta^2, and only the main determinant's
        # root gives the state's d = beta^2 + 2 alpha
        spec = ModelSpec(alpha=alpha, beta=beta, big_m=3, n_states=2)
        [entry] = [e for e in solve_coupled(spec) if abs(e.energy) < 1e-12]
        assert entry.quadratic_coupling == pytest.approx(coupling, rel=1e-12)
        assert entry.validated

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

    def test_empty_result_is_valid(self, monkeypatch):
        # an empty accepted set is a result, not an error; an extreme rank
        # tolerance makes the gate reject every candidate
        monkeypatch.setattr(solvers, "_RANK_RTOL", 1e-30)
        spec = ModelSpec(alpha=1.0, beta=2.0, big_m=3, n_states=2)
        result = solve_coupled(spec)
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

    def test_batched_null_spaces_equal_one_svd_each(self):
        # one SVD over a stack gives each matrix the directions that its own
        # SVD gives, bit for bit: full rank (none), the zero matrix (all),
        # wide and tall matrices, and a stack of mixed rank
        rng = np.random.default_rng(41)
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
        singular = np.array(recurrence.full_system(spec, 0.0, 0.0))
        rank_one = np.outer(rng.standard_normal(4), rng.standard_normal(3))
        stacks = [
            [np.eye(3), rng.standard_normal((3, 3))],
            [np.zeros((3, 3))],
            [rng.standard_normal((2, 4)), np.zeros((2, 4)), np.outer([1.0, 2.0], [1, 0, 0, 1])],
            [singular, rng.standard_normal((4, 3)), rank_one, np.zeros((4, 3)), singular],
        ]
        for stack in stacks:
            batched = solvers._null_spaces(stack)
            assert batched == [solvers._null_space(m) for m in stack]
        assert solvers._null_spaces(stacks[0]) == [[], []]
        assert len(solvers._null_spaces(stacks[1])[0]) == 3
        assert [len(d) for d in solvers._null_spaces(stacks[3])] == [1, 0, 2, 3, 1]
        assert solvers._null_spaces([]) == []
        with pytest.raises(NotRankDeficientError):
            null_vector(stacks[0][1])

    def test_first_nonzero_normalization(self):
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
        rows = recurrence.full_system(spec, 0.0, 0.0)
        assert null_vector(rows) == pytest.approx((0.0, 0.0, 1.0))
