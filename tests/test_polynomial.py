import math
import random
from fractions import Fraction

import numpy as np
import pytest

from decadic import (
    COUPLING,
    ENERGY,
    DegenerateResultantError,
    ModelSpec,
    Poly,
    char_poly,
    det,
    det_bipoly,
    main_matrix,
    real_filter,
    resultant,
    roots,
    small_matrix,
)

CBRT192 = 192 ** (1 / 3)


def energy_degree(p):
    """Highest power of E in a Poly in d whose coefficients are Polys in E
    or scalars."""
    return max(c.degree if isinstance(c, Poly) else 0 for c in p.coeffs)


def gauss_det(m):
    """Determinant by exact Gaussian elimination: a reference for det that
    shares none of its code."""
    rows = [[Fraction(v) for v in row] for row in m]
    out = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            out = -out
        out *= rows[k][k]
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return out


class TestPolyArithmetic:
    def test_construction_trims(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly((0,)).is_zero
        assert Poly(()).is_zero

    def test_ring_ops(self):
        p = Poly((1, 1))  # 1 + x
        q = Poly((-1, 1))  # x - 1
        assert p * q == Poly((-1, 0, 1))
        assert p + q == Poly((0, 2))
        assert 3 - p == Poly((2, -1))
        assert (p * p * p)(2) == 27

    def test_eval_types(self):
        p = Poly((Fraction(1, 2), Fraction(3)))
        assert p(Fraction(1, 3)) == Fraction(3, 2)
        assert abs(p(1j) - (0.5 + 3j)) < 1e-15

    def test_derivative(self):
        assert Poly((5, 3, 0, 2)).derivative() == Poly((3, 0, 6))


class TestEnergyCouplingPoly:
    def test_vars_and_eval(self):
        e, d = ENERGY, COUPLING
        p = e * e - 4 * d
        assert p(2)(3) == 1
        assert energy_degree(p) == 2 and p.degree == 1

    def test_substitute_coupling(self):
        e, d = ENERGY, COUPLING
        p = e * e - 4 * d
        assert p(Poly((0, 0, Fraction(1, 4)))) == Poly((0,))

    def test_poly_in_each_variable(self):
        e, d = ENERGY, COUPLING
        p = 2 * e * d + e * e - 3
        assert Poly(tuple(c(2.0) for c in p.coeffs)) == Poly((1.0, 4.0))

    def test_trimming(self):
        assert (ENERGY - ENERGY).coeffs == (Poly((0,)),)


class TestCharPoly:
    def test_one_by_one(self):
        # det(m - lambda I) for [[2]]: root at 2
        p = char_poly([[2]])
        assert p == Poly((2, -1))
        assert real_filter(roots(p)) == [2]

    def test_pinned_two_by_two(self):
        p = char_poly([[-4, 0], [4, -12]])
        assert p == Poly((48, 16, 1))
        assert sorted(real_filter(roots(p.as_float()))) == pytest.approx([-12, -4])

    def test_identity(self):
        assert char_poly([[1, 0], [0, 1]]) == Poly((1, -2, 1))

    def test_against_dense_lu_determinant(self):
        rng = random.Random(11)
        for trial in range(8):
            n = rng.randint(2, 6)
            spec = ModelSpec(alpha=rng.uniform(-2, 2), beta=rng.uniform(-2, 2),
                             big_m=rng.randint(1, 3), n_states=n)
            m = main_matrix(spec, rng.uniform(-1, 1), rng.uniform(-1, 1))
            p = char_poly(m)
            dense = np.array([[float(v) for v in row] for row in m])
            for _ in range(10):
                lam = rng.uniform(-10, 10)
                direct = np.linalg.det(dense - lam * np.eye(n))
                scale = max(abs(direct), 1.0)
                assert abs(p(lam) - direct) <= 1e-10 * scale

    def test_exact_rational_mode(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        p = char_poly(m)
        # cofactor expansion by hand
        det = Fraction(1, 2) * Fraction(1, 7) - Fraction(1, 3) * Fraction(1, 5)
        trace = Fraction(1, 2) + Fraction(1, 7)
        assert p == Poly((det, -trace, Fraction(1)))

    def test_small_matrix_shape_supported(self):
        spec = ModelSpec(alpha=Fraction(1), beta=Fraction(2), big_m=3, n_states=4)
        m = small_matrix(spec, Fraction(0), Fraction(0))
        p = char_poly(m)
        dense = np.array([[float(v) for v in row] for row in m])
        for lam in (-2.0, 0.5, 3.0):
            assert abs(p(lam) - np.linalg.det(dense - lam * np.eye(3))) < 1e-9


class TestDetBipoly:
    def test_small_m2_identity(self):
        spec = ModelSpec(alpha=Fraction(2, 3), beta=Fraction(-5, 7), big_m=2, n_states=3)
        det = det_bipoly(small_matrix(spec, ENERGY, COUPLING))
        assert det == ENERGY * ENERGY - 4 * COUPLING

    def test_main_m2_n3_with_coupling_substituted(self):
        spec = ModelSpec(alpha=Fraction(0), beta=Fraction(0), big_m=2, n_states=3)
        det = det_bipoly(main_matrix(spec, ENERGY, COUPLING))
        poly_e = det(Poly((0, 0, Fraction(1, 4))))
        assert poly_e == Poly((0, 0, 0, Fraction(3), 0, 0, Fraction(-1, 64)))

    def test_one_by_one(self):
        assert det_bipoly([[ENERGY]]) == ENERGY

    def test_scalar_promotion_and_rejection(self):
        assert det_bipoly([[2]]) == Poly((Poly((2,)),))
        with pytest.raises(TypeError):
            det_bipoly([[object()]])

    def test_nested_evaluation_equals_numeric_determinant(self):
        # p(d0)(E0) of the expanded (E, d) determinant equals the determinant
        # of the matrix built at (E0, d0), exactly, for both secular matrices
        rng = random.Random(43)
        checked = 0
        for big_m in range(2, 6):
            for n in range(big_m - 1, 9):
                spec = ModelSpec(alpha=Fraction(rng.randint(-15, 15), rng.randint(1, 4)),
                                 beta=Fraction(rng.randint(-15, 15), rng.randint(1, 4)),
                                 big_m=big_m, n_states=n)
                points = [(Fraction(rng.randint(-40, 40), rng.randint(1, 6)),
                           Fraction(rng.randint(-40, 40), rng.randint(1, 6)))
                          for _ in range(3)]
                for build in (small_matrix, main_matrix):
                    p = det_bipoly(build(spec, ENERGY, COUPLING))
                    assert all(isinstance(c, Poly) for c in p.coeffs)
                    for e0, d0 in points:
                        value = p(d0)(e0)
                        assert isinstance(value, Fraction)
                        assert value == det(build(spec, e0, d0))
                        assert value == gauss_det(build(spec, e0, d0))
                checked += 1
        assert checked >= 20

    def test_order_independent_exactness(self):
        # same determinant through the banded recurrence and through an
        # explicitly transposed matrix must agree bit-exact
        spec = ModelSpec(alpha=Fraction(3, 5), beta=Fraction(1, 9), big_m=3, n_states=3)
        m = small_matrix(spec, ENERGY, COUPLING)
        direct = det_bipoly(m)
        transposed = det_bipoly([list(col) for col in zip(*m)])
        assert direct == transposed


class TestRoots:
    def test_plus_minus_one(self):
        rs = roots(Poly((-1, 0, 1)))
        assert real_filter(rs) == pytest.approx([-1, 1])

    def test_pinned_root_multiplicities(self):
        # -E^5 + 192 E^2: double root at 0 and a simple real cube root of 192
        p = Poly((0, 0, 192, 0, 0, -1))
        rs = roots(p)
        reals = real_filter(rs)
        assert len(reals) == 3
        assert reals[0] == pytest.approx(0, abs=1e-9)
        assert reals[1] == pytest.approx(0, abs=1e-9)
        assert reals[2] == pytest.approx(CBRT192, abs=1e-9)

    def test_cube_roots_of_unity(self):
        rs = roots(Poly((-1, 0, 0, 1)))
        vals = sorted((r.value for r in rs.roots), key=lambda z: (z.real, z.imag))
        expected = sorted([1, complex(-0.5, math.sqrt(3) / 2), complex(-0.5, -math.sqrt(3) / 2)],
                          key=lambda z: (z.real, z.imag))
        for got, want in zip(vals, expected):
            assert abs(got - want) < 1e-9

    def test_residuals_and_multiplicity_sum(self):
        rng = random.Random(5)
        for _ in range(20):
            degree = rng.randint(1, 12)
            p = Poly([rng.uniform(-3, 3) for _ in range(degree)] + [rng.uniform(0.5, 2)])
            rs = roots(p)
            assert rs.total_multiplicity == degree
            scale = p.max_abs_coeff()
            for r in rs.roots:
                assert abs(p(r.value)) <= 1e-9 * scale

    def test_conjugate_pairs_for_real_coefficients(self):
        p = Poly((5.0, -1.0, 2.0, 0.5, 1.0))
        rs = roots(p)
        vals = [r.value for r in rs.roots for _ in range(r.multiplicity)]
        for v in vals:
            if abs(v.imag) > 1e-9:
                assert any(abs(v.conjugate() - w) < 1e-7 * (1 + abs(v)) for w in vals)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            roots(Poly((0,)))
        with pytest.raises(ValueError):
            roots(Poly((3,)))


class TestRealFilter:
    def test_mixed_set(self):
        p = Poly((0, 0, 192, 0, 0, -1))
        reals = real_filter(roots(p), 1e-8)
        assert reals == pytest.approx([0, 0, CBRT192], abs=1e-8)

    def test_all_complex(self):
        assert real_filter(roots(Poly((1, 0, 1)))) == []

    def test_tolerance_contract(self):
        from decadic.polynomial import Root, RootSet
        rs = RootSet(roots=(Root(value=1.0 + 1e-12j, multiplicity=1),))
        assert real_filter(rs) == [1.0]
        assert real_filter(rs, tol=1e-13) == []


class TestResultant:
    def test_substitution_case(self):
        e, d = ENERGY, COUPLING
        r = resultant(e * e - 4 * d, d - 1)
        assert isinstance(r, Poly)
        assert r == Poly((-4, 0, 1))

    def test_linear_case(self):
        e, d = ENERGY, COUPLING
        # res_y(x - y, y - 2) = x - 2 with x = energy, y = coupling
        r = resultant(e - d, d - 2)
        assert isinstance(r, Poly)
        assert r == Poly((-2, 1))
        # no energy anywhere: the determinant is a scalar, returned as a Poly
        r = resultant(d - 2, d - 1)
        assert isinstance(r, Poly)
        assert r == Poly((-1,))

    def test_matches_direct_elimination_for_m2_n3(self):
        spec = ModelSpec(alpha=Fraction(0), beta=Fraction(0), big_m=2, n_states=3)
        e, d = ENERGY, COUPLING
        p_small = det_bipoly(small_matrix(spec, e, d))
        p_main = det_bipoly(main_matrix(spec, e, d))
        r = resultant(p_small, p_main).as_float()
        direct = p_main(Poly((0, 0, Fraction(1, 4)))).as_float()
        direct_reals = real_filter(roots(direct))
        for root in set(round(v, 9) for v in direct_reals):
            assert abs(r(root)) <= 1e-8 * r.max_abs_coeff() * max(1.0, abs(root)) ** r.degree

    def test_vanishes_at_common_roots(self):
        rng = random.Random(17)
        e, d = ENERGY, COUPLING
        for _ in range(10):
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            # p has the common root (E, d) = (a, b) built in
            p = (e - a) * (d - b)
            q = (e + d) * (d - b) + (e - a) * (d + 3)
            r = resultant(p, q)
            assert abs(r(a)) <= 1e-9 * max(1.0, r.max_abs_coeff())

    def test_degenerate_inputs_rejected(self):
        e, d = ENERGY, COUPLING
        with pytest.raises(DegenerateResultantError):
            resultant(e * e - 1, d - 1)
