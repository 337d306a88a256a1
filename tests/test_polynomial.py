import math
import random
from fractions import Fraction

import numpy as np
import pytest

import decadic.polynomial as polynomial
import decadic.solvers as solvers
from decadic import (
    COUPLING,
    ENERGY,
    DegenerateResultantError,
    ModelSpec,
    Poly,
    char_poly,
    det,
    det_bipoly,
    det_coeffs,
    integer_matrix,
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

    def test_equal_values_hash_equal(self):
        # a constant Poly equals its coefficient, nested or not, so sets and
        # dicts must take them as one key
        groups = [
            (2, 2.0, Fraction(2), Poly((2,)), Poly((Poly((2,)),)), Poly((Fraction(2),))),
            (0.5, Fraction(1, 2), Poly((Fraction(1, 2),)), Poly((Poly((0.5,)),))),
            (Poly((1, 2)), Poly((1, Poly((2,)))), Poly((Poly((1,)), Fraction(2)))),
        ]
        for group in groups:
            for a in group:
                for b in group:
                    assert a == b and hash(a) == hash(b)
            assert len(set(group)) == 1
            table = {group[-1]: "v"}
            assert all(table.get(k) == "v" and k in table for k in group)


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

        def denominator(choices):
            return rng.randint(1, choices) if isinstance(choices, int) else rng.choice(choices)

        checked = 0
        # the second round draws every denominator odd and non-dyadic, so
        # det's row scales are products of odd primes
        for param_den, point_den in ((4, 6), ((3, 7, 9, 11, 15), (3, 5, 7, 21))):
            for big_m in range(2, 6):
                for n in range(big_m - 1, 9):
                    spec = ModelSpec(
                        alpha=Fraction(rng.randint(-15, 15), denominator(param_den)),
                        beta=Fraction(rng.randint(-15, 15), denominator(param_den)),
                        big_m=big_m, n_states=n)
                    points = [(Fraction(rng.randint(-40, 40), denominator(point_den)),
                               Fraction(rng.randint(-40, 40), denominator(point_den)))
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
        assert checked >= 40

    def test_order_independent_exactness(self):
        # same determinant through the banded recurrence and through an
        # explicitly transposed matrix must agree bit-exact
        spec = ModelSpec(alpha=Fraction(3, 5), beta=Fraction(1, 9), big_m=3, n_states=3)
        m = small_matrix(spec, ENERGY, COUPLING)
        direct = det_bipoly(m)
        transposed = det_bipoly([list(col) for col in zip(*m)])
        assert direct == transposed


class TestDetIntegerKernel:
    """det expands exact and float entries as they are, in their own
    arithmetic; the solvers' int rows (integer_matrix) clear the
    denominators before the kernel runs."""

    def test_float_entries_expand_unscaled(self):
        rng = random.Random(8)
        spec = ModelSpec(alpha=0.3, beta=-1.1, big_m=2, n_states=7)
        dense = [[rng.uniform(-3, 3) for _ in range(5)] for _ in range(5)]
        matrices = [
            main_matrix(spec, 0.7, -1.9),  # Hessenberg, int and float entries
            dense,  # memo expansion
            np.array(dense).tolist(),
            [[np.float64(v) for v in row] for row in dense],
            main_matrix(spec, Poly((0.5, 1.0)), 0.25),  # float Poly leaves
        ]
        for m in matrices:
            got = det(m)
            if isinstance(got, Poly):
                assert all(type(c) is float for c in got.coeffs)
            else:
                assert type(got) is type(m[0][0])
                assert got == pytest.approx(np.linalg.det(np.array(m, dtype=float)), rel=1e-9)

    def test_rational_entries_equal_fraction_expansion(self):
        # gauss_det shares no code with det
        rng = random.Random(21)
        for size in range(2, 8):
            m = [[Fraction(rng.randint(-30, 30), rng.choice((1, 3, 7, 10, 27)))
                  for _ in range(size)] for _ in range(size)]
            m[0][0] = rng.randint(-5, 5)  # mixed int and Fraction leaves
            assert det(m) == gauss_det(m)
            symbolic = [[v * ENERGY + Fraction(1, size + 2) if i == j else v
                         for j, v in enumerate(row)] for i, row in enumerate(m)]
            p = det(symbolic)
            for e0, d0 in ((Fraction(-3, 7), Fraction(5, 2)), (Fraction(2), Fraction(-1, 9))):
                at = [[v(d0)(e0) if isinstance(v, Poly) else v for v in row] for row in symbolic]
                assert p(d0)(e0) == gauss_det(at)
        assert det([[1, 2], [3, 4]]) == -2

    def test_integer_main_matrix_equals_gaussian_elimination(self):
        # integer_matrix's rows, expanded by det_coeffs and divided by
        # scale^size, at rational points, against Gaussian elimination of
        # small_matrix and main_matrix built at those points, on sweep-style
        # floats (power-of-two denominators up to 2^53).  The variable is E
        # at M = 2 (d = E^2/4), F at M = 1 (d = F + beta^2) and d, over
        # Polys in E, on the coupled route's rows at M = 3
        def at(coeffs, t, e0):
            # sum_k c_k t^k, a Poly c_k in E taken at e0
            return Poly(tuple(c(e0) if isinstance(c, Poly) else c for c in coeffs))(t)

        points = ((Fraction(-7, 3), Fraction(3, 5)), (Fraction(1, 2), Fraction(-2)),
                  (Fraction(5), Fraction(1, 3)))
        for n in (3, 6, 12):
            for al, be in ((-3.6, 0.4), (1.2, -2.8)):
                for big_m, energy, coupling in ((2, (0, 1), (0, 0, Fraction(1, 4))),
                                                (1, (0,), (Fraction(be) ** 2, 1)),
                                                (3, (Poly((0, 1)),), (0, 1))):
                    spec = ModelSpec(alpha=Fraction(al), beta=Fraction(be), big_m=big_m,
                                     n_states=n)
                    for first, last, build in ((0, big_m - 1, small_matrix),
                                               (1, n, main_matrix)):
                        rows, scale = integer_matrix(spec, first, last, energy, coupling)
                        p = det_coeffs(rows)
                        for t, e0 in points:
                            want = gauss_det(build(spec, at(energy, t, e0), at(coupling, t, e0)))
                            assert Fraction(at(p, t, e0), scale ** (last - first + 1)) == want


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

    def test_polish_equals_the_two_evaluation_loop(self):
        # each Newton step once evaluated pf twice at the same point; keeping
        # the value leaves every root and multiplicity bit for bit
        rng = random.Random(18)
        for _ in range(20):
            spec = ModelSpec(alpha=Fraction(rng.randint(-32, 32), 8),
                             beta=Fraction(rng.randint(-32, 32), 8),
                             big_m=2, n_states=rng.randint(2, 8))
            p = det(main_matrix(spec, Poly((0, 1)), Poly((0, 0, Fraction(1, 4))))).as_float()
            got = [(r.value.real.hex(), r.value.imag.hex(), r.multiplicity) for r in roots(p).roots]
            assert got == _reference_roots(p)


    def test_polish_equals_the_complex_loop(self):
        # the real-float polish of a real start and the mirrored conjugate
        # leave every root's repr, every multiplicity and the ArithmeticError
        # text as the complex loop that polished each start gives them
        # the eliminants of the M = 2 sweeps over [-4, 4]^2 at N = 6 (21^2)
        # and N = 12 (9^2), whose grid values are floats with 2^-52 steps
        polys = list(_root_shapes(random.Random(27), 400))
        for n, steps in ((6, 21), (12, 9)):
            for i in range(steps):
                for j in range(steps):
                    spec = ModelSpec(alpha=Fraction(-4 + 8 * i / (steps - 1)),
                                     beta=Fraction(-4 + 8 * j / (steps - 1)), big_m=2, n_states=n)
                    coeffs, den = solvers._main_det(spec, (0, 1), (0, 0, Fraction(1, 4)))
                    polys.append(Poly(tuple(c / den for c in coeffs)))
        failed = 0
        for p in polys:
            try:
                want = _complex_loop_roots(p)
            except ArithmeticError as exc:
                with pytest.raises(ArithmeticError) as caught:
                    roots(p)
                assert str(caught.value) == str(exc)
                failed += 1
                continue
            assert [(repr(r.value), r.multiplicity) for r in roots(p).roots] == want
        assert failed >= 10


def _root_shapes(rng, count):
    """Seeded real float polynomials from their roots: exact real roots
    (ints and eighths), conjugate pairs (pure imaginary ones too), roots at
    zero (so zero low coefficients), even polynomials (zero odd ones) and
    repeated roots up to multiplicity 4."""
    for _ in range(count):
        p = Poly((rng.choice((1.0, -2.0, 0.5)),))
        for _ in range(rng.randint(1, 5)):
            shape = rng.randrange(5)
            a = rng.randint(-24, 24) / 8
            b = rng.randint(1, 24) / 8
            if shape == 0:
                factor = Poly((-a, 1.0))
            elif shape == 1:
                factor = Poly((a * a + b * b, -2 * a, 1.0))
            elif shape == 2:
                factor = Poly((b * b, 0.0, 1.0))
            elif shape == 3:
                factor = Poly((0.0, 1.0))
            else:
                factor = Poly((-a * a, 0.0, 1.0))
            for _ in range(rng.choice((1, 1, 1, 2, 3, 4))):
                p = p * factor
        yield p


def _complex_loop_roots(p):
    """roots(p) by the loop that polished every start in complex floats, one
    pf evaluation per step, as (repr, multiplicity) per root."""
    pf = p.as_float()
    dpf = pf.derivative()
    polished = []
    for z in np.roots(np.array([float(c) for c in reversed(p.coeffs)], dtype=float)):
        cur = complex(z)
        f_cur = pf(cur)
        best, best_val = cur, abs(f_cur)
        for _ in range(12):
            dv = dpf(cur)
            if dv == 0:
                break
            step = f_cur / dv
            cur = cur - step
            f_cur = pf(cur)
            val = abs(f_cur)
            if val < best_val:
                best, best_val = cur, val
            if abs(step) <= 1e-16 * (1 + abs(cur)):
                break
        polished.append(best)
    polished.sort(key=lambda z: (z.real, z.imag))
    clusters = []
    for z in polished:
        for cl in clusters:
            if abs(z - cl[0]) <= polynomial._CLUSTER_RADIUS * (1 + abs(cl[0])):
                cl.append(z)
                break
        else:
            clusters.append([z])
    out = []
    scale = pf.max_abs_coeff()
    for cl in clusters:
        center = sum(cl) / len(cl)
        if abs(pf(center)) > polynomial._RESIDUAL_TOL * scale:
            raise ArithmeticError(
                f"root {center} has residual {abs(pf(center)):.3e} above "
                f"{polynomial._RESIDUAL_TOL:.1e} * {scale:.3e}")
        out.append((center, len(cl)))
    out.sort(key=lambda r: (r[0].real, r[0].imag))
    return [(repr(z), m) for z, m in out]

def _reference_roots(p):
    """roots(p) by the polish loop that evaluated pf at the start and at the
    end of each step, as (real hex, imaginary hex, multiplicity)."""
    pf = p.as_float()
    dpf = pf.derivative()
    polished = []
    for z in np.roots(np.array([float(c) for c in reversed(p.coeffs)], dtype=float)):
        z = complex(z)
        best, best_val = z, abs(pf(z))
        cur = z
        for _ in range(12):
            dv = dpf(cur)
            if dv == 0:
                break
            step = pf(cur) / dv
            cur = cur - step
            val = abs(pf(cur))
            if val < best_val:
                best, best_val = cur, val
            if abs(step) <= 1e-16 * (1 + abs(cur)):
                break
        polished.append(best)
    polished.sort(key=lambda z: (z.real, z.imag))
    clusters = []
    for z in polished:
        for cl in clusters:
            if abs(z - cl[0]) <= polynomial._CLUSTER_RADIUS * (1 + abs(cl[0])):
                cl.append(z)
                break
        else:
            clusters.append([z])
    out = sorted(((sum(cl) / len(cl), len(cl)) for cl in clusters),
                 key=lambda r: (r[0].real, r[0].imag))
    return [(z.real.hex(), z.imag.hex(), m) for z, m in out]


class TestRealFilter:
    def test_mixed_set(self):
        p = Poly((0, 0, 192, 0, 0, -1))
        reals = real_filter(roots(p))
        assert reals == pytest.approx([0, 0, CBRT192], abs=1e-8)

    def test_all_complex(self):
        assert real_filter(roots(Poly((1, 0, 1)))) == []

    def test_tolerance_contract(self, monkeypatch):
        from decadic import polynomial
        from decadic.polynomial import Root, RootSet
        rs = RootSet(roots=(Root(value=1.0 + 1e-12j, multiplicity=1),))
        assert real_filter(rs) == [1.0]
        monkeypatch.setattr(polynomial, "_REAL_TOLERANCE", 1e-13)
        assert real_filter(rs) == []


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
