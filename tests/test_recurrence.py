import random
from fractions import Fraction

import numpy as np
import pytest

from decadic import (
    COUPLING,
    ENERGY,
    ModelSpec,
    Poly,
    coeffs,
    full_system,
    main_matrix,
    small_matrix,
)


def spec_of(alpha, beta, big_m, n_states):
    return ModelSpec(alpha=alpha, beta=beta, big_m=big_m, n_states=n_states)


def energy_degree(p):
    """Highest power of E in a Poly in d whose coefficients are Polys in E
    or scalars."""
    return max(c.degree if isinstance(c, Poly) else 0 for c in p.coeffs)


class TestCoeffs:
    def test_b0_at_m1_has_no_beta(self):
        spec = spec_of(0, 7.3, 1, 2)
        _, b, _, _ = coeffs(spec, 0, 5.0, 0.0)
        assert b == 5.0

    def test_a_vanishes_at_row_m_minus_one(self):
        for m in range(1, 11):
            spec = spec_of(1.5, -0.5, m, m + 2)
            a, _, _, _ = coeffs(spec, m - 1, 0.0, 0.0)
            assert a == 0

    def test_b2_example(self):
        spec = spec_of(0, 3, 1, 4)
        _, b, _, _ = coeffs(spec, 2, 0, 0)
        assert b == -24

    def test_row_range_enforced(self):
        spec = spec_of(0, 0, 1, 3)
        with pytest.raises(ValueError):
            coeffs(spec, -1, 0, 0)
        with pytest.raises(ValueError):
            coeffs(spec, 4, 0, 0)

    def test_symbolic_entries_are_degree_one(self):
        spec = spec_of(Fraction(1, 2), Fraction(-1, 3), 2, 3)
        a, b, c, d = coeffs(spec, 1, ENERGY, COUPLING)
        assert isinstance(a, int) and isinstance(d, int)
        assert energy_degree(b) == 1 and b.degree == 0
        assert energy_degree(c) == 0 and c.degree == 1


class TestMainMatrix:
    def test_pinned_two_by_two(self):
        spec = spec_of(2, 0, 1, 2)
        assert main_matrix(spec, 0, 0) == [[-4, 0], [4, -12]]

    def test_one_by_one_is_c1(self):
        spec = spec_of(Fraction(3), Fraction(2), 1, 1)
        dense = main_matrix(spec, 0, 0)
        assert dense == [[Fraction(2) ** 2 - 2 * 3]]

    def test_m2_n3_with_quadratic_coupling(self):
        # rows must read [[-E^2/4, E, 0], [8, -E^2/4, E], [0, 4, -E^2/4]]
        spec = spec_of(0, 0, 2, 3)
        e0 = 2.0
        dense = main_matrix(spec, e0, e0 * e0 / 4)
        assert dense == [[-1.0, 2.0, 0], [8, -1.0, 2.0], [0, 4, -1.0]]

    def test_entries_match_coeffs_elementwise(self):
        # the same expected-row rule checks main (rows 1..N), small (rows
        # 0..M-1 over M columns) and full (rows 0..N); M = N + 1 gives the
        # small matrix a column the full system lacks
        rng = random.Random(3)
        cases = []
        for _ in range(20):
            spec = spec_of(rng.uniform(-3, 3), rng.uniform(-3, 3),
                           rng.randint(1, 5), rng.randint(1, 7))
            cases.append((spec, rng.uniform(-5, 5), rng.uniform(-5, 5)))
        for n in range(1, 5):
            spec = spec_of(rng.uniform(-3, 3), rng.uniform(-3, 3), n + 1, n)
            cases.append((spec, rng.uniform(-5, 5), rng.uniform(-5, 5)))
        for spec, e0, d0 in cases:
            n, m = spec.n_states, spec.big_m

            def expected(first, last, n_cols):
                rows = [[0.0] * n_cols for _ in range(first, last + 1)]
                for row in range(first, last + 1):
                    a, b, c, d = coeffs(spec, row, e0, d0)
                    for col, val in ((row - 2, d), (row - 1, c), (row, b), (row + 1, a)):
                        if 0 <= col < n_cols:
                            rows[row - first][col] = val
                return rows

            assert main_matrix(spec, e0, d0) == expected(1, n, n)
            assert full_system(spec, e0, d0) == expected(0, n, n)
            if m <= n + 1:
                assert small_matrix(spec, e0, d0) == expected(0, m - 1, m)

    def test_upper_hessenberg(self):
        spec = spec_of(1, 1, 2, 6)
        dense = main_matrix(spec, 0.5, 0.5)
        assert any(dense[i + 1][i] != 0 for i in range(5))
        for i in range(6):
            for j in range(6):
                if i - j > 1:
                    assert dense[i][j] == 0

    def test_outside_band_entries_are_zero(self):
        spec = spec_of(0.1, 0.2, 2, 5)
        dense = main_matrix(spec, 1.0, 2.0)
        for i in range(5):
            for j in range(5):
                if j - i not in (-1, 0, 1, 2):
                    assert dense[i][j] == 0


class TestSmallMatrix:
    def test_m2_symbolic(self):
        spec = spec_of(Fraction(1), Fraction(5), 2, 3)
        e, d = ENERGY, COUPLING
        dense = small_matrix(spec, e, d)
        beta = Fraction(5)
        assert dense[0][0] == e + 2 * beta
        assert dense[0][1] == Poly((Poly((-4,)),))
        assert dense[1][0] == beta * beta - d
        assert dense[1][1] == e - 2 * beta

    def test_m1_is_b0(self):
        spec = spec_of(0.5, 1.5, 1, 2)
        e = ENERGY
        assert small_matrix(spec, e, COUPLING) == [[e]]

    def test_m3_structural(self):
        spec = spec_of(0, 0, 3, 3)
        dense = small_matrix(spec, 0, 0)
        assert dense == [[0, -8, 0], [0, 0, -8], [8, 0, 0]]

    def test_closed_without_column_m(self):
        # A_{M-1} = 0 means the last row never references h_M
        for m in range(1, 8):
            spec = spec_of(1.0, -2.0, m, m + 1)
            a, _, _, _ = coeffs(spec, m - 1, 0.0, 0.0)
            assert a == 0
            assert len(small_matrix(spec, 0.0, 0.0)) == m


class TestFullSystem:
    def test_m1_row_zero_vanishes_at_zero_energy(self):
        spec = spec_of(1.7, -0.4, 1, 3)
        rows = full_system(spec, 0.0, 2.0)
        assert rows[0] == [0.0, 0, 0]
        assert len(rows) == 4

    def test_m2_n3_null_vector(self):
        spec = spec_of(0, 0, 2, 3)
        rows = np.array(full_system(spec, 0.0, 0.0), dtype=float)
        assert rows.shape == (4, 3)
        assert np.allclose(rows @ np.array([0.0, 0.0, 1.0]), 0.0)

    def test_row_count_always_n_plus_one(self):
        for n in range(1, 9):
            spec = spec_of(0.3, 0.9, 2, n)
            assert len(full_system(spec, 1.0, 1.0)) == n + 1

