import math
import random
from fractions import Fraction

import pytest

import decadic.recurrence as recurrence
import decadic.verify as verify
from decadic import (
    ModelSpec,
    Poly,
    PotentialCoeffs,
    VerificationReport,
    ode_residual_poly,
    potential_coeffs,
    recurrence_residual,
    solve_energies,
    sturmian_multiplet,
    verify_solution,
)

ZERO = Poly((Fraction(0),))


def rational_sturmian_n2(alpha, t):
    """Exact rational M = 1, N = 2 solutions: pick alpha and t with
    4*alpha^2 - 16*beta = t^2, so the shifted couplings are +-t."""
    beta = (4 * alpha * alpha - t * t) / 16
    spec = ModelSpec(alpha=alpha, beta=beta, big_m=1, n_states=2)
    solutions = []
    for f in (t, -t):
        d = f + beta * beta - 4 * alpha
        # row 2 reads 4 h_0 - (f + 2 alpha) h_1 = 0
        denom = f + 2 * alpha
        if denom != 0:
            h = (Fraction(1), Fraction(4) / denom)
        else:
            h = (Fraction(0), Fraction(1))
        solutions.append((spec, Fraction(0), d, h))
    return solutions


# -- reference: the symbolic residual in per-operation Fraction arithmetic --


def _ref_mul(poly, series, out, mag, sign=1):
    for p, cp in poly.items():
        if cp == 0:
            continue
        for m, cs in series.items():
            if cs == 0:
                continue
            term = sign * cp * cs
            out[p + m] = out.get(p + m, Fraction(0)) + term
            mag[p + m] = mag.get(p + m, 0.0) + abs(float(term))


def _ref_series(spec, energy, h, coeffs):
    """{exponent: coefficient} of the residual and the summed |term| floats."""
    al, be, e0 = Fraction(spec.alpha), Fraction(spec.beta), Fraction(energy)
    big_l = Fraction(2 * spec.big_m - 1, 2)
    series = {2 * n: Fraction(c) for n, c in enumerate(h)}
    d1 = {m - 1: c * (m - big_l) for m, c in series.items()}
    d2 = {m - 1: c * (m - big_l) for m, c in d1.items()}
    g_prime = {5: Fraction(-1), 3: -al, 1: -be}
    g_second = {4: Fraction(-5), 2: -3 * al, 0: -be}
    g_prime_sq = {}
    for p1, c1 in g_prime.items():
        for p2, c2 in g_prime.items():
            g_prime_sq[p1 + p2] = g_prime_sq.get(p1 + p2, Fraction(0)) + c1 * c2
    bucket = {10: Fraction(1), 8: Fraction(coeffs.a), 6: Fraction(coeffs.b),
              4: Fraction(coeffs.c), 2: Fraction(coeffs.d)}
    for src in (g_prime_sq, g_second):
        for p, c in src.items():
            bucket[p] = bucket.get(p, Fraction(0)) - c
    bucket[0] = bucket.get(0, Fraction(0)) - e0
    out, mag = {}, {}
    _ref_mul(bucket, series, out, mag)
    _ref_mul(g_prime, d1, out, mag, sign=-2)
    _ref_mul({0: Fraction(-1)}, d2, out, mag)
    _ref_mul({-2: big_l * (big_l + 1)}, series, out, mag)
    return {m: c for m, c in out.items() if c != 0}, mag


def reference_ode_residual_poly(spec, energy, coupling, h):
    poly, _ = _ref_series(spec, energy, h, potential_coeffs(spec, coupling))
    out = [Fraction(0)] * (max(poly, default=-2) // 2 + 2)
    for m, c in poly.items():
        out[(m + 2) // 2] = c
    return Poly(out)


def reference_report(spec, energy, coupling, h):
    poly, mag = _ref_series(spec, energy, h, potential_coeffs(spec, coupling))
    scale = max(mag.values(), default=0.0)
    top = max((abs(float(c)) for c in poly.values()), default=0.0)
    ode = top / scale if poly and scale > 0 else 0.0
    rec = recurrence_residual(spec, energy, coupling, h)
    return VerificationReport(
        recurrence_residual=rec, ode_residual_max_coeff=ode,
        passed=any(x != 0 for x in h) and rec <= 1e-10 and ode <= 1e-10)


class TestIntegerResidualExactness:
    """The int-numerator residual equals the Fraction reference bit for bit:
    every report float and every polynomial coefficient."""

    @staticmethod
    def candidates(spec, solutions, rng):
        for entry in solutions:
            e0, d0, h = entry.energy, entry.quadratic_coupling, entry.h
            yield e0, d0, h
            yield e0 + 1e-3, d0, h
            yield e0, d0 * (1 + 1e-9), h
            yield e0, d0, tuple(x * (1 + 1e-7 * rng.random()) for x in h)
            yield e0, d0, tuple(x * 1e-300 for x in h)
            yield Fraction(e0), Fraction(d0), tuple(Fraction(x) / 3 for x in h)

    @pytest.mark.parametrize("big_m, sizes", [(1, (2, 7, 14, 30)), (2, (3, 7, 12))])
    def test_reports_and_polys_equal_reference(self, big_m, sizes):
        rng = random.Random(31 + big_m)
        shapes = [(0.5, -1.25), (-2.0, 0.75), (Fraction(1, 3), Fraction(-2, 7))]
        checked = 0
        for n in sizes:
            for alpha, beta in shapes:
                spec = ModelSpec(alpha=alpha, beta=beta, big_m=big_m, n_states=n)
                solve = sturmian_multiplet if big_m == 1 else solve_energies
                for e0, d0, h in self.candidates(spec, solve(spec).entries, rng):
                    assert verify_solution(spec, e0, d0, h) == reference_report(spec, e0, d0, h)
                    assert (ode_residual_poly(spec, e0, d0, h)
                            == reference_ode_residual_poly(spec, e0, d0, h))
                    checked += 1
        assert checked >= 100


class TestRecurrenceResidual:
    def test_exact_solution(self):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        assert recurrence_residual(spec, 0.0, -4.0, (1.0, 0.5)) == 0.0

    def test_perturbed_coupling(self):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        assert recurrence_residual(spec, 0.0, -4.1, (1.0, 0.5)) >= 0.01

    def test_trivial_vector(self):
        spec = ModelSpec(alpha=1.0, beta=1.0, big_m=2, n_states=3)
        assert recurrence_residual(spec, 0.3, 0.7, (0.0, 0.0, 0.0)) == 0.0

    def test_scale_invariance(self):
        spec = ModelSpec(alpha=0.4, beta=-1.2, big_m=2, n_states=3)
        rng = random.Random(2)
        h = tuple(rng.uniform(-2, 2) for _ in range(3))
        base = recurrence_residual(spec, 1.1, -0.3, h)
        for factor in (17.0, -0.003, 1e6):
            scaled = tuple(factor * x for x in h)
            assert recurrence_residual(spec, 1.1, -0.3, scaled) == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("energy, h, name", [
        (0.0, (float("nan"), 0.5), "h"),
        (0.0, (1.0, float("nan")), "h"),
        (float("nan"), (1.0, 0.5), "energy"),
    ])
    def test_non_finite_input_raises(self, energy, h, name):
        # max(worst, nan) kept worst, so each of these read 0.0
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            recurrence_residual(spec, energy, -4.0, h)

    def test_non_finite_coupling_raises(self):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        with pytest.raises(ValueError, match="^coupling must be finite"):
            recurrence_residual(spec, 0.0, float("inf"), (1.0, 0.5))

    def test_length_check(self):
        spec = ModelSpec(alpha=0, beta=0, big_m=1, n_states=2)
        with pytest.raises(ValueError):
            recurrence_residual(spec, 0.0, 0.0, (1.0,))

    def test_huge_h_keeps_its_residual(self):
        # at h = (1e308, 5e307) a term overflowed, the row sum became NaN
        # and max(worst, nan) read 0.0; verify_solution raised OverflowError
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        base = recurrence_residual(spec, 0.0, -4.1, (1e307, 5e306))
        assert base >= 0.01
        assert recurrence_residual(spec, 0.0, -4.1, (1e308, 5e307)) == base
        report = verify_solution(spec, 0.0, -4.1, (1e308, 5e307))
        assert report == verify_solution(spec, 0.0, -4.1, (1e307, 5e306))
        assert not report.passed
        # h scaled by a power of two keeps every bit of the report
        huge = verify_solution(spec, 0.0, -4.1, (2.0 ** 1023, 2.0 ** 1022))
        assert huge == verify_solution(spec, 0.0, -4.1, (1.0, 0.5))

    def test_non_finite_row_sum_is_infinite(self):
        # B_n = E - beta * (4n + 2 - 2M) overflows to inf
        spec = ModelSpec(alpha=0.0, beta=-1e308, big_m=1, n_states=2)
        assert recurrence_residual(spec, 1.7e308, 0.0, (1.0, 0.5)) == math.inf

    @pytest.mark.parametrize("energy, coupling, h", [
        (Fraction(10 ** 400), 0, (1, 1)),
        (0, Fraction(10 ** 400), (1, 1)),
        (0, 0, (Fraction(10 ** 400), 1)),
    ])
    def test_exact_input_beyond_float_range_is_infinite(self, energy, coupling, h):
        # float() of each exact input raised OverflowError out of
        # verify_solution
        spec = ModelSpec(alpha=0, beta=0, big_m=1, n_states=2)
        assert recurrence_residual(spec, energy, coupling, h) == math.inf
        report = verify_solution(spec, energy, coupling, h)
        assert report.recurrence_residual == math.inf
        assert not report.passed

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1e160), (0.0, -1e308), (1e200, -1e308)])
    def test_out_of_range_candidate_fails(self, alpha, beta):
        # at beta = 1e160 an int / int of the ODE route exceeded the float
        # range, and at -1e308 the potential coefficient b = alpha^2 + 2 beta
        # is -inf (OverflowError in verify_solution); at alpha = 1e200 it is
        # inf - inf = nan (ValueError from Fraction)
        spec = ModelSpec(alpha=alpha, beta=beta, big_m=1, n_states=2)
        report = verify_solution(spec, 0.0, 0.0, (1.0, 0.5))
        assert report.recurrence_residual == math.inf
        assert report.ode_residual_max_coeff == math.inf
        assert not report.passed


def reference_recurrence_residual(spec, energy, coupling, h):
    """recurrence_residual by one coeffs() call per row, in the arithmetic
    of the spec's own alpha and beta, adding each row's four terms left to
    right (sum() of floats is compensated from Python 3.12 on)."""
    hs = [float(x) for x in h]
    e0, d0 = float(energy), float(coupling)
    shift = verify._unit_exponent(hs)
    hs = [math.ldexp(x, -shift) for x in hs]

    def h_at(k):
        return hs[k] if 0 <= k < len(hs) else 0.0

    worst = 0.0
    scale = 0.0
    for n in range(spec.n_states + 1):
        a, b, c, d = recurrence.coeffs(spec, n, e0, d0)
        terms = (float(a) * h_at(n + 1), float(b) * h_at(n),
                 float(c) * h_at(n - 1), float(d) * h_at(n - 2))
        total = ((terms[0] + terms[1]) + terms[2]) + terms[3]
        if not math.isfinite(total):
            return math.inf
        worst = max(worst, abs(total))
        scale = max(scale, max(abs(t) for t in terms))
    return worst / scale if scale > 0 else 0.0


def _shape_parameter(rng):
    kind = rng.choice(("float", "int", "eighths", "rational"))
    if kind == "float":
        return rng.uniform(-9, 9)
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "eighths":
        return Fraction(rng.randint(-72, 72), 8)
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice((3, 7, 11, 3 * 10 ** 5 + 7)))


def residual_cases(seed, count):
    """Seeded (spec, E, d, h): float, int, k/8 and non-dyadic Fraction alpha
    and beta, M = 1..5, N = 1..30, h from 1e-300 to 1e300 with zero entries
    and some all-zero vectors."""
    rng = random.Random(seed)
    for _ in range(count):
        spec = ModelSpec(alpha=_shape_parameter(rng), beta=_shape_parameter(rng),
                         big_m=rng.randint(1, 5), n_states=rng.randint(1, 30))
        # entries within a few decades of a common size, so that the order
        # of a row's additions shows in its total, and some far from it
        size = 10.0 ** rng.randint(-298, 298)
        h = [rng.choice((0.0, 10.0 ** rng.randint(-300, 300), size)) if rng.random() < 0.2
             else rng.uniform(-1, 1) * size * 10.0 ** rng.randint(-2, 2)
             for _ in range(spec.n_states)]
        if rng.random() < 0.05:
            h = [0.0] * spec.n_states
        yield spec, rng.uniform(-50, 50), rng.uniform(-50, 50), h


class TestResidualBitIdentity:
    def test_float_coeffs_equal_float_of_coeffs(self):
        for spec, e0, d0, _ in residual_cases(31, 300):
            rows = recurrence.float_coeffs(spec, e0, d0)
            assert len(rows) == spec.n_states + 1
            for n, row in enumerate(rows):
                want = [float(x).hex() for x in recurrence.coeffs(spec, n, e0, d0)]
                assert [x.hex() for x in row] == want
            # the acceptance gate's matrix: coeffs' (A_n, B_n, C_n, D_n) at
            # columns n+1, n, n-1, n-2 of row n, and 0 off the band
            band = [[0.0] * spec.n_states for _ in rows]
            for n, row in enumerate(band):
                for col, x in zip((n + 1, n, n - 1, n - 2), recurrence.coeffs(spec, n, e0, d0)):
                    if 0 <= col < spec.n_states:
                        row[col] = float(x)
            assert ([[float(x).hex() for x in row] for row in recurrence.full_system(spec, e0, d0)]
                    == [[x.hex() for x in row] for row in band])

    def test_residual_equals_the_coeffs_row_loop(self):
        zero = 0
        for spec, e0, d0, h in residual_cases(32, 600):
            got = recurrence_residual(spec, e0, d0, h)
            assert got.hex() == reference_recurrence_residual(spec, e0, d0, h).hex()
            zero += got == 0.0
        assert 0 < zero < 600

    @pytest.mark.parametrize("alpha, beta", [
        (Fraction(-11, 8), Fraction(2, 7)), (1.5e200, -3), (-2, -1.25e300)])
    def test_overflowing_row_total_is_infinite(self, alpha, beta):
        # h is scaled below 1, but B_1 h_1 + C_1 h_0 reads about 3.2e308
        # at E = -d = 1.7e308
        spec = ModelSpec(alpha=alpha, beta=beta, big_m=2, n_states=4)
        h = (1.9e300, 1.9e300, 1.9e300, 1.9e300)
        for e0, d0 in ((1.7e308, -1.7e308), (0.5, 0.25)):
            want = reference_recurrence_residual(spec, e0, d0, h)
            assert recurrence_residual(spec, e0, d0, h).hex() == want.hex()
        assert recurrence_residual(spec, 1.7e308, -1.7e308, h) == math.inf


class TestOdeResidualPoly:
    def test_rational_sturmian_solution_is_exact_zero(self):
        spec = ModelSpec(alpha=Fraction(2), beta=Fraction(0), big_m=1, n_states=2)
        poly = ode_residual_poly(spec, 0, -4, (Fraction(1), Fraction(1, 2)))
        assert poly == ZERO

    def test_spiked_ground_state(self):
        # N = 1, M = 1 at the origin of parameter space: psi is exact
        spec = ModelSpec(alpha=Fraction(0), beta=Fraction(0), big_m=1, n_states=1)
        assert ode_residual_poly(spec, 0, 0, (Fraction(1),)) == ZERO

    def test_m2_degenerate_state(self):
        spec = ModelSpec(alpha=Fraction(0), beta=Fraction(0), big_m=2, n_states=3)
        assert ode_residual_poly(spec, 0, 0, (0, 0, Fraction(1))) == ZERO

    def test_float_inputs_promote_exactly(self):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        assert ode_residual_poly(spec, 0.0, -4.0, (1.0, 0.5)) == ZERO

    @pytest.mark.parametrize("energy, coupling, h, name", [
        (math.nan, -4.0, (1.0, 0.5), "energy"),
        (math.inf, -4.0, (1.0, 0.5), "energy"),
        (0.0, -4.0, (math.nan, 0.5), "h"),
        (0.0, math.nan, (1.0, 0.5), "coupling"),
    ])
    def test_non_finite_input_names_the_argument(self, energy, coupling, h, name):
        # these surfaced as Fraction's "cannot convert NaN to integer ratio"
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ode_residual_poly(spec, energy, coupling, h)

    def test_broken_coupling_map_localized_at_quartic_order(self, monkeypatch):
        # drop the -4N contribution from the quartic coupling: the residual
        # must appear exactly at the r^4 * (leading series term) order,
        # i.e. index 3 of the returned polynomial
        spec = ModelSpec(alpha=Fraction(0), beta=Fraction(0), big_m=1, n_states=1)
        good = potential_coeffs(spec, Fraction(0))
        broken = PotentialCoeffs(a=good.a, b=good.b, c=good.c + 4 * spec.n_states,
                                 f=good.f, d=good.d)
        monkeypatch.setattr(verify, "potential_coeffs", lambda *args: broken)
        poly = ode_residual_poly(spec, 0, 0, (Fraction(1),))
        assert poly.coeffs[:3] == (0, 0, 0)
        assert poly.coeffs[3] == 4 * spec.n_states
        assert poly.degree == 3

    def test_regular_branch_closed_form_at_one_term(self):
        # N = M + 1 with h_0 = ... = h_(M-1) = 0 leaves one r^(L+1) term:
        # E = 2 beta (M + 1), d = beta^2 - 2 alpha (M + 2) solves it exactly
        rng = random.Random(23)
        for big_m in range(1, 6):
            for _ in range(12):
                al = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                be = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                spec = ModelSpec(alpha=al, beta=be, big_m=big_m, n_states=big_m + 1)
                h = (0,) * big_m + (Fraction(1),)
                poly = ode_residual_poly(spec, 2 * be * (big_m + 1),
                                         be * be - 2 * al * (big_m + 2), h)
                assert poly == ZERO

    def test_rows_match_recurrence_on_arbitrary_data(self):
        # strongest identity check: on arbitrary (not solution) data the
        # independent expansion reproduces minus the recurrence rows
        rng = random.Random(77)
        for _ in range(50):
            spec = ModelSpec(
                alpha=Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                beta=Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                big_m=rng.randint(1, 5),
                n_states=rng.randint(1, 6),
            )
            e0 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            d0 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            h = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(spec.n_states))
            poly = ode_residual_poly(spec, e0, d0, h)

            def h_at(k):
                return h[k] if 0 <= k < len(h) else Fraction(0)

            rows = []
            for n in range(spec.n_states + 1):
                a, b, c, d = recurrence.coeffs(spec, n, e0, d0)
                rows.append(a * h_at(n + 1) + b * h_at(n) + c * h_at(n - 1) + d * h_at(n - 2))
            expected = Poly([Fraction(0)] + [-r for r in rows])
            assert poly == expected

    def test_zero_equivalence_with_recurrence_residual(self):
        rng = random.Random(101)
        cases = []
        # far-from-solution data
        for _ in range(25):
            spec = ModelSpec(
                alpha=Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                beta=Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                big_m=rng.randint(1, 4),
                n_states=rng.randint(1, 5),
            )
            h = tuple(Fraction(rng.randint(1, 5)) for _ in range(spec.n_states))
            cases.append((spec, Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)), h))
        # exact rational solutions of several kinds
        for _ in range(15):
            al = Fraction(rng.randint(-6, 6), 2)
            t = Fraction(rng.randint(0, 8))
            cases.extend(rational_sturmian_n2(al, t))
        for _ in range(10):
            al = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            be = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            spec = ModelSpec(alpha=al, beta=be, big_m=2, n_states=1)
            cases.append((spec, -2 * be, be * be, (Fraction(1),)))
        for spec, e0, d0, h in cases:
            residual = recurrence_residual(spec, float(e0), float(d0),
                                           tuple(float(x) for x in h))
            poly = ode_residual_poly(spec, e0, d0, h)
            if poly == ZERO:
                assert residual <= 1e-12
            else:
                assert residual > 1e-12 or all(x == 0 for x in h)


class TestVerifySolution:
    def test_passes_on_exact_solution(self):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        report = verify_solution(spec, 0.0, -4.0, (1.0, 0.5))
        assert report.passed
        assert report.recurrence_residual <= 1e-14
        assert report.ode_residual_max_coeff == 0.0

    def test_fails_on_perturbed_solution(self):
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        report = verify_solution(spec, 0.0, -4.01, (1.0, 0.5))
        assert not report.passed

    def test_trivial_state_does_not_pass(self):
        # both residuals of h = 0 read 0, but the zero state is no solution
        spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
        report = verify_solution(spec, 0.0, -4.0, (0.0, 0.0))
        assert report.recurrence_residual == 0.0
        assert report.ode_residual_max_coeff == 0.0
        assert not report.passed

    def test_deterministic(self):
        spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
        first = verify_solution(spec, 0.0, 0.0, (0.0, 0.0, 1.0))
        second = verify_solution(spec, 0.0, 0.0, (0.0, 0.0, 1.0))
        assert first == second
        assert first.passed
