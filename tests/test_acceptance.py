"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity (run with -s to see the lines).
All tolerances are fixed here, not configurable."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

import decadic.recurrence as recurrence
from decadic import (
    COUPLING,
    ENERGY,
    Contour,
    ModelSpec,
    Poly,
    det_bipoly,
    find_eigenvalue,
    lower_sector_pairs,
    main_matrix,
    ode_residual_poly,
    potential_coeffs,
    pt_pairs,
    recurrence_residual,
    roots,
    sectors_for_degree,
    shifted_coupling_poly,
    small_matrix,
    solve_coupled,
    solve_energies,
    solve_sturmian,
)
from decadic.cli import main as cli_main

CBRT192 = 192 ** (1 / 3)


def report(line):
    print(f"\n[acceptance] {line}")


def coupling_table(n, al, be):
    """det(main - F*I) in the shifted coupling for N = 1..5; the N = 1 row
    is the determinant-convention form -F of the trivial relation F = 0."""
    return {
        1: Poly((0, -1)),
        2: Poly((16 * be - 4 * al**2, 0, 1)),
        3: Poly((256, 16 * al**2 - 64 * be, 0, -1)),
        4: Poly((144 * al**4 - 1152 * be * al**2 + 2304 * be**2, -1536,
                 160 * be - 40 * al**2, 0, 1)),
        5: Poly((196608 * be - 49152 * al**2,
                 8192 * be * al**2 - 1024 * al**4 - 16384 * be**2,
                 5376, 80 * al**2 - 320 * be, 0, -1)),
    }[n]


def test_criterion_01_coupling_polynomial_table():
    rng = random.Random(20240801)
    start = time.monotonic()
    checked = 0
    for _ in range(20):
        al = Fraction(rng.randint(-10, 10), rng.randint(2, 4))
        be = Fraction(rng.randint(-10, 10), rng.randint(2, 4))
        assert abs(al) <= 5 and abs(be) <= 5
        for n in range(1, 6):
            spec = ModelSpec(alpha=al, beta=be, big_m=1, n_states=n)
            assert shifted_coupling_poly(spec) == coupling_table(n, al, be)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(f"criterion 1 PASS: {checked} coupling polynomials bit-exact in {elapsed:.3f}s")


def test_criterion_02_m2_precondition_identity():
    rng = random.Random(2)
    for _ in range(10):
        spec = ModelSpec(alpha=Fraction(rng.randint(-9, 9), 3),
                         beta=Fraction(rng.randint(-9, 9), 3),
                         big_m=2, n_states=rng.randint(2, 6))
        det = det_bipoly(small_matrix(spec, ENERGY, COUPLING))
        assert det == ENERGY * ENERGY - 4 * COUPLING
    report("criterion 2 PASS: small determinant at M=2 is identically E^2 - 4d")


def test_criterion_03_reference_energy_multiplet():
    spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
    mult = solve_energies(spec)
    energies = [e.energy for e in mult]
    assert len(energies) == 2
    assert abs(energies[0] - 0.0) <= 1e-9
    assert abs(energies[1] - 5.768998281229633) <= 1e-9
    assert all(e.validated for e in mult)
    report(f"criterion 3 PASS: validated energies (0, {energies[1]:.9f})")


def test_criterion_04_quintic_root_containment():
    rng = random.Random(4)
    worst = 0.0
    for _ in range(20):
        al, be = rng.uniform(-3, 3), rng.uniform(-3, 3)
        exact = ModelSpec(alpha=Fraction(al), beta=Fraction(be), big_m=2, n_states=3)
        det = det_bipoly(main_matrix(exact, ENERGY, COUPLING))
        secular = det(Poly((0, 0, Fraction(1, 4)))).as_float()
        quintic = Poly((
            -1024 * be * al**2 - 1280 * be**2 + 4096 * al - 32 * be**5 + 384 * be**3 * al,
            -256 * be - 512 * al**2 + 192 * be**2 * al - 16 * be**4,
            -96 * be * al + 192 + 16 * be**3,
            -48 * al + 8 * be**2,
            -2 * be,
            -1.0))
        scale = secular.max_abs_coeff()
        for root in roots(quintic).roots:
            z = root.value
            rel = abs(secular(z)) / (scale * max(1.0, abs(z)) ** secular.degree)
            worst = max(worst, rel)
            assert rel <= 1e-8
    report(f"criterion 4 PASS: quintic roots satisfy the secular determinant "
           f"(worst relative residual {worst:.2e})")


def test_criterion_05_sturmian_spot_check():
    spec = ModelSpec(alpha=2.0, beta=0.0, big_m=1, n_states=2)
    result = solve_sturmian(spec)
    assert result.d_values == pytest.approx([-12.0, -4.0], abs=1e-12)
    for f in result.shifted_couplings:
        assert f * f == 4 * spec.alpha**2 - 16 * spec.beta
    report(f"criterion 5 PASS: d = {tuple(result.d_values)}, "
           f"F^2 = 4a^2 - 16b exactly")


def test_criterion_06_residual_gate():
    start = time.monotonic()
    count = 0
    # float-mode solutions across the solver matrix
    for n in range(1, 13):
        spec = ModelSpec(alpha=0.8, beta=-0.4, big_m=1, n_states=n)
        result = solve_sturmian(spec)
        for d, h in zip(result.d_values, result.h_vectors):
            assert recurrence_residual(spec, 0.0, d, h) <= 1e-10
            count += 1
        spec = ModelSpec(alpha=-0.6, beta=0.3, big_m=2, n_states=n)
        for entry in solve_energies(spec):
            assert entry.recurrence_residual <= 1e-10
            count += 1
    for big_m, n in ((2, 3), (2, 4), (3, 3), (3, 4), (3, 6)):
        spec = ModelSpec(alpha=0.5, beta=0.2, big_m=big_m, n_states=n)
        for pair in solve_coupled(spec):
            res = recurrence_residual(spec, pair.energy, pair.quadratic_coupling, pair.h)
            assert res <= 1e-10
            count += 1
    # rational-mode solutions: the independent symbolic residual must be
    # the zero polynomial, bit-exact
    zero = Poly((Fraction(0),))
    rational_cases = [
        (ModelSpec(alpha=Fraction(2), beta=Fraction(0), big_m=1, n_states=2),
         0, -4, (1, Fraction(1, 2))),
        (ModelSpec(alpha=Fraction(0), beta=Fraction(0), big_m=2, n_states=3),
         0, 0, (0, 0, 1)),
        (ModelSpec(alpha=Fraction(0), beta=Fraction(0), big_m=1, n_states=1),
         0, 0, (1,)),
        (ModelSpec(alpha=Fraction(0), beta=Fraction(0), big_m=2, n_states=2),
         4, 4, (1, 1)),
        (ModelSpec(alpha=Fraction(1), beta=Fraction(2), big_m=3, n_states=2),
         0, 6, (1, 1)),
    ]
    for spec, e0, d0, h in rational_cases:
        assert ode_residual_poly(spec, e0, d0, h) == zero
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(f"criterion 6 PASS: {count} solutions through the residual gate "
           f"in {elapsed:.2f}s")


def test_criterion_07_wedge_geometry():
    import math
    quartic = sectors_for_degree(2)
    expected = [(-math.pi / 8, math.pi / 8), (3 * math.pi / 8, 5 * math.pi / 8),
                (7 * math.pi / 8, 9 * math.pi / 8), (11 * math.pi / 8, 13 * math.pi / 8)]
    for sector, (lo, hi) in zip(quartic, expected):
        assert abs(sector.lo - lo) <= 1e-14
        assert abs(sector.hi - hi) <= 1e-14
    pairs, fixed = pt_pairs(3)
    assert len(pairs) == 3 and not fixed
    lp = lower_sector_pairs(4.0)
    assert abs(lp.half_width - math.pi / 12) <= 1e-14
    report("criterion 7 PASS: quartic sectors exact, 3 mirror pairs at z=3, "
           "half-width pi/12 at delta=4")


def test_criterion_08_shooting_cross_check():
    spec = ModelSpec(alpha=0.0, beta=0.0, big_m=2, n_states=3)
    coeffs = potential_coeffs(spec, CBRT192**2 / 4)
    start = time.monotonic()
    base = find_eigenvalue(coeffs, spec.angular_momentum, 5.5,
                           Contour(epsilon=0.5, x_max=4.0))
    elapsed = time.monotonic() - start
    assert base.converged
    assert abs(base.energy - CBRT192) <= 1e-6
    assert elapsed < 10.0
    recovered = [base.energy]
    for eps in (0.25, 1.0):
        result = find_eigenvalue(coeffs, spec.angular_momentum, 5.7, Contour(epsilon=eps))
        assert result.converged
        recovered.append(result.energy)
    spread = max(recovered) - min(recovered)
    assert spread <= 1e-5
    report(f"criterion 8 PASS: E = {base.energy:.9f} in {elapsed:.2f}s, "
           f"epsilon spread {spread:.2e}")


def test_criterion_09_coupled_solver_equivalence():
    rng = random.Random(9)
    for _ in range(20):
        spec = ModelSpec(alpha=rng.uniform(-2.5, 2.5), beta=rng.uniform(-2.5, 2.5),
                         big_m=2, n_states=rng.randint(1, 4))
        via_energies = [(e.energy, e.quadratic_coupling) for e in solve_energies(spec)]
        via_coupled = [(p.energy, p.quadratic_coupling) for p in solve_coupled(spec)]
        assert len(via_energies) == len(via_coupled), spec
        for (e1, d1), (e2, d2) in zip(via_energies, via_coupled):
            assert abs(e1 - e2) <= 1e-8 * (1 + abs(e1))
            assert abs(d1 - d2) <= 1e-8 * (1 + abs(d1))

    spec = ModelSpec(alpha=0.0, beta=0.0, big_m=3, n_states=3)
    accepted = [(p.energy, p.quadratic_coupling) for p in solve_coupled(spec)]

    def smallest_sv(point):
        full = np.array(recurrence.full_system(spec, point[0], point[1]), dtype=float)
        return np.linalg.svd(full, compute_uv=False)[-1]

    from scipy.optimize import minimize
    grid = np.linspace(-20, 20, 321)
    values = np.array([[smallest_sv((e, d)) for d in grid] for e in grid])
    oracle = set()
    for i in range(1, len(grid) - 1):
        for j in range(1, len(grid) - 1):
            if values[i, j] < 1.0 and values[i, j] <= values[i - 1:i + 2, j - 1:j + 2].min():
                res = minimize(smallest_sv, [grid[i], grid[j]], method="Nelder-Mead",
                               options=dict(xatol=1e-13, fatol=1e-14, maxiter=4000))
                if res.fun < 1e-8:
                    oracle.add((round(float(res.x[0]), 6), round(float(res.x[1]), 6)))
    assert oracle == set((round(e, 6), round(d, 6)) for e, d in accepted)
    report(f"criterion 9 PASS: M=2 equivalence over 20 draws; "
           f"M=3 oracle matches {sorted(oracle)}")


def test_criterion_10_reality_domain_sweep(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    start = time.monotonic()
    code = cli_main(["sweep", "-M", "1", "-N", "2",
                     "--alpha-min", "-4", "--alpha-max", "4", "--alpha-steps", "41",
                     "--beta-min", "-4", "--beta-max", "4", "--beta-steps", "41",
                     "--out", str(out_file)])
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 5.0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "alpha,beta,n_real,validated"
    assert len(lines) == 1 + 41 * 41
    for line in lines[1:]:
        a_s, b_s, n_s, _ = line.split(",")
        a, b, n = float(a_s), float(b_s), int(n_s)
        if a * a > 4 * b:
            assert n == 2, line
        elif a * a < 4 * b:
            assert n == 0, line
    report(f"criterion 10 PASS: 41x41 sweep obeys the discriminant in {elapsed:.2f}s")
