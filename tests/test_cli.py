import cmath
import json
import subprocess
import sys

import pytest

from decadic import polynomial, shooting, solvers, verify
from decadic.cli import _canonical, main

CBRT192 = 192 ** (1 / 3)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSturmianCommand:
    def test_reference_multiplet(self, capsys):
        code, out, _ = run_cli(capsys, "sturmian", "--alpha", "2", "--beta", "0", "-N", "2")
        assert code == 0
        doc = json.loads(out)
        assert [s["d"] for s in doc["solutions"]] == [-12.0, -4.0]
        assert [s["F"] for s in doc["solutions"]] == [-4.0, 4.0]
        assert all(s["validated"] for s in doc["solutions"])
        assert doc["spec"]["big_m"] == 1

    def test_empty_result_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "sturmian", "--alpha", "0", "--beta", "1", "-N", "2")
        assert code == 1
        assert json.loads(out)["solutions"] == []

    def test_invalid_input_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "sturmian", "-N", "0")
        assert code == 2
        assert "n_states" in err

    def test_wrong_mode_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "sturmian", "-N", "2", "-M", "2")
        assert code == 2
        assert "M = 1" in err


class TestEnergiesCommand:
    def test_reference_multiplet(self, capsys):
        code, out, _ = run_cli(capsys, "energies", "--alpha", "0", "--beta", "0", "-N", "3")
        assert code == 0
        doc = json.loads(out)
        energies = [s["E"] for s in doc["solutions"]]
        assert energies == pytest.approx([0.0, CBRT192], abs=1e-9)
        assert doc["solutions"][1]["d"] == pytest.approx(CBRT192**2 / 4)

    def test_n1_gives_single_negative_energy(self, capsys):
        code, out, _ = run_cli(capsys, "energies", "--alpha", "0.3", "--beta", "1.5", "-N", "1")
        assert code == 0
        doc = json.loads(out)
        assert [s["E"] for s in doc["solutions"]] == pytest.approx([-3.0])

    def test_invalid_m_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "energies", "-N", "3", "-M", "1")
        assert code == 2
        assert "M = 2" in err


class TestCoupledCommand:
    def test_m3_reference(self, capsys):
        code, out, _ = run_cli(capsys, "coupled", "--alpha", "0", "--beta", "0",
                               "-M", "3", "-N", "3")
        assert code == 0
        doc = json.loads(out)
        pairs = [(s["E"], s["d"]) for s in doc["solutions"]]
        assert len(pairs) == 2
        assert pairs[0][0] == pytest.approx(-5.9634570, abs=1e-6)
        assert pairs[1][0] == pytest.approx(10.7320301, abs=1e-6)

    def test_agrees_with_energies_at_m2(self, capsys):
        code_c, out_c, _ = run_cli(capsys, "coupled", "--alpha", "0.5", "--beta", "-0.5",
                                   "-M", "2", "-N", "2")
        code_e, out_e, _ = run_cli(capsys, "energies", "--alpha", "0.5", "--beta", "-0.5",
                                   "-N", "2")
        assert code_c == 0 and code_e == 0
        es_c = [s["E"] for s in json.loads(out_c)["solutions"]]
        es_e = [s["E"] for s in json.loads(out_e)["solutions"]]
        assert es_c == pytest.approx(es_e, abs=1e-8)

    def test_empty_result_exits_one(self, capsys, monkeypatch):
        # an extreme rank tolerance makes the acceptance gate reject every
        # candidate; an empty accepted set is a valid outcome and exits 1
        monkeypatch.setattr(solvers, "_RANK_RTOL", 1e-30)
        code, out, _ = run_cli(capsys, "coupled", "--alpha", "1", "--beta", "2",
                               "-M", "3", "-N", "2")
        assert code == 1
        assert json.loads(out)["solutions"] == []

    def test_degenerate_small_system_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "coupled", "--alpha", "0", "--beta", "0",
                               "-M", "4", "-N", "2")
        assert code == 2
        assert "M <= N + 1" in err


class TestWedgesCommand:
    def test_triple_choice(self, capsys):
        code, out, _ = run_cli(capsys, "wedges", "--degree", "3")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["pairs"]) == 3
        assert doc["self_symmetric"] == []

    def test_quartic_reference_values(self, capsys):
        import math
        code, out, _ = run_cli(capsys, "wedges", "--degree", "2")
        doc = json.loads(out)
        right = doc["pairs"][0]["right"]
        assert right["lo"] == pytest.approx(-math.pi / 8, abs=1e-12)
        assert right["hi"] == pytest.approx(math.pi / 8, abs=1e-12)
        assert len(doc["self_symmetric"]) == 2

    def test_delta_mode(self, capsys):
        import math
        code, out, _ = run_cli(capsys, "wedges", "--delta", "4")
        doc = json.loads(out)
        assert doc["half_width"] == pytest.approx(math.pi / 12, abs=1e-12)
        assert not doc["second_pair_real_compatible"]

    def test_requires_exactly_one_mode(self, capsys):
        assert run_cli(capsys, "wedges")[0] == 2
        assert run_cli(capsys, "wedges", "--degree", "3", "--delta", "1")[0] == 2

    @pytest.mark.parametrize("delta, message", [
        ("inf", "delta must be finite and exceed -2"),
        ("1e300", "every delta in [-1.99, 1e15]")])
    def test_unresolvable_delta_exits_two(self, capsys, delta, message):
        code, out, err = run_cli(capsys, "wedges", "--delta", delta)
        assert (code, out) == (2, "")
        assert message in err
        assert "empty sector" not in err


class TestShootCommand:
    def test_recovers_reference_energy(self, capsys):
        d = CBRT192**2 / 4
        code, out, _ = run_cli(capsys, "shoot", "--alpha", "0", "--beta", "0",
                               "-M", "2", "-N", "3", "--d", repr(d),
                               "--e-guess", "5.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["converged"] is True
        assert doc["result"]["energy"] == pytest.approx(CBRT192, abs=1e-6)

    @staticmethod
    def assert_reference_level(code, out):
        # the reference shot converged on 192^(1/3), started at
        # x_max - 0.5i inside the decay sector centred on 0
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["result"]["energy"] - CBRT192) <= 1e-9
        start = complex(doc["contour"]["x_max"], -0.5)
        assert shooting._DECAY_SECTORS[0].contains(cmath.phase(start))

    def test_non_convergence_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "shoot", "--alpha", "0", "--beta", "0",
                               "-M", "2", "-N", "3", "--d", "8.32",
                               "--e-guess", "-50", "--e-bound", "100")
        assert code == 1
        assert json.loads(out)["result"]["converged"] is False

    @pytest.mark.parametrize("flag, value", [
        ("--residual-tol", "0"), ("--residual-tol", "nan"), ("--e-bound", "0"),
        ("--max-iter", "0"), ("--max-iter", "-1"), ("--e-guess", "nan"),
        ("--e-guess", "inf"), ("--d", "nan"), ("--d", "-inf"), ("--x-max", "inf"),
        ("--epsilon", "inf"), ("--x-max", "1e40"), ("--epsilon", "1e40"),
        ("--epsilon", "1e-300")])
    def test_invalid_numeric_option_exits_two(self, capsys, flag, value):
        # "--flag=value", so that argparse takes "-inf" as a value
        code, out, err = run_cli(capsys, "shoot", "-M", "2", "-N", "3",
                                 "--d", "8.320335292207618", "--e-guess", "5.5",
                                 f"{flag}={value}")
        if flag == "--epsilon" and value == "1e40":
            # a finite depth is admissible: the path transits at 0.5
            self.assert_reference_level(code, out)
            return
        assert code == 2
        assert out == ""
        assert "error:" in err
        # rejected by decadic's own checks, not by scipy's on the initial state
        assert "y0" not in err
        if flag in ("--e-guess", "--d", "--e-bound"):
            assert f"error: {flag} must be" in err
        if flag == "--x-max" and value == "1e40":
            # r^10 overflows at the contour start, though r^5 does not
            assert "x_max is too large" in err
        if flag == "--epsilon" and value == "1e-300":
            # r^2 = -epsilon^2 at the match point would underflow to 0
            assert "epsilon must be at least 2**-511" in err

    @pytest.mark.parametrize("options", [
        ("--e-guess", "5.6", "--epsilon", "1", "--x-max", "1.5"),
        ("--e-guess", "5.5", "--epsilon", "1.2"),
        ("--e-guess", "5.5", "--epsilon", "8"),
        ("--e-guess", "5.5", "--x-max", "0.3")], ids=["x_max1.5", "eps1.2", "eps8", "x_max0.3"])
    def test_end_outside_decay_sectors_exits_two(self, capsys, options):
        # a start outside (-pi/12, pi/12) quantizes on another recipe: from
        # 1.5 - i a shot converged at E = 8.779, where the exact level is
        # 192^(1/3) = 5.769, and from 0.3 - 0.5i, in the sector centred on
        # -pi/3, at E = 7.059.  The path transits at depth min(epsilon, 0.5),
        # so at epsilon 1.2 and 8 it starts at 2.5 - 0.5i, inside the
        # sector, and finds the exact level
        code, out, err = run_cli(capsys, "shoot", "--alpha", "0", "--beta", "0",
                                 "-M", "2", "-N", "3", "--d", "8.320335292207618", *options)
        if "--epsilon" in options and "--x-max" not in options:
            self.assert_reference_level(code, out)
            return
        assert code == 2
        assert out == ""
        assert "not strictly inside any decay sector" in err
        if "--epsilon" in options:
            assert "x_max must be above min(epsilon, 0.5) / tan(pi/12), ~1.866" in err


class TestSweepCommand:
    def test_grid_shape_and_discriminant(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "-M", "1", "-N", "2",
                             "--alpha-min", "-4", "--alpha-max", "4", "--alpha-steps", "9",
                             "--beta-min", "-4", "--beta-max", "4", "--beta-steps", "9",
                             "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "alpha,beta,n_real,validated"
        assert len(lines) == 1 + 9 * 9
        for line in lines[1:]:
            a_s, b_s, n_s, v_s = line.split(",")
            a, b, n = float(a_s), float(b_s), int(n_s)
            if a * a > 4 * b:
                assert n == 2, line
            elif a * a < 4 * b:
                assert n == 0, line
            else:
                # discriminant boundary: double coupling, still counted twice
                assert n == 2, line
            assert v_s == "true"

    def test_single_point_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "-M", "1", "-N", "2",
                               "--alpha-min", "2", "--alpha-max", "2", "--alpha-steps", "1",
                               "--beta-min", "0", "--beta-max", "0", "--beta-steps", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].endswith(",2,true")

    def test_invalid_grid_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "-M", "1", "-N", "2",
                             "--alpha-min", "0", "--alpha-max", "1", "--alpha-steps", "0",
                             "--beta-min", "0", "--beta-max", "1", "--beta-steps", "3")
        assert code == 2

    def test_unsupported_m_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "-M", "3", "-N", "2",
                             "--alpha-min", "0", "--alpha-max", "1", "--alpha-steps", "2",
                             "--beta-min", "0", "--beta-max", "1", "--beta-steps", "2")
        assert code == 2


@pytest.mark.parametrize("name, value", [("alpha", "inf"), ("alpha", "-inf"),
                                         ("beta", "nan")])
@pytest.mark.parametrize("command", [
    ["sturmian", "-N", "2"], ["energies", "-N", "3"], ["coupled", "-M", "3", "-N", "4"],
    ["shoot", "-M", "2", "-N", "3", "--d", "8.32", "--e-guess", "5.5"]],
    ids=["sturmian", "energies", "coupled", "shoot"])
def test_non_finite_shape_parameter_exits_two(capsys, command, name, value):
    # "--name=value", so that argparse takes "-inf" as a value
    code, out, err = run_cli(capsys, *command, f"--{name}={value}")
    assert code == 2
    assert out == ""
    assert f"error: {name} must be finite" in err


@pytest.mark.parametrize("name, value", [("alpha", "inf"), ("alpha", "-inf"),
                                         ("beta", "nan")])
def test_non_finite_sweep_grid_exits_two(capsys, name, value):
    bounds = {"alpha": "0", "beta": "0", name: value}
    code, out, err = run_cli(capsys, "sweep", "-M", "1", "-N", "2",
                             f"--alpha-min={bounds['alpha']}", f"--alpha-max={bounds['alpha']}",
                             "--alpha-steps", "1",
                             f"--beta-min={bounds['beta']}", f"--beta-max={bounds['beta']}",
                             "--beta-steps", "1")
    assert code == 2
    assert out == ""
    assert f"error: {name} must be finite" in err


@pytest.mark.parametrize("argv", [
    ["sturmian", "-N", "3", "--beta=1e200"],
    ["sturmian", "-N", "2", "--alpha=1e150", "--beta=-1e300"],
    ["sweep", "-M", "1", "-N", "2", "--alpha-min=0", "--alpha-max=0", "--alpha-steps=1",
     "--beta-min=1e200", "--beta-max=1e200", "--beta-steps=1"],
    ["energies", "-N", "3", "--beta=1e200"],
    ["energies", "-N", "3", "--alpha=1e200"],
    ["sweep", "-M", "2", "-N", "3", "--alpha-min=0", "--alpha-max=0", "--alpha-steps=1",
     "--beta-min=1e200", "--beta-max=1e200", "--beta-steps=1"],
    ["coupled", "-M", "3", "-N", "3", "--beta=1e200"]],
    ids=["sturmian-beta", "sturmian-alpha-beta", "sweep", "energies-beta", "energies-alpha",
         "sweep-m2", "coupled-beta"])
def test_overflowing_m1_matrix_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "overflows the float range at alpha =" in err
    assert "infs or NaNs" not in err
    assert "too large" not in err


class TestCanonicalJson:
    def test_round_trip_is_byte_identical(self, capsys):
        for argv in (("sturmian", "--alpha", "2", "--beta", "0", "-N", "2"),
                     ("energies", "--alpha", "0", "--beta", "0", "-N", "3"),
                     ("wedges", "--degree", "3"),
                     ("wedges", "--delta", "1.0")):
            _, out, _ = run_cli(capsys, *argv)
            doc = json.loads(out)
            assert _canonical(doc) + "\n" == out

    @pytest.mark.parametrize("argv", [
        ("sturmian", "--alpha", "2", "--beta", "0", "-N", "2"),
        ("energies", "-N", "3"),
        ("coupled", "-M", "3", "-N", "3"),
    ], ids=["sturmian", "energies", "coupled"])
    def test_tolerances_are_the_solver_constants(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert list(json.loads(out)["tolerances"].items()) == [
            ("reality", polynomial._REAL_TOLERANCE), ("rank", solvers._RANK_RTOL),
            ("residual", verify._RESIDUAL_TOL)]

    def test_float_format(self, capsys):
        _, out, _ = run_cli(capsys, "sturmian", "--alpha", "2", "--beta", "0", "-N", "2")
        assert "-1.200000000000e+01" in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "sturmian", "--alpha", "2", "--beta", "0",
                               "-N", "2", "--out", str(path))
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["spec"]["alpha"] == 2.0

    @pytest.mark.parametrize("argv", [
        ("sturmian", "--alpha", "2", "--beta", "0", "-N", "2"),
        ("sweep", "-N", "2", "--alpha-min=-4", "--alpha-max=4", "--alpha-steps=3",
         "--beta-min=-4", "--beta-max=4", "--beta-steps=3"),
    ], ids=["sturmian", "sweep"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, argv):
        missing = tmp_path / "no-such-dir" / "result.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(missing))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "no-such-dir" in err
        assert not missing.parent.exists()


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run([sys.executable, "-m", "decadic.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_malformed_flags_exit_two(self):
        proc = subprocess.run([sys.executable, "-m", "decadic.cli", "sturmian", "--bogus"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
