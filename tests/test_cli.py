"""End-to-end command-line interface tests via main(argv)."""

import argparse
import json

import pytest

from expperiods import cli, quadrature
from expperiods.cli import load_problem, main, parse_complex_arg
from expperiods.cohomology import fiber_basis
from expperiods.cycles import cycle_basis, track_cycles
from expperiods.errors import SpecFormatError

AIRY = "fixtures/airy.spec"
BESSEL = "fixtures/bessel.spec"
GAUSSIAN = "fixtures/gaussian.spec"
LINEAR = "fixtures/linear.spec"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_bad_tol_exits_two(capsys, *argv):
    """A --tol outside (0, 1) is refused by argparse: exit 2, before any work."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "tol must be a float in (0, 1)" in capsys.readouterr().err


def assert_unknown_tol_exits_two(capsys, *argv):
    """A command without --tol refuses it as an unknown option: exit 2, before any work."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def assert_bad_int_exits_two(capsys, *argv, what="a positive integer"):
    """A bad integer flag is refused by argparse: exit 2, before any work."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"expected {what}" in capsys.readouterr().err


class TestProblemFiles:
    def test_fixture_loads(self):
        spec, tol = load_problem(AIRY)
        assert spec.label == "airy"
        assert tol == 1e-10

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_text("fiber = affine_line\ng = t*u\nfrobnicate = 3\n")
        with pytest.raises(SpecFormatError, match="unknown key"):
            load_problem(str(p))

    def test_missing_g_rejected(self, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_text("fiber = affine_line\n")
        with pytest.raises(SpecFormatError, match="missing required key"):
            load_problem(str(p))

    def test_bad_fiber_rejected(self, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_text("fiber = projective_line\ng = t*u\n")
        with pytest.raises(SpecFormatError, match="fiber must be"):
            load_problem(str(p))

    @pytest.mark.parametrize("tol", ["0", "-1", "1", "nan", "abc"])
    def test_bad_tol_rejected(self, tmp_path, tol):
        p = tmp_path / "bad.spec"
        p.write_text(f"fiber = affine_line\ng = t*u\ntol = {tol}\n")
        with pytest.raises(SpecFormatError, match=r"tol must be a float in \(0, 1\)"):
            load_problem(str(p))

    def test_syntax_error_exit_code(self, capsys, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_text("fiber affine_line\n")
        code, _out, err = run(capsys, "derive", str(p))
        assert code == 1
        assert "key = value" in err

    def test_deep_nesting_exits_one(self, capsys, tmp_path):
        """g nested past Python's parser limit: an error line, not a traceback."""
        p = tmp_path / "deep.spec"
        p.write_text("fiber = affine_line\ng = " + "(" * 250 + "t*u" + ")" * 250 + "\n")
        code, _out, err = run(capsys, "derive", str(p))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_huge_power_exits_one(self, capsys, tmp_path):
        """A 20-byte g whose expansion would take hours: refused before any product."""
        p = tmp_path / "power.spec"
        p.write_text("fiber = affine_line\ng = (u+t)^10000\n")
        code, _out, err = run(capsys, "derive", str(p))
        assert code == 1
        assert err.startswith("error:") and "too large" in err

    def test_missing_file_exit_code(self, capsys):
        code, _out, err = run(capsys, "derive", "/nonexistent/x.spec")
        assert code == 1

    def test_complex_argument_parsing(self):
        assert parse_complex_arg("1.5") == 1.5 + 0.0j
        assert parse_complex_arg("1,-2") == 1.0 - 2.0j
        with pytest.raises(Exception):
            parse_complex_arg("abc")
        for text in ("nan", "inf", "-inf", "1,nan", "nan,1", "1,-inf", "infinity,0", "1e999"):
            with pytest.raises(argparse.ArgumentTypeError, match="finite"):
                parse_complex_arg(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["periods", AIRY, "--t", "nan"],
            ["cycles", AIRY, "--t", "inf"],
            ["verify", AIRY, "--t", "1,nan"],
            ["samples", AIRY, "--path", "1", "nan,1"],
            ["monodromy", AIRY, "--center", "inf"],
            ["monodromy", GAUSSIAN, "--center", "0", "--basepoint", "1,inf"],
        ],
    )
    def test_non_finite_complex_argument_exits_two(self, capsys, argv):
        # refused by argparse, as a bad --tol is: exit 2 before any work
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected finite 're' or 're,im'" in err and "Traceback" not in err


class TestNegativeComplexArguments:
    # argparse takes only '-1' and '-1.5' for negative numbers by itself; every
    # complex argument must also take '-1.5,0.5' as a value, not as an option

    def test_t(self, capsys):
        code, out, _ = run(capsys, "periods", GAUSSIAN, "--t", "-1.5,0.5")
        assert code == 0 and json.loads(out)["t"] == [-1.5, 0.5]

    def test_path_vertices(self, capsys):
        # one sample per leg: the rows' t are the vertices, none near the pole at 0
        path = ["-1,1", "-2,0.5", "-1.5,-1"]
        code, out, _ = run(capsys, "samples", GAUSSIAN, "--path", *path, "--n", "2")
        assert code == 0
        rows = [line.split(",")[:2] for line in out.strip().splitlines()[1:]]
        assert rows == [v.split(",") for v in path]

    def test_center(self, capsys):
        code, out, _ = run(capsys, "monodromy", BESSEL, "--center", "-0.25,0.25")
        assert code == 0 and json.loads(out)["center"] == [-0.25, 0.25]

    def test_basepoint(self, capsys):
        code, out, _ = run(capsys, "monodromy", BESSEL, "--center", "0", "--basepoint", "-1,0.5")
        assert code == 0 and json.loads(out)["basepoint"] == [-1.0, 0.5]


class TestDerive:
    def test_airy_json(self, capsys):
        code, out, _ = run(capsys, "derive", AIRY)
        assert code == 0
        payload = json.loads(out)
        assert payload["basis"] == {"rank": 2, "exponents": [0, 1]}
        assert payload["connection"]["matrix"] == [["0", "-1"], ["-t", "0"]]
        assert payload["scalar_ode"]["coefficients"] == ["-t", "0", "1"]

    def test_bessel_json(self, capsys):
        code, out, _ = run(capsys, "derive", BESSEL)
        assert code == 0
        payload = json.loads(out)
        assert payload["basis"]["rank"] == 2
        assert payload["scalar_ode"]["coefficients"] == ["t", "1", "t"]

    def test_rank_zero_derives(self, capsys):
        code, out, _ = run(capsys, "derive", LINEAR)
        assert code == 0
        payload = json.loads(out)
        assert payload["basis"]["rank"] == 0
        assert payload["scalar_ode"]["order"] == 0

    @pytest.mark.parametrize("spec,start", [(AIRY, "5"), (AIRY, "-1"), (LINEAR, "3")])
    def test_start_out_of_range(self, capsys, spec, start):
        code, out, err = run(capsys, "derive", spec, "--start", start)
        assert code == 2
        assert out == ""
        assert err.startswith("precondition violated:") and err.count("\n") == 1

    def test_start_in_range(self, capsys):
        code, out, _ = run(capsys, "derive", AIRY, "--start", "1")
        assert code == 0
        assert json.loads(out)["scalar_ode"]["start"] == 1

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "derive", BESSEL)
        _, out2, _ = run(capsys, "derive", BESSEL)
        assert out1 == out2


class TestSingular:
    def test_gaussian_singular_ball(self, capsys):
        code, out, _ = run(capsys, "singular", GAUSSIAN)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["balls"]) == 1
        ball = payload["balls"][0]
        assert abs(ball["center"][0]) < 1e-12
        assert "ConnectionPole" in ball["provenance"]

    def test_linear_leading_coefficient_only(self, capsys):
        code, out, _ = run(capsys, "singular", LINEAR)
        assert code == 0
        payload = json.loads(out)
        assert [d["provenance"] for d in payload["defining"]] == [
            "LeadingCoeffVanishes"
        ]
        assert len(payload["balls"]) == 1


class TestCycles:
    def test_airy_cycles(self, capsys):
        code, out, _ = run(capsys, "cycles", AIRY, "--t", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 2
        assert len(payload["cycles"]) == 2
        # the decay depth is fixed, so neither the basis nor a cycle prints one
        assert "tol" not in payload and all("tol" not in c for c in payload["cycles"])

    def test_tol_is_not_an_option(self, capsys):
        assert_unknown_tol_exits_two(capsys, "cycles", AIRY, "--t", "1")

    def test_rank_zero_note(self, capsys):
        code, out, _ = run(capsys, "cycles", LINEAR, "--t", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 0 and payload["note"] == "rank zero"

    def test_at_pole_rejected(self, capsys):
        code, _out, err = run(capsys, "cycles", BESSEL, "--t", "0")
        assert code == 2
        assert "singular ball" in err

    def test_negligible_lc_states_the_failed_bound(self, capsys):
        # at t = 1e-14 Bessel's lc = t/2 is itself the largest coefficient, so the
        # refusal states the bound it failed, not a comparison with the others
        code, _out, err = run(capsys, "cycles", BESSEL, "--t", "1e-14")
        assert code == 2
        assert "|lc(t)| = 5e-15 <= 1e-13 * (1 + largest coefficient 5e-15) = 1e-13" in err
        assert "against the others" not in err


class TestPeriods:
    def test_gaussian_value(self, capsys):
        code, out, _ = run(capsys, "periods", GAUSSIAN, "--t", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 1
        entry = payload["entries"][0][0]
        import math

        assert abs(complex(*entry["value"]) - math.sqrt(math.pi)) < 1e-9

    def test_at_pole_exit_two(self, capsys):
        code, _out, _err = run(capsys, "periods", GAUSSIAN, "--t", "0")
        assert code == 2

    def test_small_leading_coefficient_names_what_was_measured(self, capsys):
        # at t = 1e30 the Airy lc is 1/3: small only against the u-coefficient -t
        code, out, err = run(capsys, "periods", AIRY, "--t", "1e30")
        assert code == 2 and out == ""
        assert "|lc(t)| = 0.333" in err and "largest coefficient 1e+30" in err
        assert "vanishes" not in err

    def test_bad_tol_exit_two(self, capsys):
        assert_bad_tol_exits_two(capsys, "periods", AIRY, "--t", "1", "--tol", "-1")

    @pytest.mark.parametrize("dps", ["-3", "0"])
    def test_bad_dps_exit_two(self, capsys, dps):
        assert_bad_int_exits_two(capsys, "periods", GAUSSIAN, "--t", "1", "--dps", dps)

    def test_rank_zero_grace(self, capsys):
        code, out, _ = run(capsys, "periods", LINEAR, "--t", "1")
        assert code == 0
        assert json.loads(out)["entries"] == []


class TestSamples:
    def test_csv_shape_and_determinism(self, capsys):
        argv = ("samples", GAUSSIAN, "--path", "1", "2", "--n", "4")
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        lines = out1.strip().splitlines()
        assert lines[0] == "t_re,t_im,p0_re,p0_im,p0_err"
        assert len(lines) == 6  # header + endpoint + 4 leg samples
        code, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_one_kernel_run_matches_one_run_per_sample(self, capsys, monkeypatch):
        # every sample is tracked first and all of them are integrated in one
        # kernel run; the CSV is the one of a separate run per sample
        spec, tol = load_problem(BESSEL)
        exponents = fiber_basis(spec).exponents
        samples = [1.0, 1.25 + 0.25j, 1.5 + 0.5j, 1.75 + 0.4j, 2.0 + 0.3j]
        current, want = cycle_basis(spec, samples[0]), []
        for i, t in enumerate(samples):
            if i:
                current = track_cycles(spec, current, [samples[i - 1], t])
            (pvs,), _ = quadrature.period_rows(spec, [current.cycles[1]], exponents, [t], tol)
            want.append([f"{t.real:.17g}", f"{t.imag:.17g}"] + [
                x for pv in pvs
                for x in (f"{pv.value.real:.17g}", f"{pv.value.imag:.17g}", f"{pv.error:.3e}")
            ])
        runs = []

        def counting(*args, **kwargs):
            runs.append(1)
            return real(*args, **kwargs)

        real = quadrature._gk_vector
        monkeypatch.setattr(quadrature, "_gk_vector", counting)
        code, out, _ = run(capsys, "samples", BESSEL, "--path", "1", "1.5,0.5", "2,0.3",
                           "--n", "4", "--cycle", "1")
        assert code == 0 and len(runs) == 1
        assert [line.split(",") for line in out.strip().splitlines()[1:]] == want

    def test_path_through_pole_exit_two(self, capsys):
        code, _out, _err = run(
            capsys, "samples", GAUSSIAN, "--path", "1", "-1", "--n", "4"
        )
        assert code == 2

    @pytest.mark.parametrize("path, rows", [(["1", "2", "3", "4"], 4), (["1", "2"], 6)])
    def test_row_count_is_one_plus_legs_times_n_over_legs(self, capsys, path, rows):
        # --n 5: max(1, 5 // 3) = 1 sample on each of 3 legs, or 5 on one leg
        code, out, _ = run(capsys, "samples", GAUSSIAN, "--path", *path, "--n", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + rows  # the header, then the rows

    def test_rank_zero_header_only(self, capsys):
        code, out, _ = run(capsys, "samples", LINEAR, "--path", "1", "2")
        assert code == 0
        assert out.strip() == "t_re,t_im"

    def test_bad_tol_exit_two(self, capsys):
        assert_bad_tol_exits_two(capsys, "samples", GAUSSIAN, "--path", "1", "2", "--tol", "-1")

    @pytest.mark.parametrize("n", ["-5", "0"])
    def test_bad_n_exit_two(self, capsys, n):
        assert_bad_int_exits_two(capsys, "samples", GAUSSIAN, "--path", "1", "2", "--n", n)

    def test_singular_set_computed_once(self, capsys, monkeypatch):
        calls = []

        def counting(spec, *args):
            calls.append(spec)
            return real(spec, *args)

        real = cli.singular_set
        monkeypatch.setattr(cli, "singular_set", counting)
        code, _out, _err = run(capsys, "samples", GAUSSIAN, "--path", "1", "2", "--n", "2")
        assert code == 0
        assert len(calls) == 1


class TestVerify:
    def test_gaussian_passes(self, capsys):
        code, out, err = run(capsys, "verify", GAUSSIAN, "--stokes", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert "ok" in err

    def test_negative_stokes_exit_two(self, capsys):
        assert_bad_int_exits_two(
            capsys, "verify", GAUSSIAN, "--stokes", "-1", what="a non-negative integer"
        )

    def test_zero_stokes_runs(self, capsys):
        code, out, _ = run(capsys, "verify", GAUSSIAN, "--stokes", "0")
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert "stokes_residual" not in names


class TestMonodromy:
    def test_gaussian_loop(self, capsys):
        code, out, _ = run(capsys, "monodromy", GAUSSIAN, "--center", "0")
        assert code == 0
        payload = json.loads(out)
        m = payload["m_cycle"]
        assert abs(m[0][0][0] + 1.0) < 1e-8

    def test_loop_through_pole_exit_two(self, capsys):
        code, _out, _err = run(
            capsys, "monodromy", GAUSSIAN, "--center", "0.5", "--basepoint", "1"
        )
        assert code == 2

    def test_loop_hits_singularity_exit_two(self, capsys):
        # the circle about 0.5 through 1 meets Bessel's pole at t = 0
        code, _out, err = run(
            capsys, "monodromy", BESSEL, "--center", "0.5", "--basepoint", "1"
        )
        assert code == 2
        assert "monodromy loop about" in err

    @pytest.mark.parametrize("problem, point", [(AIRY, "1"), (GAUSSIAN, "2")])
    def test_zero_radius_loop_exit_two(self, capsys, problem, point):
        # a loop of 25 copies of one point is no loop: refused, not a match
        code, out, err = run(capsys, "monodromy", problem, "--center", point, "--basepoint", point)
        assert code == 2 and out == ""
        assert "precondition violated: the monodromy loop about" in err
        assert "zero radius" in err

    def test_tol_is_not_an_option(self, capsys):
        assert_unknown_tol_exits_two(capsys, "monodromy", GAUSSIAN, "--center", "0")


class TestHugeCoefficient:
    """A coefficient beyond the double range: the exact commands still run, and
    every numeric command stops with exit 4 instead of an uncaught OverflowError."""

    @pytest.fixture
    def huge(self, tmp_path):
        path = tmp_path / "huge.spec"
        path.write_text("fiber = affine_line\ng = 10^400*u^3/3 - t*u\n")
        return str(path)

    @pytest.mark.parametrize("command", ["derive", "singular"])
    def test_exact_commands_run(self, capsys, huge, command):
        code, out, _err = run(capsys, command, huge)
        assert code == 0
        assert json.loads(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ("periods", "--t", "1"),
            ("cycles", "--t", "1"),
            ("samples", "--path", "1", "2", "--n", "2"),
            ("verify",),
            ("monodromy", "--center", "0"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_numeric_commands_exit_four(self, capsys, huge, argv):
        code, _out, err = run(capsys, argv[0], huge, *argv[1:])
        assert code == 4
        assert "budget exhausted" in err and "beyond the double range" in err
        assert "Traceback" not in err
