import argparse
import collections
import contextlib
import decimal
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from casimir_delta import cli, lifshitz, scenarios, validation
from casimir_delta.cli import build_parser, main
from casimir_delta.dielectric import ApproachVariant, IdealMetal, Plasma
from casimir_delta.perturbative import OMITTED_REMAINDER_NOTE


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def data_rows(csv_text):
    lines = [l for l in csv_text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [tuple(float(x) for x in l.split(",")) for l in lines[1:]]
    return header, rows


class TestFig1:
    def test_default_run(self, capsys):
        rc, out, _ = run(capsys, "fig1")
        assert rc == 0
        header, rows = data_rows(out)
        assert header == ["a_um", "dF_real_N_per_m2", "dF_ideal_N_per_m2"]
        assert len(rows) == 75
        real = [abs(r[1]) for r in rows]
        assert all(x > y for x, y in zip(real, real[1:]))
        ideal = {r[2] for r in rows}
        assert len(ideal) == 1

    def test_degenerate_grid_rejected(self, capsys):
        rc, _, err = run(capsys, "fig1", "--points", "2", "--a-min-um", "1", "--a-max-um", "1")
        assert rc == 1
        assert "error" in err

    def test_deterministic(self, capsys):
        rc1, out1, _ = run(capsys, "fig1", "--points", "10")
        rc2, out2, _ = run(capsys, "fig1", "--points", "10")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_header_embeds_config(self, capsys):
        _, out, _ = run(capsys, "fig1", "--points", "5", "--t2-k", "340")
        assert "# t2_k = 340.0" in out
        assert "# version = " in out

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, "fig1", "--points", "5", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["config"]["points"] == 5
        assert len(payload["rows"]) == 5
        assert "dF_real_N_per_m2" in payload["rows"][0]


class TestFig2:
    def test_ratio_claim(self, capsys):
        rc, out, _ = run(capsys, "fig2")
        assert rc == 0
        _, rows = data_rows(out)
        assert abs(rows[0][1]) / abs(rows[-1][1]) > 2.0
        ideal = [abs(r[2]) for r in rows]
        assert all(x > y for x, y in zip(ideal, ideal[1:]))

    def test_radius_does_not_change_output(self, capsys):
        _, out1, _ = run(capsys, "fig2", "--points", "8", "--radius-mm", "1")
        _, out2, _ = run(capsys, "fig2", "--points", "8", "--radius-mm", "3")
        assert out1 == out2


class TestFig3:
    def test_claims(self, capsys):
        rc, out, _ = run(capsys, "fig3")
        assert rc == 0
        header, rows = data_rows(out)
        assert header[0] == "T2_K"
        assert rows[0] == (300.0, 0.0, 0.0, 0.0)
        last = rows[-1]
        assert last[0] == 350.0
        assert abs(last[2]) / abs(last[1]) > 6.0
        assert last[2] > 0.0 > last[1]


class TestCompute:
    def test_sphere_plasma_default(self, capsys):
        rc, out, _ = run(capsys, "compute")
        assert rc == 0
        rec = json.loads(out)
        assert rec["units"] == "N"
        assert rec["delta_F"] == pytest.approx(-9.6e-14, rel=0.05, abs=0)
        assert rec["validity_warnings"] == []

    def test_modified_te_terms_reproduce_force(self, capsys):
        rc, out, _ = run(capsys, "compute", "--approach", "modified-te")
        assert rc == 0
        rec = json.loads(out)
        t = rec["terms_T2"]
        total = t["base"] * (
            1.0 + t["thermal_ideal"] + t["conductivity_first_order"]
            + t["conductivity_higher_order"] + t["cross_term"]
        ) - t["zero_frequency_te"]
        assert t["zero_frequency_te"] < 0.0
        # each printed field carries 9 significant digits
        assert total == pytest.approx(rec["force_T2"], rel=1e-7, abs=0)

    def test_oracle_deviation_small(self, capsys):
        rc, out, _ = run(capsys, "compute", "--geometry", "plates", "--a-um", "0.7", "--oracle")
        assert rc == 0
        rec = json.loads(out)
        assert rec["oracle"]["rel_deviation_T1"] < 0.05
        assert rec["oracle"]["rel_deviation_delta_F"] < 0.05

    @pytest.mark.parametrize("geometry", ["plates", "sphere"])
    def test_oracle_equal_engine_forces_give_null_deviation(self, capsys, geometry):
        # the engine's difference is exactly 0, so its relative deviation is undefined
        rc, out, err = run(capsys, "compute", "--geometry", geometry, "--oracle",
                           "--t1-k", "300", "--t2-k", "300")
        assert (rc, err) == (0, "")
        oracle = json.loads(out, parse_constant=_reject_constant)["oracle"]
        assert oracle["delta_F"] == 0.0
        assert oracle["rel_deviation_delta_F"] is None

    def test_ideal_equal_temperatures(self, capsys):
        rc, out, _ = run(capsys, "compute", "--approach", "ideal", "--t1-k", "300", "--t2-k", "300")
        assert rc == 0
        assert json.loads(out)["delta_F"] == 0.0

    def test_modified_te_plates_rejected(self, capsys):
        rc, _, err = run(capsys, "compute", "--geometry", "plates", "--approach", "modified-te")
        assert rc == 1
        assert "sphere" in err

    @pytest.mark.parametrize("geometry", ["plates", "sphere"])
    def test_remainder_note_for_real_metal_only(self, capsys, geometry):
        notes = {}
        for approach in ("plasma", "ideal"):
            rc, out, _ = run(capsys, "compute", "--geometry", geometry, "--approach", approach)
            assert rc == 0
            notes[approach] = json.loads(out)["notes"]
        assert notes == {"plasma": [OMITTED_REMAINDER_NOTE], "ideal": []}

    def test_out_of_range_warns_but_computes(self, capsys):
        rc, out, _ = run(capsys, "compute", "--a-um", "3.0")
        assert rc == 0
        rec = json.loads(out)
        assert rec["validity_warnings"]

    @pytest.mark.parametrize("a_um,approach,warned", [
        ("0.2", "modified-te", True), ("0.3", "modified-te", False), ("0.2", "plasma", False)])
    def test_modified_te_below_0p3_um_warns(self, capsys, a_um, approach, warned):
        # the asymptotic TE term leaves its range: the closed form is 4.75% off the engine at 0.2 um
        rc, out, err = run(capsys, "compute", "--approach", approach, "--a-um", a_um)
        assert (rc, err) == (0, "")
        # nothing else is out of the window at 0.2-0.3 um
        assert json.loads(out)["validity_warnings"] == (
            ["separation 2.000e-07 m below 3.0e-07 m; modified-TE closed form not reliable "
             "here (its asymptotic TE term drifts from the engine)"] if warned else [])


# compute checks its tolerances whether or not it runs the engine
ORACLE_FLAGS = pytest.mark.parametrize("oracle", [("--oracle",), ()], ids=["oracle", "closed-form"])


class TestTolerances:
    @ORACLE_FLAGS
    @pytest.mark.parametrize("flag,value", [
        ("--quad-tol", "-1"), ("--quad-tol", "0"), ("--quad-tol", "nan"),
        ("--tail-tol", "nan"), ("--tail-tol", "1"), ("--tail-tol", "inf"),
    ])
    def test_bad_tolerance_is_usage_error(self, capsys, flag, value, oracle):
        rc, out, err = run(capsys, "compute", *oracle, "--geometry", "plates", flag, value)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite and in (0, 1)" in err

    @ORACLE_FLAGS
    @pytest.mark.parametrize("value,message", [
        ("-1", "must be finite and in (0, 1)"), ("0", "must be finite and in (0, 1)"),
        ("nan", "must be finite and in (0, 1)"), ("abc", "argument --tail-tol: invalid float value"),
    ], ids=["-1", "0", "nan", "abc"])
    def test_bad_config_tolerance_is_usage_error(self, capsys, tmp_path, value, message, oracle):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tail-tol = {value}\n")
        rc, out, err = run(capsys, "compute", *oracle, "--geometry", "plates", "--config", str(cfg))
        assert rc == 1
        assert out == ""
        assert message in err

    def test_oracle_defaults_to_spec_tolerances(self, capsys):
        rc, out, _ = run(capsys, "compute", "--oracle", "--geometry", "plates", "--a-um", "1.0")
        assert rc == 0
        oracle = json.loads(out)["oracle"]
        assert (oracle["tail_tolerance"], oracle["quadrature_tolerance"]) == (1e-9, 1e-9)

    def test_tolerance_flags_reach_oracle(self, capsys):
        rc, out, _ = run(capsys, "compute", "--oracle", "--geometry", "plates", "--a-um", "1.0",
                         "--tail-tol", "1e-6", "--quad-tol", "1e-7")
        assert rc == 0
        oracle = json.loads(out)["oracle"]
        assert (oracle["tail_tolerance"], oracle["quadrature_tolerance"]) == (1e-6, 1e-7)

    def test_unreachable_quadrature_tolerance_is_numerical_error(self, capsys):
        # valid, but below the rounding of the rule's sums, 129 x eps ~ 2.9e-14:
        # no order can meet it, and the engine says so at once
        for tol in ("1e-17", "1e-14"):
            rc, out, err = run(capsys, "compute", "--oracle", "--geometry", "plates",
                               "--quad-tol", tol)
            assert rc == 2
            assert out == ""
            assert err.startswith("numerical error:") and err.count("\n") == 1

    def test_quadrature_tolerance_above_the_rounding_is_met(self, capsys):
        rc, out, _ = run(capsys, "compute", "--oracle", "--quad-tol", "3e-14")
        assert rc == 0
        assert json.loads(out)["oracle"]["quadrature_tolerance"] == 3e-14


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment-only line\nt2-k = 340\npoints = 7  # sparse grid\n")
        rc, out, _ = run(capsys, "fig1", "--config", str(cfg))
        assert rc == 0
        assert "# t2_k = 340.0" in out
        assert "# points = 7" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 7\n")
        rc, out, _ = run(capsys, "fig1", "--config", str(cfg), "--points", "3")
        assert rc == 0
        assert "# points = 3" in out

    @pytest.mark.parametrize("command,text,key", [
        ("fig1", "no-such-option = 1\n", "no-such-option"),
        ("fig3", "points = 7\nconfig = /nonexistent\n", "config"),  # a config file cannot name another
        # an attribute every namespace has, but no flag
        ("fig1", "__class__ = 3\n", "__class__"),
    ], ids=["unknown-option", "config-key", "namespace-attribute"])
    def test_unknown_key_rejected(self, capsys, tmp_path, command, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        rc, out, err = run(capsys, command, "--config", str(cfg))
        assert (rc, out, err) == (1, "", f"error: unknown config key {key!r}\n")

    def test_tolerance_reaches_engine_as_a_number(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tail-tol = 1e-6\n")
        rc, out, _ = run(capsys, "compute", "--oracle", "--geometry", "plates", "--config", str(cfg))
        assert rc == 0
        assert json.loads(out)["oracle"]["tail_tolerance"] == 1e-06

    def test_value_checked_against_choices(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("approach = bogus\n")
        rc, out, err = run(capsys, "fig1", "--config", str(cfg))
        assert rc == 1
        assert out == ""
        assert "bogus" in err

    def test_equals_form_applies_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 7\n")
        rc, out, _ = run(capsys, "fig1", f"--config={cfg}")
        assert rc == 0
        assert "# points = 7" in out
        assert len(data_rows(out)[1]) == 7

    def test_missing_path_is_usage_error(self, capsys):
        rc, out, _ = run(capsys, "fig1", "--config")
        assert rc == 1
        assert out == ""

    def test_unreadable_file_is_usage_error(self, capsys, tmp_path):
        rc, out, err = run(capsys, "fig1", "--config", str(tmp_path / "absent.cfg"))
        assert rc == 1
        assert out == ""
        assert "config file" in err

    @pytest.mark.parametrize("text,message", [
        ("tail-tol = 1e-6\nbogus line\n", "2: expected 'key = value', got 'bogus line'"),
        ("oracle = maybe\n", "1: oracle takes true or false, got 'maybe'"),
    ], ids=["no-equals", "boolean-value"])
    def test_malformed_line_names_its_place(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        rc, out, err = run(capsys, "compute", "--config", str(cfg))
        assert (rc, out, err) == (1, "", f"error: {cfg}:{message}\n")

    @pytest.mark.parametrize("value,on", [("true", True), ("false", False)])
    def test_boolean_sets_the_flag(self, capsys, tmp_path, value, on):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"oracle = {value}\n")
        rc, out, _ = run(capsys, "compute", "--geometry", "plates", "--a-um", "1.0", "--config", str(cfg))
        assert rc == 0
        rec = json.loads(out)
        assert rec["config"]["oracle"] is on
        assert ("oracle" in rec) is on


class TestOutputFile:
    def test_write_to_path(self, capsys, tmp_path):
        path = tmp_path / "fig1.csv"
        rc, out, _ = run(capsys, "fig1", "--points", "4", "--output", str(path))
        assert rc == 0
        assert out == ""
        header, rows = data_rows(path.read_text())
        assert len(rows) == 4

    @pytest.mark.parametrize("argv,target", [
        (("fig1", "--points", "4"), "absent/x.csv"),
        (("validate",), ""),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_path_is_usage_error(self, capsys, tmp_path, argv, target):
        path = tmp_path / target
        rc, out, err = run(capsys, *argv, "--output", str(path))
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_shorter_rewrite_leaves_no_stale_tail(self, capsys, tmp_path):
        path = tmp_path / "fig1.out"
        assert run(capsys, "fig1", "--format", "json", "--points", "500",
                   "--output", str(path))[0] == 0
        rc, _, _ = run(capsys, "fig1", "--points", "4", "--output", str(path))
        _, out, _ = run(capsys, "fig1", "--points", "4")
        assert rc == 0
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", [("fig1", "--points", "4"), ("compute",), ("validate",)],
                             ids=["fig1", "compute", "validate"])
    def test_devnull_is_written_not_cut(self, capsys, argv):
        assert run(capsys, *argv, "--output", os.devnull) == (0, "", "")

    def test_new_file_has_the_mode_open_gives(self, capsys, tmp_path):
        old_umask = os.umask(0o022)
        try:
            open(tmp_path / "reference", "w").close()
            rc, _, _ = run(capsys, "fig1", "--points", "4", "--output", str(tmp_path / "fig1.csv"))
        finally:
            os.umask(old_umask)
        assert rc == 0
        assert (tmp_path / "fig1.csv").stat().st_mode == (tmp_path / "reference").stat().st_mode


class TestValidate:
    def test_report_and_exit_code(self, capsys):
        rc, out, _ = run(capsys, "validate", "--format", "json")
        payload = json.loads(out)
        failing = {c["id"] for c in payload["checks"] if not c["passed"]}
        # every check passes, and the exit code agrees with the report
        assert payload["checks"]
        assert failing == set()
        assert rc == 0

    def test_text_report_has_claim_ids(self, capsys):
        rc, out, _ = run(capsys, "validate")
        assert "fig1-ratio>9" in out
        assert "PASS" in out

    def test_failing_check_exits_3(self, capsys, monkeypatch):
        rows = [(check_id, (lambda: 9.0) if check_id == "fig1-ratio>9" else measure, band, detail)
                for check_id, measure, band, detail in validation.CHECKS]
        monkeypatch.setattr(validation, "CHECKS", rows)
        rc, out, _ = run(capsys, "validate")
        assert rc == 3
        assert "FAIL fig1-ratio>9: measured 9, expected (9, 10)\n" in out
        assert out.count("FAIL") == 1
        assert out.endswith("34/35 checks passed\n")
        rc, out, _ = run(capsys, "validate", "--format", "json")
        payload = json.loads(out)
        assert rc == 3
        assert payload["all_passed"] is False
        assert [c["id"] for c in payload["checks"] if not c["passed"]] == ["fig1-ratio>9"]


class TestIgnoredFlagsRejected:
    """A command refuses the flags it would ignore."""

    @pytest.mark.parametrize("argv", [
        ("fig1", "--approach", "modified-te"),
        ("fig3", "--approach", "modified-te"),
        ("fig1", "--tail-tol", "1e-6"),
        ("fig2", "--quad-tol", "1e-6"),
        ("fig3", "--tail-tol", "1e-6"),
        ("compute", "--format", "csv"),
        ("compute", "--format", "json"),
    ], ids=" ".join)
    def test_exit_1_and_no_output(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")


class TestUsage:
    def test_unknown_command(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 1

    def test_bad_lambda_p(self, capsys):
        rc, _, err = run(capsys, "fig1", "--lambda-p-nm", "-5")
        assert rc == 1


def _figure_text(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    assert (rc, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ("fig2",), ("fig2", "--approach", "modified-te"), ("fig3",), ("fig3", "--points", "3"),
    # delta_F at R, divided by R, once printed -5.27708697e-11 at 0.7 mm and -5.27708698e-11 at 2 mm
    ("fig2", "--a-min-um", "0.3145400374692016", "--points", "1"),
], ids=" ".join)
def test_sphere_figures_do_not_depend_on_the_radius(argv, fmt):
    # per unit radius: the same bytes for every radius the flag accepts
    texts = {_figure_text(*argv, "--format", fmt, "--radius-mm", radius)
             for radius in ("2", "0.7", "1e-297")}
    assert len(texts) == 1


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.15, 2.0), radius=st.floats(-297.0, 3.0).map(lambda e: 10.0 ** e),
       approach=st.sampled_from(["plasma", "modified-te", "ideal"]))
@example(a=0.3145400374692016, radius=0.7, approach="plasma")
def test_fig2_point_does_not_depend_on_the_radius(a, radius, approach):
    argv = ("fig2", "--a-min-um", repr(a), "--points", "1", "--approach", approach,
            "--format", "json", "--radius-mm")
    assert _figure_text(*argv, repr(radius)) == _figure_text(*argv, "2")


class TestNonFiniteGrid:
    @pytest.mark.parametrize("argv,message", [
        (("fig1", "--a-max-um", "inf"), "grid stop must be finite, got inf"),
        (("fig2", "--a-min-um", "nan"), "grid start must be finite, got nan"),
        (("fig3", "--t2-k", "inf"), "grid stop must be finite, got inf"),
        (("fig3", "--t1-k=-inf"), "grid start must be finite, got -inf"),
        (("fig1", "--approach", "ideal", "--lambda-p-nm", "nan", "--format", "json"),
         "--lambda-p-nm must be finite, got nan"),
        # finite inputs whose closed form overflows or divides by zero
        # a sweep names its scalar inputs and the first grid point at fault
        *((("fig1", "--a-min-um", "1e-300", "--a-max-um", "1e-299", "--points", "2", "--format", fmt),
           "temperature T1 300.0 K, temperature T2 350.0 K, plasma wavelength 1.36e-07 m "
           "give a non-finite difference force at separation 1e-306 m") for fmt in ("csv", "json")),
        *((("fig3", "--t1-k", "1e-300", "--t2-k", "1e-299", "--points", "2", "--format", fmt),
           "separation 5e-07 m, temperature T1 1e-300 K, plasma wavelength "
           "1.36e-07 m give a non-finite difference force at temperature T2 1e-300 K")
          for fmt in ("csv", "json")),
        (("fig3", "--t2-k", "1e300", "--points", "2"),
         "separation 5e-07 m, temperature T1 300.0 K, plasma wavelength "
         "1.36e-07 m give a non-finite difference force at temperature T2 1e+300 K"),
        (("fig2", "--t2-k", "1e100"),
         "temperature T1 300.0 K, temperature T2 1e+100 K, plasma wavelength "
         "1.36e-07 m give a non-finite difference force at separation 1.5e-07 m"),
        # 2 a k_B underflows to 0
        (("compute", "--a-um", "1e-300", "--geometry", "plates"),
         "separation 1e-306 m is too small: 2 a k_B underflows to 0"),
        (("compute", "--a-um", "1e-300", "--geometry", "sphere"),
         "separation 1e-306 m is too small: 2 a k_B underflows to 0"),
        (("fig3", "--a-um", "1e-300", "--format", "json"),
         "separation 1e-306 m is too small: 2 a k_B underflows to 0"),
        # finite inputs for which Python's float ** or / raises, in the scalar
        # closed forms and before a sweep's columns exist
        (("compute", "--a-um", "1e-150"),
         "separation 9.999999999999999e-157 m, temperature 300.0 K, sphere radius 0.002 m, "
         "plasma wavelength 1.36e-07 m give a non-finite sphere-plate force"),
        (("compute", "--t1-k", "1e-200", "--t2-k", "1e-199"),
         "separation 5e-07 m, temperature T1 1e-200 K, temperature T2 1e-199 K, "
         "sphere radius 0.002 m, plasma wavelength 1.36e-07 m give a non-finite difference force"),
        (("compute", "--t2-k", "1e100"),
         "separation 5e-07 m, temperature 1e+100 K, sphere radius 0.002 m, "
         "plasma wavelength 1.36e-07 m give a non-finite sphere-plate force"),
        (("compute", "--lambda-p-nm", "1e300"),
         "separation 5e-07 m, temperature 300.0 K, sphere radius 0.002 m, "
         "plasma wavelength 1.0000000000000001e+291 m give a non-finite sphere-plate force"),
        (("fig1", "--t2-k", "1e100"),
         "temperature T1 300.0 K, temperature T2 1e+100 K, plasma wavelength 1.36e-07 m "
         "give a non-finite difference force"),
        # a radius the command does not use is still checked
        (("fig1", "--radius-mm", "-3"), "argument --radius-mm: sphere radius must be positive, got -3.0"),
        (("compute", "--geometry", "plates", "--radius-mm", "nan"),
         "argument --radius-mm: sphere radius must be finite, got nan"),
        # the engine's plasma kernel overflows: in Python's float ** at 1e-160 nm,
        # in numpy's products at 1e-150 nm; the sphere's line names its radius
        *((("compute", "--oracle", "--geometry", geometry, "--lambda-p-nm", nm),
           f"separation 5e-07 m, temperature 300.0 K, {radius}plasma wavelength {lam} m "
           f"give a non-finite {force}")
          for nm, lam in (("1e-160", "1e-169"), ("1e-150", "1.0000000000000001e-159"))
          for geometry, radius, force in (("plates", "", "pressure"),
                                          ("sphere", "sphere radius 0.002 m, ", "sphere-plate force"))),
    ])
    def test_one_error_line(self, capsys, argv, message):
        # a numpy RuntimeWarning from building the grid would raise here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("geometry", ["plates", "sphere"])
    def test_oracle_runs_at_a_tiny_plasma_wavelength(self, capsys, geometry):
        # ten decades above the first wavelength the kernel overflows at
        rc, out, err = run(capsys, "compute", "--oracle", "--geometry", geometry,
                           "--lambda-p-nm", "1e-140")
        assert (rc, err) == (0, "")
        assert json.loads(out)["oracle"]["rel_deviation_T1"] < 1e-3

    def test_oracle_runs_where_the_n0_row_rounds_past_one(self, capsys):
        # gold at 1.153 um with every other flag at its default: the engine's
        # sphere force was NaN here before row 0's r_TE^2 was clamped at 1
        rc, out, err = run(capsys, "compute", "--oracle", "--a-um", "1.153")
        assert (rc, err) == (0, "")
        oracle = json.loads(out)["oracle"]
        assert oracle["rel_deviation_T1"] < 1e-4 and oracle["rel_deviation_delta_F"] < 1e-3

    @pytest.mark.parametrize("command", ["fig1", "fig2", "fig3"])
    def test_grid_too_large_to_allocate(self, capsys, command):
        # 1e15 float64 points are 8 PB, past a 47-bit address space: numpy's
        # allocation fails at once under any overcommit policy, touching no memory
        rc, out, err = run(capsys, command, "--points", "1000000000000000")
        assert (rc, out) == (1, "")
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1

    def test_nonpositive_temperature_message_kept(self, capsys):
        rc, out, err = run(capsys, "fig3", "--t1-k", "0")
        assert (rc, out, err) == (1, "", "error: temperature must be positive, got 0.0\n")


# every name in scenarios that a sweep could call once per grid point
PER_POINT_NAMES = ("derived_scales", "classify_validity", "delta_force_plates",
                   "delta_force_sphere", "gap_scales", "positive", "skin_depth_parameter",
                   "finite")


def _counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


# every closed-form command; fig1/fig2 sweep [a, 3a], fig3 sweeps T1 to T2
NO_TRACEBACK_RUNS = (
    [("compute", "--geometry", geometry, "--approach", approach)
     for geometry in ("plates", "sphere") for approach in ("plasma", "modified-te", "ideal")]
    + [("fig1", "--approach", approach) for approach in ("plasma", "ideal")]
    + [("fig2", "--approach", approach) for approach in ("plasma", "modified-te", "ideal")]
    + [("fig3", "--approach", approach) for approach in ("plasma", "ideal")]
)
ANY_POSITIVE = st.floats(1e-300, 1e300) | st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None)
@given(a=ANY_POSITIVE, t1=ANY_POSITIVE, t2=ANY_POSITIVE, lam=ANY_POSITIVE, radius=ANY_POSITIVE)
@example(a=1e-150, t1=300.0, t2=350.0, lam=136.0, radius=2.0)
@example(a=0.5, t1=1e-200, t2=1e-199, lam=136.0, radius=2.0)
@example(a=0.5, t1=300.0, t2=1e100, lam=136.0, radius=2.0)  # compute and fig1
@example(a=0.5, t1=300.0, t2=350.0, lam=1e300, radius=2.0)
@example(a=0.5, t1=300.0, t2=350.0, lam=136.0, radius=-3.0)
@example(a=0.5, t1=300.0, t2=350.0, lam=136.0, radius=math.nan)
def test_no_traceback_anywhere_in_the_float_range(a, t1, t2, lam, radius):
    # inputs in um, K, nm and mm; each run prints strict JSON and exits 0,
    # or prints nothing and exits 1 with one error line
    common = ["--lambda-p-nm", repr(lam), "--radius-mm", repr(radius)]
    for command, *flags in NO_TRACEBACK_RUNS:
        if command == "compute":
            flags += ["--a-um", repr(a), "--t1-k", repr(t1), "--t2-k", repr(t2)]
        elif command == "fig3":
            flags += ["--a-um", repr(a), "--t1-k", repr(t1), "--t2-k", repr(t2), "--points", "3",
                      "--format", "json"]
        else:
            flags += ["--a-min-um", repr(a), "--a-max-um", repr(3.0 * a), "--t1-k", repr(t1),
                      "--t2-k", repr(t2), "--points", "3", "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, *flags, *common])
        if rc == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert err.getvalue() == ""
        else:
            assert (rc, out.getvalue()) == (1, "")
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@settings(max_examples=60, deadline=None)
@given(a=ANY_POSITIVE, T=ANY_POSITIVE, R=ANY_POSITIVE, lam=ANY_POSITIVE)
@example(a=1e-105, T=300.0, R=1e-3, lam=136e-9)  # an infinite ideal-metal pressure
@example(a=1e-110, T=300.0, R=1e-3, lam=136e-9)  # a**3 underflows to 0
@example(a=1e120, T=300.0, R=1e-3, lam=136e-9)  # a**3 overflows
@example(a=1e-160, T=300.0, R=1e-3, lam=136e-9)  # an infinite ideal-metal free energy
@example(a=0.5e-6, T=300.0, R=1e308, lam=136e-9)  # 2 pi R times the free energy overflows
def test_engine_force_finite_or_value_error_anywhere_in_the_float_range(a, T, R, lam):
    # inputs in m and K: each engine function, for both metals and both
    # prescriptions, returns a finite float or raises ValueError, or
    # QuadratureError where its rule cannot meet the tolerance
    calls = [functools.partial(lifshitz.te_zero_frequency_sphere_term, a, T, R, lam)]
    for model in (IdealMetal(), Plasma(lam)):
        for approach in ApproachVariant:
            calls += [functools.partial(lifshitz.plate_pressure, a, T, model, approach),
                      functools.partial(lifshitz.plate_free_energy_per_area, a, T, model, approach),
                      functools.partial(lifshitz.sphere_plate_force_pfa, a, T, R, model, approach)]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = call()
            except (ValueError, lifshitz.QuadratureError):
                continue
        assert type(value) is float and math.isfinite(value)


def _figure_call_counts(counts, tmp_path, points, *flags):
    counts.clear()
    for argv in (["fig1"], ["fig2", "--approach", "modified-te"], ["fig3"]):
        argv += [*flags, "--points", str(points), "--output", str(tmp_path / "out")]
        assert main(argv) == 0
    return dict(counts)


def test_figure_work_does_not_grow_with_points(monkeypatch, tmp_path):
    # a call count, not a time: the sweeps check their inputs once and
    # evaluate each column over the whole grid
    counts = collections.Counter()
    for name in PER_POINT_NAMES:
        monkeypatch.setattr(scenarios, name, _counting(counts, name, getattr(scenarios, name)))
    few = _figure_call_counts(counts, tmp_path, 10)
    assert few and few == _figure_call_counts(counts, tmp_path, 500)


def test_output_is_opened_without_truncating(monkeypatch, tmp_path):
    # a flag count, not a time: O_TRUNC frees the blocks of a file that
    # holds data before the write, which costs more than rendering a figure
    counts = collections.Counter()
    path = str(tmp_path / "out")
    os_open = os.open

    def recording_open(file, flags, *args, **kwargs):
        if os.fspath(file) == path:
            counts["opens"] += 1
            counts["O_TRUNC"] += bool(flags & os.O_TRUNC)
        return os_open(file, flags, *args, **kwargs)

    def open_through_os_open(file, mode="r", *args, opener=None, **kwargs):
        # open() without an opener calls the C open(file, flags, 0o666) directly;
        # make that call through os.open so that its flags are recorded too
        opener = opener or (lambda file, flags: os.open(file, flags, 0o666))
        return open(file, mode, *args, opener=opener, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(cli, "open", open_through_os_open, raising=False)
    for argv in (["fig1"], ["fig2", "--format", "json"], ["fig3"], ["compute"], ["validate"]):
        assert main([*argv, "--output", path]) == 0
    assert counts == {"opens": 5, "O_TRUNC": 0}


def test_json_figure_encoding_does_not_grow_with_points(monkeypatch, tmp_path):
    # a call count, not a time: the JSON tables call json only for their
    # config and column names, never per row or per cell
    counts = collections.Counter()
    monkeypatch.setattr(cli.json, "dumps", _counting(counts, "dumps", json.dumps))
    monkeypatch.setattr(json.JSONEncoder, "iterencode",
                        _counting(counts, "iterencode", json.JSONEncoder.iterencode))
    # the string encoder json's Python encoder calls for every key it writes
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                        _counting(counts, "strings", json.encoder.encode_basestring_ascii))
    few = _figure_call_counts(counts, tmp_path, 10, "--format", "json")
    assert few.keys() == {"dumps", "iterencode", "strings"}
    assert few == _figure_call_counts(counts, tmp_path, 500, "--format", "json")


def _table_text_reference(values, columns, cfg, fmt):
    """The figure tables as json.dumps(indent=2) and a per-cell f-string write them."""
    rows = values.tolist()
    if fmt == "json":
        payload = {"config": cfg,
                   "rows": [{c: float(f"{v:.8e}") for c, v in zip(columns, row)} for row in rows]}
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {k} = {v}" for k, v in cfg.items()]
    lines.append(",".join(columns))
    lines += [",".join(f"{v:.8e}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# log-uniform over 1e-320 to 1e20, either sign: every run draws cells in the two
# ranges where a JSON cell's 9-digit text is not format(x, ".9"), [1e8, 1e16)
# and the subnormals, which uniform draws over the float range all but miss
LOG_UNIFORM = st.builds(lambda sign, e: sign * 10.0 ** e,
                        st.sampled_from([-1.0, 1.0]), st.floats(-320.0, 20.0))
CELLS = st.one_of(FINITE, LOG_UNIFORM)


@st.composite
def figure_tables(draw):
    """(values, column names, cfg, first column scale): 1-5 columns of
    distinct names, 1-60 rows of finite cells, finite after the scale too."""
    names = draw(st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True))
    scale = draw(st.sampled_from([1.0, 1e6]))
    first = st.one_of(st.floats(-1e300, 1e300), LOG_UNIFORM) if scale > 1.0 else CELLS
    rows = draw(st.lists(st.tuples(first, *[CELLS] * (len(names) - 1)), min_size=1, max_size=60))
    cfg = draw(st.dictionaries(st.text(max_size=6), st.one_of(
        st.none(), st.booleans(), st.integers(), FINITE, st.text(max_size=6)), max_size=4))
    return np.array(rows), tuple(names), cfg, scale


# each cell at an edge of the 9-digit rounding or of repr's notation:
# 9.999999995e-05 rounds to 0.0001 and 9.9999999951e15 to 1e+16, 9.9999999949e15
# stays 9999999990000000.0; 99999999.95 rounds up to 100000000.0 and 99999999.94
# stays 99999999.9; then the largest, smallest and smallest normal floats, and
# subnormals whose repr is not their 9 digits (7.1e-316 against 7.10000001e-316)
EDGE_CELLS = (1.7976931348623157e308, 9.999999995e-05, 1e16, 123456789.0, -0.0, 0.0, 5e-324,
              -2.2250738585072014e-308, 1e-05, 0.0001, 9.9999999949e15, 9.9999999951e15, 0.15e-6,
              99999999.95, 99999999.94, -1.5e15, 7.1e-316, 3.3e-320, 2.2250738585072014e-308)


@settings(max_examples=200, deadline=None)
@given(figure_tables())
@example((np.column_stack((EDGE_CELLS[1:], EDGE_CELLS[:-1], EDGE_CELLS[:0:-1])), ("a_um", "x", "y"),
          {"command": "fig1", "points": 12, "a_min_um": 0.15, "format": "json"}, 1e6))
@example((np.column_stack((EDGE_CELLS, np.negative(EDGE_CELLS))), ("T2_K", "v"), {}, 1.0))
def test_table_text_equals_the_reference(case):
    values, columns, cfg, scale = case
    values = values.copy()
    values[:, 0] *= scale  # column 0 in CLI units, as fig1 and fig2 scale it
    for fmt in ("json", "csv"):
        got = cli._emit_table(values, columns, cfg, fmt)
        assert got == _table_text_reference(values, columns, cfg, fmt)


def _csv_paths(counts):
    """cli._csv_body, counting the tables it prints ("kernel") and declines ("fallback")."""
    csv_body = cli._csv_body

    def counting(values):
        body = csv_body(values)
        counts["fallback" if body is None else "kernel"] += 1
        return body
    return counting


EXACT = decimal.Context(prec=1000)  # more digits than any double in the kernel's range has


def _tie_distance(x):
    """How far the exact 9-digit mantissa of |x| lies from a rounding tie."""
    d = abs(decimal.Decimal(x))
    if not d:
        return decimal.Decimal("0.5")
    return abs(d.scaleb(8 - d.adjusted(), EXACT) % 1 - decimal.Decimal("0.5"))


# the kernel's range: sign x [1, 10) x 10^e with a two-digit e, and +-0.0
KERNEL_CELLS = st.one_of(
    st.builds(lambda sign, mantissa, e: sign * mantissa * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(1.0, 10.0, exclude_max=True), st.integers(-99, 99)),
    st.sampled_from([0.0, -0.0]))
# exact decimal ties, which printf rounds half-even: they take the % template.
# Only 10000000050000.0's scaled mantissa rounds off its tie, so that without
# the kernel's tie guard it would print 1.00000001e+13
CSV_TIES = [(1234567885.0, 123456788.5, 12345678.25), (-1234567885.0, 0.0, 10000000050000.0)]
# nextafter neighbours of powers of ten, where log10 can miss by one, and a
# row whose cells round up to 1e16, 1e-4 and 1e99
CSV_POWERS = [tuple(np.nextafter(p, [0.0, p, np.inf]).tolist()) for p in (1e-5, 1e15, 1e22, 1e31)]
CSV_POWERS.append((9.9999999951e15, -9.999999996e-05, 9.9999999996e98))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(KERNEL_CELLS, KERNEL_CELLS, KERNEL_CELLS), min_size=1, max_size=40))
@example(CSV_TIES)
@example(CSV_POWERS)
@example([(9.999999995e-05, 99999999.95, -99999999.95)])  # round up across a power of ten, near ties
@example([(1e31, -1e-31, 4.4e55), (7.7e-77, 1e99, -1e-99), (9.87654321e98, 1.23456789e-98, 5.5e31)])
@example([(9.9999999999e99, 1e-150, 2.5e300)])  # three-digit exponents
# two-digit exponents that carry to e = 100, 1.00000000e+100, after the first range check
@example([(9.9999999996e99, -9.9999999996e99, 1.0)])
@example([(0.0, -0.0, 0.0), (-0.0, 1.0, -1.0)])
def test_csv_kernel_prints_the_reference_text(rows):
    values, columns = np.array(rows), ("a_um", "x", "y")
    counts = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_csv_body", _csv_paths(counts))
        text = cli._emit_table(values, columns, {}, "csv")
    assert text == _table_text_reference(values, columns, {}, "csv")
    cells = np.ravel(rows).tolist()
    distance = min(_tie_distance(x) for x in cells)
    three_digit_exponent = any(len(f"{x:.8e}".split("e")[1]) > 3 for x in cells)
    if distance == 0 or three_digit_exponent:
        assert counts == {"fallback": 1}
    elif distance > decimal.Decimal("2e-6"):  # past the kernel's 1e-6 guard and its 2.4e-7 error
        assert counts == {"kernel": 1}


def test_csv_figures_take_the_kernel(monkeypatch, tmp_path):
    # a path count, not a time: every default figure table, few rows or many,
    # is printed by the kernel and never by the % template
    counts = collections.Counter()
    monkeypatch.setattr(cli, "_csv_body", _csv_paths(counts))
    runs = [(command, approach) for command, approaches in
            (("fig1", ("plasma", "ideal")), ("fig2", ("plasma", "modified-te", "ideal")),
             ("fig3", ("plasma", "ideal"))) for approach in approaches]
    for points in (10, 500):
        counts.clear()
        for command, approach in runs:
            assert main([command, "--approach", approach, "--points", str(points),
                         "--output", str(tmp_path / "out")]) == 0
        assert counts == {"kernel": len(runs)}


def test_out_of_window_figure_takes_the_fallback(monkeypatch, tmp_path):
    # three-digit exponents: the whole table goes to the % template, with the reference's bytes
    counts = collections.Counter()
    calls = []
    emit_table = cli._emit_table

    def recording(*args):
        calls.append(args)
        return emit_table(*args)
    monkeypatch.setattr(cli, "_csv_body", _csv_paths(counts))
    monkeypatch.setattr(cli, "_emit_table", recording)
    path = tmp_path / "out"
    assert main(["fig2", "--a-max-um", "1e300", "--points", "3", "--output", str(path)]) == 0
    assert counts == {"fallback": 1}
    assert "e+300," in path.read_text()
    assert path.read_text() == _table_text_reference(*calls[0])


# figures whose grid cells reach [1e8, 1e16), where repr keeps fixed notation
@pytest.mark.parametrize("argv,cell", [
    (("fig3", "--t1-k", "1", "--t2-k", "2e8", "--points", "7"), '"T2_K": 133333334.0'),
    (("fig1", "--a-min-um", "1e-7", "--a-max-um", "3e9", "--points", "40"), '"a_um": 162050505.0'),
])
def test_extreme_range_figures_are_json_dumps_text(capsys, argv, cell):
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert (rc, err) == (0, "")
    assert cell in out
    assert out == json.dumps(json.loads(out, parse_constant=_reject_constant), indent=2) + "\n"


def test_parser_reuse_leaks_no_state_between_calls(capsys, tmp_path):
    # main reuses one parser per process; a --config run must not change the next call
    plain = [("compute",), ("fig1", "--points", "3")]
    fresh = []
    for argv in plain:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tail-tol = 1e-6\napproach = modified-te\noracle = true\n")
    rc, out, _ = run(capsys, "compute", "--config", str(cfg))
    assert rc == 0
    rec = json.loads(out)
    assert rec["config"]["approach"] == "modified-te"
    assert rec["oracle"]["tail_tolerance"] == 1e-6
    assert [rc for rc, _, _ in fresh] == [0, 0]
    assert [run(capsys, *argv) for argv in plain] == fresh
    assert build_parser() is build_parser()


def test_one_argparse_pass_per_command_line(monkeypatch, tmp_path):
    # a call count, not a time: a line that starts with a command name is parsed
    # by that command's parser alone, not by the root parser and then again by it
    counts = collections.Counter()
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        _counting(counts, "parses", parse))
    output = ["--output", str(tmp_path / "out")]
    for argv in (["fig1"], ["fig2"], ["fig3"], ["compute", "--oracle"], ["validate"]):
        counts.clear()
        assert main(argv + output) == 0
        assert counts == {"parses": 1}, argv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 7\n")
    counts.clear()
    assert main(["fig1", "--config", str(cfg)] + output) == 0
    assert counts == {"parses": 2}  # the line, then the file's flags before it


def _main_namespace(monkeypatch, argv):
    """The namespace main hands to its command, in place of running it."""
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS", {name: lambda args: seen.append(args) or 0
                                           for name in cli._COMMANDS})
    assert main(argv) == 0
    return vars(seen[0])


@pytest.mark.parametrize("argv", [
    ["fig1"], ["fig1", "--poi", "3", "--approach", "ideal"], ["fig1", "--points=3"],
    ["fig2", "--approach", "modified-te", "--radius-mm", "1.5", "--format", "json"],
    ["fig3", "--a-um", "0.3", "--output", "out.csv"],
    ["compute", "--or", "--geometry", "plates", "--tail-tol", "1e-6"],
    ["validate", "--format", "json"],
], ids=" ".join)
def test_command_parser_gives_the_root_parsers_namespace(monkeypatch, argv):
    assert _main_namespace(monkeypatch, argv) == vars(build_parser().parse_args(argv))


def test_config_line_gives_the_root_parsers_namespace(monkeypatch, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 7\nt2-k = 340\n")
    argv = ["fig1", "--config", str(cfg), "--points", "3"]
    # the file's lines read as flags right after the command name
    expected = build_parser().parse_args(["fig1", "--points=7", "--t2-k=340"] + argv[1:])
    assert _main_namespace(monkeypatch, argv) == vars(expected)


@pytest.mark.parametrize("argv", [
    ["fig1", "--bogus"], ["fig1", "--t1-k", "abc"], ["fig2", "--approach", "bogus"],
    ["fig3", "extra"], ["fig1", "--version"], ["fig2", "--radius-mm", "-1"],
], ids=" ".join)
def test_command_parser_gives_the_root_parsers_usage_error(capsys, argv):
    with pytest.raises(cli.UsageError) as root:
        build_parser().parse_args(argv)
    assert run(capsys, *argv) == (1, "", f"error: {root.value}\n")


def test_command_help_is_the_root_parsers(capsys):
    texts = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exit_:
            parse(["fig1", "-h"])
        assert exit_.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0].startswith("usage: casimir-delta fig1")


# Every command, validate included, and the zero-frequency TE cross-check run
# on numpy alone; scipy is only a reference in the tests. The engine's one rule
# is built from numpy's elementary functions, so numpy.polynomial is not loaded either.
COLD_START = """
import json, sys
from casimir_delta import cli, lifshitz
runs = [["fig1"], ["fig2"], ["fig3"], ["compute", "--geometry", "plates"], ["compute"],
        ["compute", "--geometry", "plates", "--oracle"], ["compute", "--oracle"],
        ["compute", "--approach", "modified-te", "--oracle"], ["validate"]]
codes = [cli.main(argv + ["--output", sys.argv[1]]) for argv in runs]
te0 = lifshitz.te_zero_frequency_sphere_term(0.5e-6, 300.0, 1e-3, 136e-9)
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules,
                  "polynomial": "numpy.polynomial" in sys.modules, "te0": te0}))
"""


def test_cold_start_never_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 9
    assert not result["scipy"]
    assert not result["polynomial"]
    assert math.isfinite(result["te0"]) and result["te0"] < 0.0
