"""Tests of the benchmark's reference values, its checks and its inputs.

Each check is shown to pass the package's real output and to reject a
deliberately wrong value. Run with `python -m pytest perfbench`.
"""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import bench_checks as chk  # noqa: E402
import bench_reference as ref  # noqa: E402
import bench_workloads as wl  # noqa: E402
from casimir_delta import cli  # noqa: E402
from casimir_delta.dielectric import ApproachVariant, Plasma  # noqa: E402
from casimir_delta.lifshitz import MatsubaraSpec, plate_pressure  # noqa: E402

AU = 136e-9


# --- reference values ---------------------------------------------------------------

@pytest.mark.parametrize("a,T", [(0.5e-6, 300.0), (1e-6, 1.0), (0.15e-6, 350.0)])
def test_ideal_sums_match_low_temperature_forms(a, T):
    t = T / ref.t_eff(a)
    assert t < 0.15  # the exponentially small corrections e^(-pi/t) are < 1e-9
    p = ref.ideal_pressure_t0(a) * (1.0 + t ** 4 / 3.0)
    e = ref.ideal_energy_t0(a) * (1.0 + 45.0 * ref.ZETA3 / math.pi ** 3 * t ** 3 - t ** 4)
    assert ref.ideal_plate_pressure(a, T) == pytest.approx(p, rel=1e-12, abs=0)
    assert ref.ideal_plate_free_energy(a, T) == pytest.approx(e, rel=1e-12, abs=0)


def test_ideal_sums_obey_thermodynamic_identity():
    # P = -dE/da at t ~ 0.6, where the low-temperature forms fail by 1e-3
    a, T = 2e-6, 350.0

    def central(h):
        return (ref.ideal_plate_free_energy(a + h, T) - ref.ideal_plate_free_energy(a - h, T)) / (2 * h)

    dE = (4.0 * central(1e-9) - central(2e-9)) / 3.0  # Richardson: error O(h^4)
    assert -dE == pytest.approx(ref.ideal_plate_pressure(a, T), rel=1e-9, abs=0)


def test_ideal_sum_classical_limit_is_the_zero_frequency_term():
    # y1 ~ 170: only n = 0 is left, (kT/(8 pi a^2)) * 2 * (1/2) * (-zeta3)
    a, T = 10e-6, 3000.0
    limit = -ref.K_B * T * ref.ZETA3 / (8.0 * math.pi * a * a)
    assert ref.ideal_plate_free_energy(a, T) == pytest.approx(limit, rel=1e-13, abs=0)
    assert ref.ideal_plate_free_energy(a, T, modified_te=True) == pytest.approx(limit / 2, rel=1e-13, abs=0)


# --- engine checks ------------------------------------------------------------------

ROOM = {"a": 0.5e-6, "T": 300.0, "R": 1e-3, "lambda_p": AU, "tail": 1e-9, "quad": 1e-9}


def test_ideal_check_rejects_value_off_by_1e6():
    p = dict(ROOM, metal="ideal", presc="plasma")
    exact = ref.ideal_plate_pressure(p["a"], p["T"])
    assert chk.check_engine("pressure", p, exact * (1 + 1e-9)) == []
    assert chk.check_engine("pressure", p, exact * (1 + 1e-6))


def test_plasma_check_rejects_repulsion_and_exceeding_ideal():
    p = dict(ROOM, metal="plasma", presc="modified-te")
    value = plate_pressure(p["a"], p["T"], Plasma(AU), ApproachVariant.MODIFIED_TE)
    ideal = ref.ideal_plate_pressure(p["a"], p["T"], modified_te=True)
    assert chk.check_engine("pressure", p, value) == []
    assert chk.check_engine("pressure", p, -value)
    assert chk.check_engine("pressure", p, 1.001 * ideal)


def test_cold_series_check_passes_engine_and_rejects_d3_error():
    p = dict(ROOM, a=1e-6, T=20.0, metal="plasma", presc="plasma", tail=1e-8, quad=1e-9)
    value = plate_pressure(p["a"], p["T"], Plasma(AU), matsubara=MatsubaraSpec(1e-8))
    assert chk.check_engine("pressure", p, value) == []
    d = ref.delta_over_a(p["a"], AU)
    assert chk.check_engine("pressure", p, value * (1 + 10 * d ** 3))


def test_te_term_and_triplet_checks():
    p = dict(ROOM, metal="plasma")
    bound = ref.K_B * p["T"] * ref.ZETA3 * p["R"] / (8 * p["a"] ** 2)
    assert chk.check_engine("te0", p, -0.9 * bound) == []
    assert chk.check_engine("te0", p, 0.9 * bound)
    assert chk.check_engine("te0", p, -1.1 * bound)
    assert chk.check_triplet(p, -1.0e-12, -0.9e-12, -0.1e-12) == []
    assert chk.check_triplet(p, -1.0e-12, -0.9e-12, -0.1e-12 * 1.001)


def test_printed_ok_is_half_a_unit_in_the_ninth_digit():
    x = -1.234567891234e-13
    assert chk.printed_ok(float(f"{x:.8e}"), x)
    assert not chk.printed_ok(float(f"{x:.8e}") + 1e-21, x)
    assert chk.printed_ok(0.0, 0.0) and not chk.printed_ok(1e-30, 0.0)


# --- CLI output -----------------------------------------------------------------------

def _cli(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main(argv + ["--output", str(out)]) == 0
    return out.read_text()


def _params(argv):
    return {k.lstrip("-").replace("-", "_"): (v if k in ("--approach", "--format") else float(v))
            for k, v in zip(argv[1::2], argv[2::2])}


def _bump(text, fmt, row, col):
    """`text` with the value at (row, col) moved by one unit in its 9th digit."""
    columns, rows = chk.parse_table(text, fmt)
    v = rows[row][col]
    new = v + 10.0 ** (math.floor(math.log10(abs(v))) - 8)
    if fmt == "json":
        payload = json.loads(text)
        payload["rows"][row][columns[col]] = new
        return json.dumps(payload)
    lines = text.splitlines()
    i = [n for n, ln in enumerate(lines) if not ln.startswith("#")][1 + row]
    cells = lines[i].split(",")
    cells[col] = f"{new:.8e}"
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command,approach,fmt", [
    ("fig1", "plasma", "csv"), ("fig2", "modified-te", "json"), ("fig3", "plasma", "json")])
def test_figure_check_passes_real_output_and_rejects_one_digit(tmp_path, command, approach, fmt):
    argv = [command, "--approach", approach, "--format", fmt, "--t1-k", "290.5",
            "--t2-k", "341.25", "--points", "12"]
    p = _params(argv)
    p.update(lambda_p_nm=136.0, radius_mm=2.0, points=12)
    if command == "fig3":
        p["a_um"] = 0.5
    else:
        p.update(a_min_um=0.15, a_max_um=2.0)
    text = _cli(tmp_path, argv)
    assert chk.check_figure(command, p, text) == []
    assert chk.check_figure(command, p, _bump(text, fmt, 1, 1))


def test_figure_check_at_the_modified_te_sign_change(tmp_path):
    # the modified-TE dF/R crosses zero near row 312 here (-2.9334967250e-16,
    # on a rounding boundary); a reference that took the TE difference as
    # te(T1) - te(T2) lost ~1e-13 to cancellation there and failed the check
    argv = ["fig3", "--approach", "plasma", "--format", "csv", "--t1-k", "303.3871269977983",
            "--t2-k", "348.2911804380296", "--lambda-p-nm", "119.82172518071286",
            "--radius-mm", "1.1471295637656462", "--points", "414", "--a-um", "1.8231509374305042"]
    p = _params(argv)
    p["points"] = 414
    text = _cli(tmp_path, argv)
    assert chk.check_figure("fig3", p, text) == []
    assert chk.check_figure("fig3", p, _bump(text, "csv", 100, 2))


def test_fig1_check_rejects_ideal_column_depending_on_a(tmp_path):
    p = {"approach": "plasma", "format": "csv", "t1_k": 300.0, "t2_k": 350.0, "lambda_p_nm": 136.0,
         "radius_mm": 2.0, "points": 10, "a_min_um": 0.15, "a_max_um": 2.0}
    text = _cli(tmp_path, ["fig1", "--points", "10"])
    assert chk.check_figure("fig1", p, text) == []
    problems = chk.check_figure("fig1", p, _bump(text, "csv", 9, 2))
    assert "fig1: ideal plate column depends on a" in problems


def test_monotonicity_check_rejects_rising_magnitude():
    assert chk._strictly_decreasing([-3.0, -2.0, -1.0])
    assert not chk._strictly_decreasing([-3.0, -2.0, -2.0])


def test_compute_check_recomputes_oracle_deviations(tmp_path):
    d = {"a": 0.7e-6, "T1": 300.0, "T2": 340.0, "lambda_p": AU, "R": 1e-3, "tail": 1e-8, "quad": 1e-8}
    op = wl._compute_op(d, "sphere", "modified-te", oracle=True)
    text = _cli(tmp_path, op.argv)
    assert chk.check_compute(op.p, text) == []
    rec = json.loads(text)
    rec["oracle"]["rel_deviation_T2"] *= 1.01
    assert chk.check_compute(op.p, json.dumps(rec))
    rec = json.loads(text)
    rec["delta_F"] *= 1 + 1e-7
    assert chk.check_compute(op.p, json.dumps(rec))


def test_compute_check_rejects_wrong_ideal_oracle(tmp_path):
    d = {"a": 1.5e-6, "T1": 300.0, "T2": 340.0, "lambda_p": AU, "R": 1e-3, "tail": 1e-8, "quad": 1e-8}
    op = wl._compute_op(d, "plates", "ideal", oracle=True)
    text = _cli(tmp_path, op.argv)
    assert chk.check_compute(op.p, text) == []
    rec = json.loads(text)
    rec["oracle"]["force_T1"] *= 1 + 1e-6
    assert chk.check_compute(op.p, json.dumps(rec))


# --- inputs ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_batches_repeat_per_seed_and_vary_between_seeds(workload):
    build = wl.BUILDERS[workload]
    assert build(3) == build(3)
    assert build(3) != build(4)
    assert sorted(op.kind for op in build(3)) == sorted(op.kind for op in build(4))


def test_engine_cold_cost_input_is_fixed_per_class():
    def inverse_y1_sums(seed):
        sums = {}
        for op in wl.engine_cold(seed):
            key = (op.kind, op.p["metal"])
            sums[key] = sums.get(key, 0.0) + 1.0 / ref.y1(op.p["a"], op.p["T"])
        return sums
    a, b = inverse_y1_sums(1), inverse_y1_sums(2)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == pytest.approx(b[key], rel=1e-12)
    for op in wl.engine_cold(1):
        assert 1.0 <= op.p["T"] <= 20.0 and 0.3e-6 <= op.p["a"] <= 2e-6
