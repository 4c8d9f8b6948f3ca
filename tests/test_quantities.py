import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from casimir_delta.cli import main
from casimir_delta.quantities import (
    CODATA2018,
    classify_validity,
    derived_scales,
    gap_scales,
    positive,
    skin_depth_parameter,
)
from casimir_delta.dielectric import Plasma
from casimir_delta.lifshitz import (
    ParallelPlates,
    SpherePlate,
    plate_free_energy_per_area,
    plate_pressure,
    sphere_plate_force_pfa,
    te_zero_frequency_sphere_term,
)
from casimir_delta.perturbative import (
    plate_force_perturbative,
    sphere_force_perturbative,
    te_zero_frequency_asymptotic,
)
from casimir_delta.scenarios import (
    SweepSpec,
    TemperaturePair,
    delta_force_plates,
    delta_force_sphere,
    sweep_separation,
    sweep_temperature,
)


def T_eff(a):
    return gap_scales(a, 0.0)[0]


class TestEffectiveTemperature:
    """T_eff = hbar*c/(2*a*k_B), the first of gap_scales' two scales."""

    # frozen from direct evaluation of hbar*c/(2*a*k_B) with CODATA 2018
    @pytest.mark.parametrize(
        "a, expected",
        [
            (1e-6, 1144.9422596038391),
            (2e-6, 572.4711298019196),
            (0.5e-6, 2289.8845192076783),
        ],
    )
    def test_values(self, a, expected):
        assert T_eff(a) == pytest.approx(expected, rel=1e-12)

    def test_rejects_underflowing_separation(self):
        # 2 a k_B underflows to 0 for a float a; an array gives inf instead
        with pytest.raises(ValueError, match="2 a k_B underflows to 0"):
            T_eff(1e-306)
        with np.errstate(divide="ignore"):
            assert T_eff(np.array([1e-306]))[0] == math.inf

    @given(st.floats(min_value=1e-9, max_value=1e-3))
    def test_product_with_a_is_constant(self, a):
        ref = T_eff(1e-6) * 1e-6
        assert T_eff(a) * a == pytest.approx(ref, rel=1e-12)

    def test_strictly_decreasing(self):
        grid = [0.1e-6, 0.5e-6, 1e-6, 2e-6, 5e-6]
        vals = [T_eff(a) for a in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert T_eff(np.array(grid)).tolist() == vals


class TestSkinDepthParameter:
    def test_gold(self):
        assert skin_depth_parameter(136e-9) == pytest.approx(2.1645072260497766e-8, rel=1e-12)

    def test_ideal_metal_is_zero(self):
        assert skin_depth_parameter(0.0) == 0.0

    def test_definition(self):
        assert skin_depth_parameter(2 * math.pi * 1e-8) == pytest.approx(1e-8, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            skin_depth_parameter(-1e-9)

    @given(
        st.floats(min_value=1e-9, max_value=1e-5),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_linearity(self, lam, k):
        assert skin_depth_parameter(k * lam) == pytest.approx(
            k * skin_depth_parameter(lam), rel=1e-12, abs=0
        )


class TestQuantityConstructors:
    """Every public entry point rejects a separation, a temperature or a
    sphere radius that is not finite and positive (through
    quantities.positive); each test lists the entry points that accepted the
    bad value. The CLI rejects --radius-mm (exit 1) on every command that
    takes it, fig1 and plate computations included."""

    TAKE_SEPARATION = {
        "positive": lambda a: positive("separation", a),
        "plate_pressure": lambda a: plate_pressure(a, 300.0, Plasma(136e-9)),
        "plate_free_energy_per_area": lambda a: plate_free_energy_per_area(a, 300.0, Plasma(136e-9)),
        "sphere_plate_force_pfa": lambda a: sphere_plate_force_pfa(a, 300.0, 1e-3, Plasma(136e-9)),
        "plate_force_perturbative": lambda a: plate_force_perturbative(a, 300.0, 136e-9),
        "sphere_force_perturbative": lambda a: sphere_force_perturbative(a, 300.0, 1e-3, 136e-9),
        "delta_force_plates": lambda a: delta_force_plates(a, TemperaturePair(300.0, 350.0), 136e-9),
        "delta_force_sphere":
            lambda a: delta_force_sphere(a, TemperaturePair(300.0, 350.0), 1e-3, 136e-9),
        "derived_scales": lambda a: derived_scales(a, 136e-9, 300.0),
        "classify_validity": lambda a: classify_validity(a, 300.0, 350.0, 136e-9),
        "sweep_separation (grid start)": lambda a: sweep_separation(
            TemperaturePair(300.0, 350.0), 136e-9, ParallelPlates(), grid=SweepSpec(a, 2e-6, 3)),
        "sweep_temperature": lambda a: sweep_temperature(a, 136e-9),
    }
    TAKE_TEMPERATURE = {
        "positive": lambda T: positive("temperature", T),
        "plate_pressure": lambda T: plate_pressure(1e-6, T, Plasma(136e-9)),
        "plate_free_energy_per_area": lambda T: plate_free_energy_per_area(1e-6, T, Plasma(136e-9)),
        "sphere_plate_force_pfa": lambda T: sphere_plate_force_pfa(1e-6, T, 1e-3, Plasma(136e-9)),
        "plate_force_perturbative": lambda T: plate_force_perturbative(1e-6, T, 136e-9),
        "te_zero_frequency_asymptotic": lambda T: te_zero_frequency_asymptotic(1e-6, T, 1e-3, 136e-9),
        "derived_scales": lambda T: derived_scales(1e-6, 136e-9, T),
        "classify_validity (T1)": lambda T: classify_validity(1e-6, T, 350.0, 136e-9),
        "classify_validity (T2)": lambda T: classify_validity(1e-6, 300.0, T, 136e-9),
        "TemperaturePair (T1)": lambda T: TemperaturePair(T, 350.0),
        "TemperaturePair (T2)": lambda T: TemperaturePair(300.0, T),
        "sweep_temperature (grid start, T1)":
            lambda T: sweep_temperature(1e-6, 136e-9, grid=SweepSpec(T, 350.0, 3)),
    }

    @staticmethod
    def _cli(*argv):
        """The CLI run with --radius-mm R (R in m); exit 1 counts as rejecting R."""
        def call(R):
            if main([*argv, "--radius-mm", repr(R * 1e3), "--output", os.devnull]) == 1:
                raise ValueError("usage error")
        return call

    TAKE_RADIUS = {
        "positive": lambda R: positive("sphere radius", R),
        "SpherePlate": SpherePlate,
        "derived_scales": lambda R: derived_scales(1e-6, 136e-9, 300.0, R),
        "sphere_force_perturbative": lambda R: sphere_force_perturbative(1e-6, 300.0, R, 136e-9),
        "te_zero_frequency_asymptotic": lambda R: te_zero_frequency_asymptotic(1e-6, 300.0, R, 136e-9),
        "delta_force_sphere":
            lambda R: delta_force_sphere(1e-6, TemperaturePair(300.0, 350.0), R, 136e-9),
        "sweep_temperature":
            lambda R: sweep_temperature(1e-6, 136e-9, R, SweepSpec(300.0, 350.0, 3)),
        "sphere_plate_force_pfa": lambda R: sphere_plate_force_pfa(1e-6, 300.0, R, Plasma(136e-9)),
        "te_zero_frequency_sphere_term":
            lambda R: te_zero_frequency_sphere_term(1e-6, 300.0, R, 136e-9),
        "cli fig1": _cli("fig1", "--points", "3"),
        "cli fig2": _cli("fig2", "--points", "3"),
        "cli fig3": _cli("fig3", "--points", "3"),
        "cli compute --geometry plates": _cli("compute", "--geometry", "plates"),
        "cli compute --geometry sphere": _cli("compute", "--geometry", "sphere"),
    }

    @staticmethod
    def _accepting(entries: dict, bad: float) -> list:
        accepted = []
        for name, call in entries.items():
            try:
                call(bad)
            except ValueError:
                continue
            accepted.append(name)
        return accepted

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_separation_rejects(self, bad):
        assert self._accepting(self.TAKE_SEPARATION, bad) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -300.0])
    def test_temperature_rejects(self, bad):
        assert self._accepting(self.TAKE_TEMPERATURE, bad) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -3e-3])
    def test_radius_rejects(self, bad, capsys):
        assert self._accepting(self.TAKE_RADIUS, bad) == []
        # each CLI run printed its one error line and nothing else
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == out.err.count("error: ") == 5

    def test_positive_returns_a_python_float(self):
        value = positive("separation", np.float64(1e-6))
        assert type(value) is float and value == 1e-6


class TestDerivedScales:
    def test_delta_over_a_below_one_in_range(self):
        *_, delta_over_a = derived_scales(0.15e-6, 136e-9)
        assert delta_over_a < 1.0

    def test_fields_consistent(self):
        a, T, R, T_eff, delta_over_a = derived_scales(np.float64(1e-6), 136e-9, np.float64(300.0), 1e-3)
        assert (a, T, R) == (1e-6, 300.0, 1e-3)
        assert all(type(x) is float for x in (a, T, R))
        assert T_eff == pytest.approx(1144.9422596038391, rel=1e-12)
        assert delta_over_a == pytest.approx(136e-9 / (2 * math.pi) / 1e-6, rel=1e-15)

    def test_absent_temperature_and_radius(self):
        assert derived_scales(1e-6, 0.0)[:3] == (1e-6, None, None)


class TestClassifyValidity:
    def test_fig3_point_in_range(self):
        assert classify_validity(0.5e-6, 300.0, 350.0, 136e-9) == ()

    def test_below_plasma_wavelength_flagged(self):
        (warning,) = classify_validity(0.1e-6, 300.0, 350.0, 136e-9)
        assert "below plasma wavelength" in warning

    def test_above_2um_flagged(self):
        assert classify_validity(3e-6, 300.0, 350.0, 136e-9) == (
            "separation 3.000e-06 m above 2.0e-06 m validity limit",)

    def test_hot_temperature_flagged(self):
        assert classify_validity(0.5e-6, 300.0, 400.0, 136e-9) == (
            "T2 = 400.0 K above 350 K validity limit",)

    def test_never_raises_for_positive_inputs(self):
        classify_validity(1e-9, 1.0, 1e4, 136e-9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_rejects_bad_plasma_wavelength(self, bad):
        with pytest.raises(ValueError, match="plasma wavelength"):
            classify_validity(1e-6, 300.0, 300.0, bad)

    def test_ideal_metal_plasma_wavelength_accepted(self):
        assert classify_validity(1e-6, 300.0, 300.0, 0.0) == ()


def test_constants_are_codata_2018():
    assert CODATA2018.hbar == 1.054571817e-34
    assert CODATA2018.c == 299792458.0
    assert CODATA2018.k_B == 1.380649e-23
    assert CODATA2018.zeta3 == 1.2020569031595943
