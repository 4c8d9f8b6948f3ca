import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from casimir_delta.quantities import (
    CODATA2018,
    classify_validity,
    derived_scales,
    effective_temperature,
    positive,
    skin_depth_parameter,
)
from casimir_delta.dielectric import Plasma
from casimir_delta.lifshitz import plate_pressure
from casimir_delta.perturbative import plate_force_perturbative
from casimir_delta.scenarios import TemperaturePair, delta_force_plates


class TestEffectiveTemperature:
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
        assert effective_temperature(a) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            effective_temperature(0.0)
        with pytest.raises(ValueError):
            effective_temperature(-1e-6)

    @given(st.floats(min_value=1e-9, max_value=1e-3))
    def test_product_with_a_is_constant(self, a):
        ref = effective_temperature(1e-6) * 1e-6
        assert effective_temperature(a) * a == pytest.approx(ref, rel=1e-12)

    def test_strictly_decreasing(self):
        grid = [0.1e-6, 0.5e-6, 1e-6, 2e-6, 5e-6]
        vals = [effective_temperature(a) for a in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))


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
    """Every public entry point rejects a separation or a temperature that is
    not finite and positive (through quantities.positive); each test lists
    the entry points that accepted the bad value."""

    TAKE_SEPARATION = {
        "positive": lambda a: positive("separation", a),
        "plate_pressure": lambda a: plate_pressure(a, 300.0, Plasma(136e-9)),
        "plate_force_perturbative": lambda a: plate_force_perturbative(a, 300.0, 136e-9),
        "delta_force_plates": lambda a: delta_force_plates(a, TemperaturePair(300.0, 350.0), 136e-9),
        "derived_scales": lambda a: derived_scales(a, 300.0, 136e-9),
        "classify_validity": lambda a: classify_validity(a, 300.0, 350.0, 136e-9),
    }
    TAKE_TEMPERATURE = {
        "positive": lambda T: positive("temperature", T),
        "plate_pressure": lambda T: plate_pressure(1e-6, T, Plasma(136e-9)),
        "plate_force_perturbative": lambda T: plate_force_perturbative(1e-6, T, 136e-9),
        "derived_scales": lambda T: derived_scales(1e-6, T, 136e-9),
        "classify_validity (T1)": lambda T: classify_validity(1e-6, T, 350.0, 136e-9),
        "classify_validity (T2)": lambda T: classify_validity(1e-6, 300.0, T, 136e-9),
        "TemperaturePair (T1)": lambda T: TemperaturePair(T, 350.0),
        "TemperaturePair (T2)": lambda T: TemperaturePair(300.0, T),
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

    def test_positive_returns_a_python_float(self):
        value = positive("separation", np.float64(1e-6))
        assert type(value) is float and value == 1e-6


class TestDerivedScales:
    def test_delta_over_a_below_one_in_range(self):
        scales = derived_scales(0.15e-6, 300.0, 136e-9)
        assert scales.delta_over_a < 1.0

    def test_fields_consistent(self):
        scales = derived_scales(1e-6, 300.0, 136e-9)
        assert scales.T_over_Teff == pytest.approx(300.0 / 1144.9422596038391, rel=1e-12)
        assert scales.delta == pytest.approx(136e-9 / (2 * math.pi), rel=1e-15)


class TestClassifyValidity:
    def test_fig3_point_in_range(self):
        report = classify_validity(0.5e-6, 300.0, 350.0, 136e-9)
        assert report.all_in_range
        assert report.warnings == ()

    def test_below_plasma_wavelength_flagged(self):
        report = classify_validity(0.1e-6, 300.0, 350.0, 136e-9)
        assert not report.separation_above_plasma_wavelength
        assert report.separation_below_max
        assert not report.all_in_range
        assert any("plasma wavelength" in w for w in report.warnings)

    def test_above_2um_flagged(self):
        report = classify_validity(3e-6, 300.0, 350.0, 136e-9)
        assert not report.separation_below_max
        assert report.separation_above_plasma_wavelength

    def test_hot_temperature_flagged(self):
        report = classify_validity(0.5e-6, 300.0, 400.0, 136e-9)
        assert report.t1_below_max and not report.t2_below_max

    def test_never_raises_for_positive_inputs(self):
        classify_validity(1e-9, 1.0, 1e4, 136e-9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_rejects_bad_plasma_wavelength(self, bad):
        with pytest.raises(ValueError, match="plasma wavelength"):
            classify_validity(1e-6, 300.0, 300.0, bad)

    def test_ideal_metal_plasma_wavelength_accepted(self):
        assert classify_validity(1e-6, 300.0, 300.0, 0.0).all_in_range


def test_constants_are_codata_2018():
    assert CODATA2018.hbar == 1.054571817e-34
    assert CODATA2018.c == 299792458.0
    assert CODATA2018.k_B == 1.380649e-23
    assert CODATA2018.zeta3 == 1.2020569031595943
