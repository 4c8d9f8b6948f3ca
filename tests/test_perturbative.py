import math

import pytest

from casimir_delta.dielectric import ApproachVariant
from casimir_delta.perturbative import (
    plate_force_perturbative,
    sphere_force_perturbative,
    te_zero_frequency_asymptotic,
)
from casimir_delta.quantities import CODATA2018


def f0_plates(a):
    return -math.pi ** 2 * CODATA2018.hbar * CODATA2018.c / (240.0 * a ** 4)


def f0_sphere(a, R):
    return -math.pi ** 3 * CODATA2018.hbar * CODATA2018.c * R / (360.0 * a ** 3)


class TestPlateForce:
    def test_ideal_thermal_correction_1um(self):
        # (1/3)(300/1144.94)^4: the 0.16% figure
        res = plate_force_perturbative(1e-6, 300.0, 0.0)
        assert res.thermal_ideal == pytest.approx(0.0015711925912249257, rel=1e-12)

    def test_ideal_thermal_correction_2um(self):
        # the 2.5% figure
        res = plate_force_perturbative(2e-6, 300.0, 0.0)
        assert res.thermal_ideal == pytest.approx(0.02513908145959881, rel=1e-12)

    def test_cold_ideal_metal_is_exactly_base(self):
        # at 1 mK every correction underflows below double precision
        res = plate_force_perturbative(1e-6, 1e-3, 0.0)
        assert res.total == f0_plates(1e-6)
        assert res.conductivity_first_order == 0.0

    def test_terms_sum_to_value(self):
        # plates, and the sphere under both prescriptions
        a, T, R, lam = 0.5e-6, 300.0, 1e-3, 136e-9
        plasma = sphere_force_perturbative(a, T, R, lam, ApproachVariant.PLASMA_ZERO_FREQUENCY)
        mod = sphere_force_perturbative(a, T, R, lam, ApproachVariant.MODIFIED_TE)
        for t in (plate_force_perturbative(a, T, lam), plasma, mod):
            expected = t.base * (
                1.0 + t.thermal_ideal + t.conductivity_first_order
                + t.conductivity_higher_order + t.cross_term
            ) - t.zero_frequency_te
            assert t.total == expected
        te = te_zero_frequency_asymptotic(a, T, R, lam)
        assert plasma.zero_frequency_te == 0.0
        assert mod.zero_frequency_te == te
        assert mod.total == plasma.total - te


class TestSphereForce:
    def test_ideal_thermal_correction_1um(self):
        # the 2.7% figure
        res = sphere_force_perturbative(1e-6, 300.0, 1e-3, 0.0)
        assert res.thermal_ideal == pytest.approx(0.02666989003312682, rel=1e-12)

    def test_ideal_thermal_correction_2um(self):
        # truncated series gives ~17.6%; the exact-computation figure is 18.2%
        res = sphere_force_perturbative(2e-6, 300.0, 1e-3, 0.0)
        assert res.thermal_ideal == pytest.approx(0.17565049807561633, rel=1e-12)

    def test_cold_ideal_metal_is_exactly_base(self):
        res = sphere_force_perturbative(1e-6, 1e-3, 1e-3, 0.0)
        assert res.total == f0_sphere(1e-6, 1e-3)

    def test_linear_in_radius(self):
        f1 = sphere_force_perturbative(0.5e-6, 300.0, 1e-3, 136e-9).total
        f2 = sphere_force_perturbative(0.5e-6, 300.0, 2e-3, 136e-9).total
        assert f2 == pytest.approx(2.0 * f1, rel=1e-15, abs=0)

    def test_thermal_correction_positive_when_cold(self):
        for a in (0.5e-6, 1e-6, 2e-6):
            res = sphere_force_perturbative(a, 300.0, 1e-3, 0.0)
            assert res.thermal_ideal > 0.0
            pres = plate_force_perturbative(a, 300.0, 0.0)
            assert pres.thermal_ideal > 0.0


class TestTeZeroFrequencyAsymptotic:
    def test_ideal_metal_closed_form(self):
        a, T, R = 0.5e-6, 300.0, 1e-3
        val = te_zero_frequency_asymptotic(a, T, R, 0.0)
        assert val == pytest.approx(
            -CODATA2018.k_B * T * CODATA2018.zeta3 * R / (8.0 * a * a), rel=1e-15, abs=0
        )

    def test_gold_value(self):
        # frozen direct evaluation: -(k_B 300 zeta3 R / 8 a^2)(1 - 4d + 12 d^2)
        val = te_zero_frequency_asymptotic(0.5e-6, 300.0, 1e-3, 136e-9)
        assert val == pytest.approx(-2.1143405521708507e-12, rel=1e-12, abs=0)

    def test_inverse_square_scaling(self):
        v1 = te_zero_frequency_asymptotic(0.5e-6, 300.0, 1e-3, 0.0)
        v2 = te_zero_frequency_asymptotic(1.0e-6, 300.0, 1e-3, 0.0)
        assert v1 == pytest.approx(4.0 * v2, rel=1e-14, abs=0)

    def test_linear_in_temperature(self):
        v300 = te_zero_frequency_asymptotic(0.5e-6, 300.0, 1e-3, 136e-9)
        v150 = te_zero_frequency_asymptotic(0.5e-6, 150.0, 1e-3, 136e-9)
        assert v300 == pytest.approx(2.0 * v150, rel=1e-14, abs=0)


def test_domain_errors_propagate():
    with pytest.raises(ValueError):
        plate_force_perturbative(0.0, 300.0, 136e-9)
    with pytest.raises(ValueError):
        sphere_force_perturbative(1e-6, 300.0, 1e-3, -1e-9)
