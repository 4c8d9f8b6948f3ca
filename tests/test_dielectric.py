import math

import pytest

from casimir_delta.dielectric import (
    ApproachVariant,
    IdealMetal,
    Plasma,
    reflection_coefficients,
)
from casimir_delta.quantities import CODATA2018

AU = Plasma(136e-9)


class TestReflectionCoefficients:
    def test_ideal_metal(self):
        for xi, q in [(0.0, 1e6), (1e14, 0.0), (1e15, 1e7)]:
            assert reflection_coefficients(IdealMetal(), xi, q) == (1.0, -1.0)

    def test_zero_frequency_closed_form(self):
        # at q = omega_p/c the TE limit is (1 - sqrt 2)/(1 + sqrt 2)
        q = AU.plasma_frequency() / CODATA2018.c
        r_tm, r_te = reflection_coefficients(AU, 0.0, q)
        assert r_tm == 1.0
        assert r_te == pytest.approx(-0.17157287525380996, rel=1e-12)

    def test_zero_frequency_te_vanishes_at_large_q(self):
        q = 1e6 * AU.plasma_frequency() / CODATA2018.c
        _, r_te = reflection_coefficients(AU, 0.0, q)
        assert abs(r_te) < 1e-5

    def test_zero_frequency_te_negative(self):
        kappa = AU.plasma_frequency() / CODATA2018.c
        for q in [1e-3 * kappa, kappa, 1e3 * kappa]:
            _, r_te = reflection_coefficients(AU, 0.0, q)
            assert r_te < 0.0

    def test_bounded_by_one(self):
        kappa = AU.plasma_frequency() / CODATA2018.c
        for xi in [0.0, 1e13, 1e15, 1e17]:
            for q in [1e-2 * kappa, kappa, 1e2 * kappa]:
                if xi == 0.0 and q == 0.0:
                    continue
                r_tm, r_te = reflection_coefficients(AU, xi, q)
                assert abs(r_tm) <= 1.0
                assert abs(r_te) <= 1.0

    def test_ideal_metal_limit_of_small_lambda_p(self):
        tiny = Plasma(1e-12)
        r_tm, r_te = reflection_coefficients(tiny, 2.47e14, 1e6)
        assert abs(r_tm - 1.0) < 1e-6
        assert abs(r_te - (-1.0)) < 1e-6

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            reflection_coefficients(AU, -1.0, 1e6)
        with pytest.raises(ValueError):
            reflection_coefficients(AU, 1e14, -1.0)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            reflection_coefficients(AU, 0.0, 0.0)


class TestModels:
    def test_plasma_frequency_derived(self):
        assert AU.plasma_frequency() == pytest.approx(
            2 * math.pi * CODATA2018.c / 136e-9, rel=1e-15
        )

    def test_plasma_requires_positive_wavelength(self):
        with pytest.raises(ValueError):
            Plasma(0.0)
        with pytest.raises(ValueError):
            Plasma(-1e-9)

    def test_approach_variants_distinct(self):
        assert ApproachVariant.PLASMA_ZERO_FREQUENCY is not ApproachVariant.MODIFIED_TE
