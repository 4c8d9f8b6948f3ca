import logging
import math

import numpy as np
import pytest

from casimir_delta import lifshitz
from casimir_delta.dielectric import (
    ApproachVariant,
    IdealMetal,
    Plasma,
    fresnel_coefficients,
    reflection_coefficients,
)
from casimir_delta.lifshitz import (
    MatsubaraSpec,
    QuadratureSpec,
    plate_free_energy_per_area,
    plate_pressure,
    sphere_plate_force_pfa,
    te_zero_frequency_sphere_term,
)
from casimir_delta.perturbative import sphere_force_perturbative
from casimir_delta.quantities import CODATA2018

AU = Plasma(136e-9)
PLASMA = ApproachVariant.PLASMA_ZERO_FREQUENCY
MOD_TE = ApproachVariant.MODIFIED_TE

# 1 K stands in for T -> 0: thermal terms are ~(T/T_eff)^3 ~ 1e-8 there.
# Tail tolerance 1e-7 stays four orders below the 0.1% bands being asserted.
COLD = MatsubaraSpec(relative_tail_tolerance=1e-7)


class TestIdealMetalLimits:
    def test_pressure_zero_temperature(self):
        a = 1e-6
        p = plate_pressure(a, 1.0, IdealMetal(), matsubara=COLD)
        ref = -math.pi ** 2 * CODATA2018.hbar * CODATA2018.c / (240.0 * a ** 4)
        assert p == pytest.approx(ref, rel=1e-3)
        assert p == pytest.approx(-1.3001257724477534e-3, rel=1e-3)

    def test_free_energy_zero_temperature(self):
        a = 1e-6
        e = plate_free_energy_per_area(a, 1.0, IdealMetal(), matsubara=COLD)
        ref = -math.pi ** 2 * CODATA2018.hbar * CODATA2018.c / (720.0 * a ** 3)
        assert e == pytest.approx(ref, rel=1e-3, abs=0)

    def test_sphere_force_zero_temperature(self):
        a, R = 1e-6, 1e-3
        f = sphere_plate_force_pfa(a, 1.0, R, IdealMetal(), matsubara=COLD)
        ref = -math.pi ** 3 * CODATA2018.hbar * CODATA2018.c * R / (360.0 * a ** 3)
        assert f == pytest.approx(ref, rel=1e-3, abs=0)


ZETA3 = 1.2020569031595943


def exact_ideal_sums(a, T, modified_te):
    """Exact Lifshitz free energy per area and pressure for |r| = 1, J/m^2 and N/m^2.

    With y = 2aq, F = k_B T/(8 pi a^2) Sum'_n Sum_p Int_{y_n}^inf y ln(1 - e^-y) dy
    and P = -k_B T/(8 pi a^3) Sum'_n Sum_p Int_{y_n}^inf y^2/(e^y - 1) dy, y_n = n y1.
    Expanding in e^-ky, each order's integral is a series of exponentials,
      Int_x^inf y e^-ky dy = e^-kx (x/k + 1/k^2),
      Int_x^inf y^2 e^-ky dy = e^-kx (x^2/k + 2x/k^2 + 2/k^3),
    and the sum over n >= 1 is geometric in z = e^-k y1. The n = 0 orders give
    -zeta(3) and 2 zeta(3) per polarization; they carry weight 1/2, and the
    modified-TE prescription drops the TE one. The k sum is cut where
    k y1 > 60 (relative remainder ~e^-60).
    """
    kT = CODATA2018.k_B * T
    y1 = 4.0 * math.pi * a * kT / (CODATA2018.hbar * CODATA2018.c)
    k = np.arange(1, int(60.0 / y1) + 2, dtype=float)
    one_minus_z = -np.expm1(-k * y1)
    z = 1.0 - one_minus_z
    # n = 0 carries weight 1/2 for each polarization it keeps: two, or one
    zero_weight = 0.5 if modified_te else 1.0
    energy_rest = np.sum(y1 / k ** 2 * z / one_minus_z ** 2 + z / (k ** 3 * one_minus_z))
    pressure_rest = np.sum(
        y1 ** 2 / k * z * (1.0 + z) / one_minus_z ** 3
        + 2.0 * y1 / k ** 2 * z / one_minus_z ** 2
        + 2.0 * z / (k ** 3 * one_minus_z)
    )
    energy = -(zero_weight * ZETA3 + 2.0 * energy_rest)
    pressure = zero_weight * 2.0 * ZETA3 + 2.0 * pressure_rest
    return (kT / (8.0 * math.pi * a ** 2) * energy,
            -kT / (8.0 * math.pi * a ** 3) * pressure)


class TestIdealMetalExactSums:
    """The engine itself against the exact |r| = 1 Matsubara sums, at the
    band its tolerances allow: the tail rule leaves about one tail tolerance
    and each order's quadrature one quadrature tolerance."""

    @pytest.mark.parametrize("a,T,matsubara", [
        (0.15e-6, 300.0, MatsubaraSpec()),
        (0.5e-6, 300.0, MatsubaraSpec()),
        (2e-6, 300.0, MatsubaraSpec()),
        (1e-6, 1.0, COLD),
    ])
    @pytest.mark.parametrize("approach", [PLASMA, MOD_TE])
    def test_energy_and_pressure(self, a, T, matsubara, approach):
        band = 2.0 * (matsubara.relative_tail_tolerance + QuadratureSpec().relative_tolerance)
        energy, pressure = exact_ideal_sums(a, T, approach is MOD_TE)
        got_energy = plate_free_energy_per_area(a, T, IdealMetal(), approach, matsubara)
        got_pressure = plate_pressure(a, T, IdealMetal(), approach, matsubara)
        assert got_energy == pytest.approx(energy, rel=band, abs=0)
        assert got_pressure == pytest.approx(pressure, rel=band, abs=0)

    def test_exact_sums_at_zero_temperature(self):
        # the exact sums themselves: at 1 K and 1 um the thermal parts are
        # ~(T/T_eff)^3 ~ 1e-9 of the Casimir energy and pressure
        a = 1e-6
        energy, pressure = exact_ideal_sums(a, 1.0, False)
        hc = CODATA2018.hbar * CODATA2018.c
        assert energy == pytest.approx(-math.pi ** 2 * hc / (720.0 * a ** 3), rel=1e-8, abs=0)
        assert pressure == pytest.approx(-math.pi ** 2 * hc / (240.0 * a ** 4), rel=1e-8, abs=0)


class TestPlasmaEngine:
    def test_zero_temperature_conductivity_correction(self):
        # independent oracle: the third-order finite-conductivity expansion
        # 1 - (16/3)d + 24 d^2 - (640/7)(1 - pi^2/210) d^3, d = delta/a
        a = 1e-6
        d = (136e-9 / (2 * math.pi)) / a
        eta = 1 - 16 / 3 * d + 24 * d * d - (640 / 7) * (1 - math.pi ** 2 / 210) * d ** 3
        f0 = -math.pi ** 2 * CODATA2018.hbar * CODATA2018.c / (240.0 * a ** 4)
        p = plate_pressure(a, 1.0, AU, matsubara=COLD)
        assert p / f0 == pytest.approx(eta, rel=2e-4)

    def test_zero_temperature_sphere_conductivity_correction(self):
        # the closed-form sphere force at T -> 0 carries the energy series
        # 1 - 4d + (72/5)d^2 - (320/7)(1 - pi^2/210) d^3 through the PFA;
        # compared as a ratio because approx's 1e-12 default absolute
        # tolerance would swamp forces of order 1e-12 N
        a, R = 1e-6, 1e-3
        pert = sphere_force_perturbative(a, 1.0, R, 136e-9).total
        f = sphere_plate_force_pfa(a, 1.0, R, AU, matsubara=COLD)
        assert pert / f == pytest.approx(1.0, rel=2e-4)

    def test_finite_conductivity_weakens_attraction(self):
        for a in (0.5e-6, 1e-6):
            p_plasma = plate_pressure(a, 300.0, AU)
            p_ideal = plate_pressure(a, 300.0, IdealMetal())
            assert p_plasma < 0.0 and p_ideal < 0.0
            assert abs(p_plasma) < abs(p_ideal)

    def test_magnitude_decreases_with_separation(self):
        pressures = [plate_pressure(a, 300.0, AU) for a in (0.3e-6, 0.6e-6, 1.2e-6)]
        assert all(p < 0 for p in pressures)
        assert all(abs(x) > abs(y) for x, y in zip(pressures, pressures[1:]))

    def test_stable_under_tighter_truncation(self):
        loose = plate_pressure(1e-6, 300.0, AU, matsubara=MatsubaraSpec(1e-6))
        tight = plate_pressure(1e-6, 300.0, AU, matsubara=MatsubaraSpec(1e-12))
        assert loose == pytest.approx(tight, rel=1e-5)


class TestApproachDifference:
    def test_equals_zero_frequency_te_term(self):
        # the two prescriptions differ by exactly the half-weighted n = 0 TE
        # term, computable independently by direct quadrature
        a, T, R = 0.5e-6, 300.0, 1e-3
        f_plasma = sphere_plate_force_pfa(a, T, R, AU, PLASMA)
        f_mod = sphere_plate_force_pfa(a, T, R, AU, MOD_TE)
        direct = te_zero_frequency_sphere_term(a, T, R, 136e-9)
        assert f_plasma - f_mod == pytest.approx(direct, rel=1e-9, abs=0)

    def test_ideal_metal_approaches_also_differ(self):
        e_plasma = plate_free_energy_per_area(1e-6, 300.0, IdealMetal(), PLASMA)
        e_mod = plate_free_energy_per_area(1e-6, 300.0, IdealMetal(), MOD_TE)
        assert abs(e_plasma) > abs(e_mod)


def temperature_at(a, inv_y1):
    """The temperature at which the separation a has 1/y1 = inv_y1."""
    return CODATA2018.hbar * CODATA2018.c / (4.0 * math.pi * a * CODATA2018.k_B * inv_y1)


class TestEulerMaclaurinClose:
    """Cold sums: one block of explicit orders, then the Euler-Maclaurin tail."""

    @pytest.mark.parametrize("a,T", [
        (0.15e-6, 1.0),
        (1e-6, 1.0),
        # 1/y1 = 10: the stopping estimate 26.8/y1 just exceeds 256 orders
        (1e-6, temperature_at(1e-6, 10.0)),
    ])
    @pytest.mark.parametrize("approach", [PLASMA, MOD_TE])
    def test_ideal_metal_below_the_tail_tolerance(self, a, T, approach):
        # the explicit tail rule leaves about one tail tolerance (1e-9); the
        # close leaves the quadrature and round-off error alone
        matsubara = MatsubaraSpec(1e-9)
        energy, pressure = exact_ideal_sums(a, T, approach is MOD_TE)
        got_energy = plate_free_energy_per_area(a, T, IdealMetal(), approach, matsubara)
        got_pressure = plate_pressure(a, T, IdealMetal(), approach, matsubara)
        assert got_energy == pytest.approx(energy, rel=1e-10, abs=0)
        assert got_pressure == pytest.approx(pressure, rel=1e-10, abs=0)

    def test_order_zero_stays_explicit(self):
        # the prescriptions differ only in the n = 0 TE term, so a close that
        # swallowed order 0 would break this identity
        a, T, R = 1e-6, 1.0, 1e-3
        f_plasma = sphere_plate_force_pfa(a, T, R, AU, PLASMA)
        f_mod = sphere_plate_force_pfa(a, T, R, AU, MOD_TE)
        direct = te_zero_frequency_sphere_term(a, T, R, 136e-9)
        assert f_plasma - f_mod == pytest.approx(direct, rel=1e-9, abs=0)

    def test_sum_not_stopped_by_the_cap_is_closed_there(self, monkeypatch, caplog):
        # at 1 um, 350 K the tail rule stops at order 14; with the cap at 14
        # the explicit orders 0-13 end first and the close takes over there
        monkeypatch.setattr(lifshitz, "_CLOSE_AFTER", 14)
        a, T = 1e-6, 350.0
        with caplog.at_level(logging.DEBUG, logger=lifshitz.__name__):
            got = plate_pressure(a, T, IdealMetal())
        assert [r.args[1] for r in caplog.records] == [14]
        band = 2.0 * (MatsubaraSpec().relative_tail_tolerance + QuadratureSpec().relative_tolerance)
        assert got == pytest.approx(exact_ideal_sums(a, T, False)[1], rel=band, abs=0)

    def test_close_logs_one_debug_record(self, caplog):
        with caplog.at_level(logging.DEBUG, logger=lifshitz.__name__):
            plate_pressure(0.5e-6, 300.0, AU)
            assert caplog.records == []
            plate_pressure(0.15e-6, 1.0, AU)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        label, head, nodes, correction = record.args
        assert (label, head) == ("pressure", 64)
        assert nodes >= 129 and 0.0 < correction < 1e-9

    def test_cold_sum_evaluates_few_orders(self, monkeypatch):
        # a count of distinct lower limits (orders and outer nodes), not a
        # time: the explicit loop needs 25,344 here, the close under 200
        seen = set()

        def counting(model, u, *args):
            seen.update(np.unique(u).tolist())
            return fresnel_coefficients(model, u, *args)

        monkeypatch.setattr(lifshitz, "fresnel_coefficients", counting)
        plate_pressure(0.15e-6, 1.0, AU)
        assert len(seen) < 1000

    def test_loose_tail_keeps_whole_blocks(self, monkeypatch):
        # at tail 0.6, L = ln(1/tail) < 1 and ln L < 0: an unclamped stopping
        # estimate goes negative, and 256 one-order blocks (261 calls) come
        # before the close; 1e-9 makes 6 calls
        calls = []

        def counting(*args):
            calls.append(args)
            return order_integrals(*args)

        order_integrals = lifshitz._order_integrals
        monkeypatch.setattr(lifshitz, "_order_integrals", counting)
        loose = plate_pressure(0.3e-6, 1.0, AU, matsubara=MatsubaraSpec(0.6))
        assert len(calls) <= 10
        tight = plate_pressure(0.3e-6, 1.0, AU, matsubara=MatsubaraSpec(1e-9))
        assert loose == pytest.approx(tight, rel=1e-12, abs=0)

    def test_loose_tail_at_room_temperature_unchanged(self):
        # the value before ln L was clamped (blocks of 2 orders in place of 1),
        # with the einsum node sums
        got = plate_pressure(0.5e-6, 300.0, AU, matsubara=MatsubaraSpec(0.6))
        assert repr(got) == "-0.011316384607214833"


class TestProximityForce:
    def test_two_pi_r_identity(self):
        a, T = 0.5e-6, 300.0
        energy = plate_free_energy_per_area(a, T, AU)
        force = sphere_plate_force_pfa(a, T, 1e-3, AU)
        assert force == 2.0 * math.pi * 1e-3 * energy

    def test_linear_in_radius(self):
        f1 = sphere_plate_force_pfa(0.5e-6, 300.0, 1e-3, AU)
        f2 = sphere_plate_force_pfa(0.5e-6, 300.0, 2e-3, AU)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-15, abs=0)
        assert f1 / 1e-3 == pytest.approx(f2 / 2e-3, rel=1e-15)


class TestZeroFrequencyTeTerm:
    def test_ideal_limit(self):
        # lambda_p = 1e-12 m leaves skin-depth corrections of ~6e-7 relative
        # at a = 1 um, inside the 1e-6 band around the ideal closed form
        a, T, R = 1e-6, 300.0, 1e-3
        val = te_zero_frequency_sphere_term(a, T, R, 1e-12)
        ref = -CODATA2018.k_B * T * CODATA2018.zeta3 * R / (8.0 * a * a)
        assert val == pytest.approx(ref, rel=1e-6, abs=0)

    def test_gold_matches_asymptotic_at_half_micron(self):
        a, T, R = 0.5e-6, 300.0, 1e-3
        d = (136e-9 / (2 * math.pi)) / a
        asym = (
            -CODATA2018.k_B * T * CODATA2018.zeta3 * R / (8.0 * a * a)
            * (1 - 4 * d + 12 * d * d)
        )
        val = te_zero_frequency_sphere_term(a, T, R, 136e-9)
        assert val == pytest.approx(asym, rel=5e-3, abs=0)

    def test_expansion_degrades_below_half_micron(self):
        T, R = 300.0, 1e-3

        def rel_gap(a):
            d = (136e-9 / (2 * math.pi)) / a
            asym = (
                -CODATA2018.k_B * T * CODATA2018.zeta3 * R / (8.0 * a * a)
                * (1 - 4 * d + 12 * d * d)
            )
            val = te_zero_frequency_sphere_term(a, T, R, 136e-9)
            return abs(val - asym) / abs(val)

        gaps = [rel_gap(a) for a in (0.25e-6, 0.5e-6, 1.0e-6)]
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("lambda_p", [1e-12, 100e-9, 136e-9, 500e-9])
    def test_matches_adaptive_quadrature(self, lambda_p):
        # scipy's QUADPACK on the textbook r = (y - k)/(y + k), a reference
        # independent of both the Gauss-Legendre rule and the Fresnel kernel
        from scipy.integrate import quad

        T, R = 300.0, 1e-3
        for a in np.linspace(0.15e-6, 5e-6, 60):
            w = 2.0 * a * Plasma(lambda_p).plasma_frequency() / CODATA2018.c

            def f(y):
                k = math.sqrt(w * w + y * y)
                return y * math.log1p(-((y - k) / (y + k)) ** 2 * math.exp(-y))

            integral = quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            ref = CODATA2018.k_B * T * R / (8.0 * a * a) * integral
            got = te_zero_frequency_sphere_term(a, T, R, lambda_p)
            assert got == pytest.approx(ref, rel=1e-13, abs=0), a

    def test_rule_literals_are_leggauss_to_the_last_bit(self):
        # the module writes the 10-point rule as literals, so that importing it
        # does not load numpy.polynomial; leggauss stays the reference
        x, w = np.polynomial.legendre.leggauss(10)
        assert lifshitz._GL_X.tobytes() == x[5:].tobytes()
        assert lifshitz._GL_W.tobytes() == w[5:].tobytes()
        # the module mirrors them: leggauss's negative half is their exact mirror
        assert x[:5].tobytes() == (-x[:4:-1]).tobytes() and w[:5].tobytes() == w[:4:-1].tobytes()

    def test_tolerance_below_the_rule_change_raises(self):
        # the rule changes by about 2.7e-15 of the integral on halving its panels
        a, T, R = 0.5e-6, 300.0, 1e-3
        value = te_zero_frequency_sphere_term(a, T, R, 136e-9)
        assert te_zero_frequency_sphere_term(a, T, R, 136e-9, QuadratureSpec(1e-13)) == value
        with pytest.raises(lifshitz.QuadratureError, match="zero-frequency TE term"):
            te_zero_frequency_sphere_term(a, T, R, 136e-9, QuadratureSpec(1e-15))

    @pytest.mark.parametrize("lambda_p", [1e-169, 1e-300])
    def test_overflowing_kernel_names_the_inputs(self, lambda_p):
        # the Fresnel kernel's (2a omega_p / c)^2 overflows in Python's float **
        with pytest.raises(ValueError, match=(
                rf"^separation 5e-07 m, temperature 300.0 K, sphere radius 0.001 m, "
                rf"plasma wavelength {lambda_p!r} m give a non-finite zero-frequency TE term$")):
            te_zero_frequency_sphere_term(0.5e-6, 300.0, 1e-3, lambda_p)

    def test_largest_finite_kernel_still_evaluates(self):
        got = te_zero_frequency_sphere_term(0.5e-6, 300.0, 1e-3, 1e-159)
        assert got == pytest.approx(-2.4894279919e-12, rel=1e-10, abs=0)


class TestEngineInternals:
    def test_reflectivity_matches_dielectric_module(self):
        a, T = 0.5e-6, 300.0
        for n in (0, 1, 5):
            xi = 2.0 * math.pi * CODATA2018.k_B * T * n / CODATA2018.hbar  # xi_n, rad/s
            y_low = 2.0 * a * xi / CODATA2018.c
            for y in (y_low + 0.1, y_low + 2.0, y_low + 10.0):
                q = y / (2.0 * a)
                k_perp = math.sqrt(max(q * q - (xi / CODATA2018.c) ** 2, 0.0))
                si_tm, si_te = reflection_coefficients(AU, xi, k_perp)
                r_tm, r_te = fresnel_coefficients(AU, y_low, y, 2.0 * a)
                assert r_tm ** 2 == pytest.approx(si_tm ** 2, rel=1e-12)
                assert r_te ** 2 == pytest.approx(si_te ** 2, rel=1e-12)

    def test_modified_te_zeroes_only_n0(self):
        a, T = 0.5e-6, 300.0
        r_tm, r_te = fresnel_coefficients(AU, 0.0, 1.0, 2.0 * a, MOD_TE)
        assert (r_tm ** 2, r_te ** 2) == (1.0, 0.0)
        y1 = 4.0 * math.pi * a * CODATA2018.k_B * T / (CODATA2018.hbar * CODATA2018.c)  # 2 a xi_1/c
        r_tm, r_te = fresnel_coefficients(AU, y1, 3.0, 2.0 * a, MOD_TE)
        assert r_te ** 2 > 0.0


class TestSpecValidation:
    def test_quadrature_spec_defaults(self):
        spec = QuadratureSpec()
        assert spec.relative_tolerance == 1e-9

    @pytest.mark.parametrize("make", [
        lambda: MatsubaraSpec(relative_tail_tolerance=0.0),
        lambda: MatsubaraSpec(relative_tail_tolerance=1.0),
        lambda: MatsubaraSpec(relative_tail_tolerance=math.nan),
        lambda: QuadratureSpec(relative_tolerance=-1e-9),
        lambda: QuadratureSpec(relative_tolerance=math.inf),
    ])
    def test_bad_specs_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("call,message", [
        # the prefactor's a**3 gives -inf, underflows to 0 and overflows; the
        # free energy's a*a gives -inf; 2 pi R times the free energy overflows
        (lambda: plate_pressure(1e-105, 300.0, IdealMetal()),
         "separation 1e-105 m, temperature 300.0 K give a non-finite pressure"),
        (lambda: plate_pressure(1e-110, 300.0, IdealMetal()),
         "separation 1e-110 m, temperature 300.0 K give a non-finite pressure"),
        (lambda: plate_pressure(1e120, 300.0, IdealMetal()),
         "separation 1e+120 m, temperature 300.0 K give a non-finite pressure"),
        (lambda: plate_free_energy_per_area(1e-160, 300.0, IdealMetal()),
         "separation 1e-160 m, temperature 300.0 K give a non-finite free energy"),
        (lambda: sphere_plate_force_pfa(0.5e-6, 300.0, 1e308, AU),
         "separation 5e-07 m, temperature 300.0 K, sphere radius 1e+308 m, "
         "plasma wavelength 1.36e-07 m give a non-finite sphere-plate force"),
    ])
    def test_non_finite_force_names_the_inputs(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_domain_errors_propagate(self):
        with pytest.raises(ValueError):
            plate_pressure(-1e-6, 300.0, AU)
        with pytest.raises(ValueError):
            plate_pressure(1e-6, -5.0, AU)
        with pytest.raises(ValueError):
            sphere_plate_force_pfa(1e-6, 300.0, -1e-3, AU)
