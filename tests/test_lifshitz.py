import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


def nonretarded_series():
    """S = sum_k (4k-3)!! / ((4k-2)!! k^3) = 0.55521240562034...: the terms
    fall like 0.4 k^-3.5, so 10^5 of them leave about 5e-14."""
    def term(k):
        # (4k-3)!! / (4k-2)!! = (4k-2)! / (2^(2k-1) (2k-1)!)^2
        return math.exp(math.lgamma(4 * k - 1) - 2.0 * math.lgamma(2 * k)
                        - (4 * k - 2) * math.log(2.0)) / k ** 3
    return math.fsum(term(k) for k in range(1, 10 ** 5 + 1))


class TestPlasmaExactLimits:
    """The plasma engine against the limits it has in closed form (Bordag,
    Mohideen & Mostepanenko, Phys. Rep. 353, 1 (2001))."""

    @pytest.mark.parametrize("T", [1.0, 10.0])
    def test_nonretarded_limit(self, T):
        # a << lambda_p at T -> 0: E -> -(hbar w_s / (32 pi a^2)) S, w_s the
        # surface plasmon frequency w_p / sqrt(2). E/E_nr - 1 reads -2.975e-5,
        # -2.438e-4, -1.526e-3, -9.82e-3, -4.34e-2 and -0.156 on this grid
        w_s = AU.plasma_frequency() / math.sqrt(2.0)
        series = nonretarded_series()
        deviations = []
        for a in (10e-9, 3e-9, 1e-9, 0.3e-9, 0.1e-9, 0.03e-9):
            e_nr = -CODATA2018.hbar * w_s / (32.0 * math.pi * a * a) * series
            deviations.append(abs(plate_free_energy_per_area(a, T, AU) / e_nr - 1.0))
        assert all(x > y for x, y in zip(deviations, deviations[1:])), deviations
        assert deviations[-1] <= 1e-4  # w = 4 pi a / lambda_p = 2.8e-3

    # y1 = 27 is left out: there orders n >= 1 still add 5e-12 to 1e-10
    @pytest.mark.parametrize("a", [0.3e-6, 2e-6])
    @pytest.mark.parametrize("y1", [110.0, 329.0])
    def test_classical_limit(self, a, y1):
        # y1 >> 1: only n = 0 is left, -2 pi R k_B T zeta(3) / (16 pi a^2)
        # under the modified-TE zero and that plus the zero-frequency TE term
        # under the plasma prescription's clamped n = 0 row. Measured within
        # 4.4e-16 and 3.3e-16
        T, R = temperature_at(a, 1.0 / y1), 1e-3
        classical = -2.0 * math.pi * R * CODATA2018.k_B * T * ZETA3 / (16.0 * math.pi * a * a)
        te0 = te_zero_frequency_sphere_term(a, T, R, AU.lambda_p)
        assert sphere_plate_force_pfa(a, T, R, AU, MOD_TE) == pytest.approx(
            classical, rel=1e-14, abs=0)
        assert sphere_plate_force_pfa(a, T, R, AU, PLASMA) == pytest.approx(
            classical + te0, rel=1e-14, abs=0)


class TestApproachDifference:
    """The prescriptions differ by the zero-frequency TE term, which shares the
    engine's rule, Fresnel kernel and free-energy integrand: its independent
    reference is scipy's QUADPACK on the textbook r, in
    TestZeroFrequencyTeTerm.test_matches_adaptive_quadrature."""

    def test_equals_zero_frequency_te_term(self):
        # the two prescriptions differ by exactly the half-weighted n = 0 TE term
        a, T, R = 0.5e-6, 300.0, 1e-3
        f_plasma = sphere_plate_force_pfa(a, T, R, AU, PLASMA)
        f_mod = sphere_plate_force_pfa(a, T, R, AU, MOD_TE)
        direct = te_zero_frequency_sphere_term(a, T, R, 136e-9)
        assert f_plasma - f_mod == pytest.approx(direct, rel=1e-9, abs=0)

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.15e-6, 2e-6), T=st.floats(1.0, 350.0), lambda_p=st.floats(100e-9, 200e-9),
           R=st.floats(0.5e-3, 5e-3))
    def test_difference_is_the_zero_frequency_te_term(self, a, T, lambda_p, R):
        # on a 5 x 6 x 3 grid of (a, T, lambda_p) in this box, R = 1 mm, the
        # worst deviation was 5.4e-12 at this tail and 6.1e-9 at the default
        model, tail = Plasma(lambda_p), MatsubaraSpec(1e-12)
        f_plasma = sphere_plate_force_pfa(a, T, R, model, PLASMA, tail)
        f_mod = sphere_plate_force_pfa(a, T, R, model, MOD_TE, tail)
        direct = te_zero_frequency_sphere_term(a, T, R, lambda_p)
        assert f_plasma - f_mod == pytest.approx(direct, rel=1e-9, abs=0)

    def test_ideal_metal_approaches_also_differ(self):
        e_plasma = plate_free_energy_per_area(1e-6, 300.0, IdealMetal(), PLASMA)
        e_mod = plate_free_energy_per_area(1e-6, 300.0, IdealMetal(), MOD_TE)
        assert abs(e_plasma) > abs(e_mod)


TOLERANCE = st.floats(-11.0, -7.0).map(lambda e: 10.0 ** e)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.15e-6, 2e-6), T=st.floats(1.0, 350.0), R=st.floats(0.5e-3, 5e-3),
       lambda_p=st.floats(100e-9, 200e-9), tail=TOLERANCE, quad=TOLERANCE)
# at these points the plasma prescription's n = 0 row once gave r_TE^2 an ulp
# above 1 at the rule's smallest s, and the free energy a NaN: a sphere at
# 1.153 um, at 300 K and at 4 K; a free energy at 0.461 um and the CLI's
# lambda_p of 100 nm (100 * 1e-9, not 1e-7);
# and perfbench's engine-room seed 4242, op 37
@example(a=1.153e-6, T=300.0, R=2e-3, lambda_p=136e-9, tail=1e-9, quad=1e-9)
@example(a=1.153e-6, T=4.0, R=2e-3, lambda_p=136e-9, tail=1e-9, quad=1e-9)
@example(a=0.461e-6, T=300.0, R=2e-3, lambda_p=100 * 1e-9, tail=1e-9, quad=1e-9)
@example(a=1.213193244457895e-06, T=333.5686475623096, R=0.0014757244684468248,
         lambda_p=1.1453827052230001e-07, tail=5.932362790505449e-11, quad=1.8941775599464633e-09)
def test_engine_forces_finite_and_attractive_inside_the_window(a, T, R, lambda_p, tail, quad):
    # gold-like metals in the paper's window, under both prescriptions
    model, matsubara, quadrature = Plasma(lambda_p), MatsubaraSpec(tail), QuadratureSpec(quad)
    values = [te_zero_frequency_sphere_term(a, T, R, lambda_p, quadrature)]
    for approach in ApproachVariant:
        values += [plate_pressure(a, T, model, approach, matsubara, quadrature),
                   plate_free_energy_per_area(a, T, model, approach, matsubara, quadrature),
                   sphere_plate_force_pfa(a, T, R, model, approach, matsubara, quadrature)]
    for value in values:
        assert type(value) is float and math.isfinite(value) and value < 0.0


def temperature_at(a, inv_y1):
    """The temperature at which the separation a has 1/y1 = inv_y1."""
    return CODATA2018.hbar * CODATA2018.c / (4.0 * math.pi * a * CODATA2018.k_B * inv_y1)


def close_first_pass(y1):
    """The lower limits of the close's first orders() pass after a 64-order
    head, as a column: orders 64..66, then the outer rule's limits past the
    edge 64 y1."""
    limits = 64 * y1 + lifshitz._NODES
    return np.concatenate((np.arange(64, 67) * y1, limits[limits > 64 * y1]))[:, None]


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
        label, head, correction = record.args
        assert (label, head) == ("pressure", 64)
        assert 0.0 < correction < 1e-9

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

    def test_cold_sum_through_the_close_unchanged(self):
        # 1/y1 = 73: the 64-order head and the Euler-Maclaurin close, on
        # blocks computed in place; a pressure, since free energies move in
        # their last digit when numpy's AVX-512 loops are off
        got = plate_pressure(0.5e-6, 5.0, AU, matsubara=MatsubaraSpec(1e-8))
        assert repr(got) == "-0.016804175646201538"

    @pytest.mark.parametrize("call,expected", [
        # 1/y1 = 100: the edge 64 y1 lies below ln 2, so few outer limits round to it
        (lambda: plate_pressure(0.3e-6, temperature_at(0.3e-6, 100.0), IdealMetal(), MOD_TE,
                                MatsubaraSpec(1e-8)), "-0.16036079966651232"),
        (lambda: plate_pressure(1e-6, 2.0, AU, matsubara=MatsubaraSpec(1e-8)),
         "-0.0011635755095562212"),
        # the ideal metal's equal reflectivities, one polarization added to itself
        (lambda: plate_pressure(0.5e-6, 5.0, IdealMetal(), matsubara=MatsubaraSpec(1e-8)),
         "-0.020802012359321696"),
        # a room sum over several head blocks
        (lambda: plate_pressure(0.15e-6, 300.0, AU, matsubara=MatsubaraSpec(1e-11)),
         "-1.4095744758808917"),
        # the modified-TE zero row of a plasma head block, through the close
        # and over several room head blocks
        (lambda: plate_pressure(0.5e-6, 5.0, AU, MOD_TE, MatsubaraSpec(1e-8)),
         "-0.016783580699914907"),
        (lambda: plate_pressure(0.15e-6, 300.0, AU, MOD_TE, MatsubaraSpec(1e-11)),
         "-1.381982008758552"),
        # the same zero row under the free-energy integrand the sphere force uses
        (lambda: plate_free_energy_per_area(0.5e-6, 5.0, AU, MOD_TE, MatsubaraSpec(1e-8)),
         "-2.9435498941565585e-09"),
        (lambda: sphere_plate_force_pfa(0.15e-6, 300.0, 1e-3, AU, MOD_TE, MatsubaraSpec(1e-11)),
         "-4.896241710198179e-10"),
        # ideal-metal modified-TE blocks past n = 0: the one-part path
        (lambda: plate_pressure(0.5e-6, 5.0, IdealMetal(), MOD_TE, MatsubaraSpec(1e-8)),
         "-0.0207755987079625"),
        (lambda: plate_pressure(0.15e-6, 300.0, IdealMetal(), MOD_TE, MatsubaraSpec(1e-11)),
         "-2.509454713679602"),
        # the ideal metal's one part under the free-energy integrand: through
        # the close, over several room head blocks, and after a modified-TE
        # n = 0 column of two parts
        (lambda: plate_free_energy_per_area(0.3e-6, 5.0, IdealMetal(), matsubara=MatsubaraSpec(1e-8)),
         "-1.605093552523751e-08"),
        (lambda: sphere_plate_force_pfa(0.15e-6, 300.0, 1e-3, IdealMetal(),
                                        matsubara=MatsubaraSpec(1e-11)), "-8.068915461186646e-10"),
        (lambda: sphere_plate_force_pfa(0.3e-6, 2.0, 1e-3, IdealMetal(), MOD_TE, MatsubaraSpec(1e-8)),
         "-1.0080490137026762e-10"),
        # from before the free energy's near-one branch ran on the rows below
        # y = 1 alone: gold spheres at default tolerances, warm and cold, and
        # the ideal metal's one part
        (lambda: sphere_plate_force_pfa(0.245e-6, 300.0, 1e-3, AU), "-1.3608785184420603e-10"),
        (lambda: sphere_plate_force_pfa(0.175e-6, 290.0, 1e-3, AU), "-3.3696380023335697e-10"),
        (lambda: sphere_plate_force_pfa(1e-6, 1.82, 1e-3, AU), "-2.5044486965856783e-12"),
        (lambda: plate_free_energy_per_area(0.5e-6, 300.0, IdealMetal()), "-3.4795815031451294e-09"),
    ], ids=["ideal-modified-te-low-edge", "gold-2K", "ideal-5K", "gold-room-blocks",
            "gold-modified-te-5K", "gold-modified-te-room-blocks",
            "gold-modified-te-free-energy-5K", "gold-modified-te-sphere-room-blocks",
            "ideal-modified-te-5K", "ideal-modified-te-room-blocks",
            "ideal-free-energy-5K", "ideal-sphere-room-blocks", "ideal-modified-te-sphere-2K",
            "gold-sphere-0.245um-300K", "gold-sphere-0.175um-290K", "gold-sphere-1um-1.82K",
            "ideal-free-energy-0.5um-300K"])
    def test_sum_unchanged(self, call, expected):
        # values from before the close shared its first orders() pass with
        # the outer rule, or as noted; the same with numpy's AVX-512 loops off
        assert repr(call()) == expected

    @staticmethod
    def rule_passes(monkeypatch):
        """The lower limits of each fresnel_coefficients call on the rule's nodes."""
        passes = []

        def counting(model, u, y, *args):
            if y.shape[-1] == lifshitz._NODES.size:
                passes.append(np.ravel(u).tolist())
            return fresnel_coefficients(model, u, y, *args)

        monkeypatch.setattr(lifshitz, "fresnel_coefficients", counting)
        return passes

    def test_cold_sum_makes_three_first_level_passes(self, monkeypatch):
        # the 64-order head, then orders N..N+2 and the outer rule's distinct
        # limits together, in two near-equal blocks; the limits that round to
        # the edge reuse order N's integral
        passes = self.rule_passes(monkeypatch)
        plate_pressure(0.15e-6, 1.0, AU)
        limits = [x for p in passes for x in p]
        assert len(passes) == 3 and max(map(len, passes)) <= 64
        assert len(set(limits)) == len(limits)

    @pytest.mark.parametrize("inv_y1", [3.0, 6.0])
    def test_head_stops_at_the_estimate(self, monkeypatch, inv_y1):
        # estimates of 80.4 and 160.7 orders, which these sums stop by: the
        # block that would pass ceil(estimate) + 1 ends there (128 and 192
        # orders in whole 64-order blocks)
        passes = self.rule_passes(monkeypatch)
        span = math.log(1.0 / MatsubaraSpec().relative_tail_tolerance)
        estimate = (span + 2.0 * math.log(span)) * inv_y1
        plate_pressure(1e-6, temperature_at(1e-6, inv_y1), AU)
        assert 64 < estimate < 256
        assert sum(map(len, passes)) <= math.ceil(estimate) + 1


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

    @staticmethod
    def adaptive_reference(a, T, R, lambda_p):
        """scipy's QUADPACK on the textbook r = (y - k)/(y + k), a reference
        independent of the engine's rule, Fresnel kernel and integrand."""
        from scipy.integrate import quad

        w = 2.0 * a * Plasma(lambda_p).plasma_frequency() / CODATA2018.c

        def f(y):
            k = math.sqrt(w * w + y * y)
            return y * math.log1p(-((y - k) / (y + k)) ** 2 * math.exp(-y))

        integral = quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return CODATA2018.k_B * T * R / (8.0 * a * a) * integral

    @pytest.mark.parametrize("lambda_p", [1e-12, 100e-9, 136e-9, 500e-9])
    def test_matches_adaptive_quadrature(self, lambda_p):
        T, R = 300.0, 1e-3
        for a in np.linspace(0.15e-6, 5e-6, 60):
            got = te_zero_frequency_sphere_term(a, T, R, lambda_p)
            assert got == pytest.approx(self.adaptive_reference(a, T, R, lambda_p),
                                        rel=1e-13, abs=0), a

    def test_r_te_past_one_at_the_smallest_nodes_is_clamped(self):
        # gold at 1.153 um: the kernel's r_TE^2 rounds past 1 at the rule's
        # smallest nodes, where 1 - r_TE^2 e^-y < 0 would make the log NaN
        a, T, R, lambda_p = 1.153e-6, 300.0, 1e-3, 136e-9
        r_te = fresnel_coefficients(Plasma(lambda_p), 0.0, lifshitz._NODES, 2.0 * a)[1]
        assert r_te[0] ** 2 > 1.0
        got = te_zero_frequency_sphere_term(a, T, R, lambda_p)  # a NaN is a ValueError
        assert got == pytest.approx(self.adaptive_reference(a, T, R, lambda_p), rel=1e-13, abs=0)

    def test_tolerance_below_the_rounding_raises(self):
        # the TE term takes the engine's acceptance test and its floor, 129 x eps
        a, T, R = 0.5e-6, 300.0, 1e-3
        value = te_zero_frequency_sphere_term(a, T, R, 136e-9)
        floor = lifshitz._ROUNDING
        assert te_zero_frequency_sphere_term(a, T, R, 136e-9, QuadratureSpec(floor)) == value
        with pytest.raises(lifshitz.QuadratureError, match="zero-frequency TE term"):
            te_zero_frequency_sphere_term(a, T, R, 136e-9, QuadratureSpec(np.nextafter(floor, 0.0)))

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

    @staticmethod
    def blocks(monkeypatch, call, name):
        """(lower limits, y, r^2 pair) of every block the integrand lifshitz.<name>
        receives in call()."""
        lowers, blocks = [], []

        def kernel(model, u, *args):
            lowers.append(np.ravel(u).copy())
            return fresnel_coefficients(model, u, *args)

        def integrand(y, rsq):
            blocks.append((lowers[-1], y.copy(), tuple(np.copy(r2) if np.ndim(r2) else r2
                                                       for r2 in rsq)))
            return original(y, rsq)

        original = getattr(lifshitz, name)
        monkeypatch.setattr(lifshitz, "fresnel_coefficients", kernel)
        monkeypatch.setattr(lifshitz, name, integrand)
        call()
        monkeypatch.undo()
        return blocks

    @pytest.mark.parametrize("model", [AU, Plasma(1e-6), IdealMetal()], ids=repr)
    @pytest.mark.parametrize("a,T,tail", [(0.5e-6, 5.0, 1e-8), (0.15e-6, 300.0, 1e-11)],
                             ids=["close", "room-blocks"])
    @pytest.mark.parametrize("force,name", [
        (plate_pressure, "_pressure_integrand"),
        (plate_free_energy_per_area, "_free_energy_integrand"),
    ], ids=["pressure", "free-energy"])
    def test_modified_te_zeroes_only_n0(self, monkeypatch, force, name, model, a, T, tail):
        # the kernel knows no prescription: the engine zeroes r_TE^2 on the
        # n = 0 row of its block; every other row, each (lower limit, nodes,
        # polarization), is bit for bit the plasma call's; and an ideal-metal
        # block without n = 0 arrives as its one part, which stands for both
        def rows(blocks):
            for lower, y, rsq in blocks:
                both = rsq if len(rsq) == 2 else rsq * 2
                for i, r2 in enumerate(np.broadcast_arrays(*both, y)[:2]):
                    for row, u in enumerate(lower):
                        yield (u, y[row].tobytes(), i), r2[row]

        def call(approach):
            return lambda: force(a, T, model, approach, MatsubaraSpec(tail))

        plasma_blocks = self.blocks(monkeypatch, call(PLASMA), name)
        plasma = dict(rows(plasma_blocks))
        blocks = self.blocks(monkeypatch, call(MOD_TE), name)
        zeros = 0
        for key, r2 in rows(blocks):
            if key[0] == 0.0 and key[2] == 1:
                assert_same_bits(r2, np.zeros_like(r2))
                zeros += 1
            else:
                assert_same_bits(r2, plasma[key])
        assert zeros >= 1
        if isinstance(model, IdealMetal):
            past = [rsq for lower, y, rsq in blocks if lower[0] > 0.0]
            assert past
            for rsq in past + [rsq for lower, y, rsq in plasma_blocks]:
                assert [type(r2) for r2 in rsq] == [float] and rsq == (1.0,)

    @pytest.mark.parametrize("quad", [1e-9, 1e-12])
    @pytest.mark.parametrize("integrand", [lifshitz._pressure_integrand,
                                           lifshitz._free_energy_integrand],
                             ids=["pressure", "free-energy"])
    def test_order_integrals_do_not_depend_on_the_block(self, integrand, quad):
        # the cold close's first pass at 0.5 um, 1/y1 = 73: orders N..N+2 and
        # the outer rule's limits past the edge, which orders() runs in blocks
        # of 64 and the rest; near-equal and one-row blocks give the same bits
        a, u = 0.5e-6, close_first_pass(1.0 / 73.0)

        def grid(lower):
            y = lower + lifshitz._NODES
            r_tm, r_te = fresnel_coefficients(AU, lower, y, 2.0 * a)
            return integrand(y, (r_tm * r_tm, r_te * r_te))

        def split(cuts):
            return np.concatenate([lifshitz._order_integrals(grid(u[i:j]), QuadratureSpec(quad), "")
                                   for i, j in zip(cuts, cuts[1:])])

        n = u.shape[0]
        plain = split([*range(0, n, lifshitz._MAX_BLOCK), n])
        assert 64 == lifshitz._MAX_BLOCK < n < 128  # 119 limits: 64 + 55, 59 + 60 and 119 x 1
        assert_same_bits(split([0, n // 2, n]), plain)
        assert_same_bits(split(range(n + 1)), plain)


def exp_sinh(steps):
    """Step, abscissae s and weights ds/dt of the exp-sinh trapezoid rule in t
    over [-4.5, 2] at `steps` steps; each halving of the step nests the rule."""
    h = 6.5 / steps
    t = -4.5 + np.arange(steps + 1) * h
    s = np.exp(0.5 * math.pi * np.sinh(t))
    return h, s, 0.5 * math.pi * np.cosh(t) * s


# the reference: the rule's step halved four times, 2,049 nodes
FINE_STEP, FINE_NODES, FINE_WEIGHTS = exp_sinh(16 * 128)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


class TestFixedRule:
    """The engine's one 129-node exp-sinh rule, checked by its nested 65-node sum."""

    def test_rule_nests_in_the_reference(self):
        h, s, w = exp_sinh(128)
        assert h == lifshitz._STEP
        assert_same_bits(s, lifshitz._NODES)
        assert_same_bits(w, lifshitz._WEIGHTS)
        assert_same_bits(FINE_NODES[::16], lifshitz._NODES)

    @settings(max_examples=200, deadline=None)
    @given(ratio=log_uniform(1e-3, 1e6), y1=log_uniform(1e-3, 30.0),
           orders=st.lists(st.integers(0, 200), min_size=1, max_size=16, unique=True),
           integrand=st.sampled_from([lifshitz._pressure_integrand,
                                      lifshitz._free_energy_integrand]),
           approach=st.sampled_from(list(ApproachVariant)))
    # the 65-node sum of this row is off by 4.4e-10, past 1e-11
    @example(ratio=1.0, y1=1.0, orders=[0], integrand=lifshitz._pressure_integrand,
             approach=PLASMA)
    def test_accepted_rows_are_within_the_tolerance_of_the_reference(
            self, ratio, y1, orders, integrand, approach):
        # lambda_p/a = ratio; at every tolerance, a row the rule accepts is
        # within it of the reference. Rows whose reference is below 1e-290
        # are left out: ABSOLUTE_FLOOR passes them whatever their error
        a = 1e-6
        u = np.array(orders, float)[:, None] * y1

        def values(nodes):
            y = u + nodes
            r_tm, r_te = fresnel_coefficients(Plasma(ratio * a), u, y, 2.0 * a)
            te2 = np.minimum(r_te * r_te, 1.0)
            if approach is MOD_TE:
                te2[u[:, 0] == 0.0] = 0.0
            return integrand(y, (r_tm * r_tm, te2))

        rows = values(lifshitz._NODES)
        reference = FINE_STEP * np.einsum("ij,j->i", values(FINE_NODES), FINE_WEIGHTS)
        for tol in (1e-7, 1e-9, 1e-11, 1e-13):
            for row, ref in zip(rows, reference):
                if abs(ref) < 1e-290:
                    continue
                try:
                    [got] = lifshitz._order_integrals(row[None, :], QuadratureSpec(tol), "")
                except lifshitz.QuadratureError:
                    continue
                assert abs(got - ref) <= tol * abs(ref), (tol, got, ref)

    def test_values_do_not_depend_on_the_quadrature_tolerance(self):
        # the rule is fixed: every tolerance it meets gives the same float
        got = {plate_free_energy_per_area(0.398e-6, 300.0, AU, matsubara=MatsubaraSpec(1e-11),
                                          quadrature=QuadratureSpec(quad))
               for quad in (1e-7, 1e-9, 1e-11, 1e-13)}
        assert len(got) == 1

    def test_tolerance_below_the_rounding_raises(self):
        # with r^2 <= 1 the integrands keep one sign, so a sum's rounding is
        # at most 129 x eps ~ 2.9e-14 of it: no tighter tolerance can be met
        assert lifshitz._ROUNDING == 129 * np.finfo(float).eps
        assert 2.8e-14 < lifshitz._ROUNDING < 2.9e-14
        value = plate_pressure(0.5e-6, 300.0, AU)
        assert plate_pressure(0.5e-6, 300.0, AU, quadrature=QuadratureSpec(2.9e-14)) == value
        with pytest.raises(lifshitz.QuadratureError, match="below the rule's rounding"):
            plate_pressure(0.5e-6, 300.0, AU, quadrature=QuadratureSpec(2.8e-14))


def textbook_fresnel(model, u, y, length):
    """fresnel_coefficients as whole-array expressions, one temporary per operation."""
    if isinstance(model, IdealMetal):
        r_tm, r_te = 1.0, -1.0
    else:
        w2 = (length * model.plasma_frequency() / CODATA2018.c) ** 2
        p = y + (y * y + w2) ** 0.5
        u2 = u * u
        r_te = -w2 / (p * p)
        r_tm = w2 * (y - u2 / p) / (u2 * p + w2 * y)
    return r_tm, r_te


def textbook_pressure(y, rsq):
    e = np.exp(-y)
    one_minus_e = -np.expm1(-y)
    tm2, te2 = rsq
    return y * y * (tm2 * e / ((1.0 - tm2) + tm2 * one_minus_e)
                    + te2 * e / ((1.0 - te2) + te2 * one_minus_e))


def textbook_free_energy(y, rsq):
    e = np.exp(-y)
    one_minus_e = -np.expm1(-y)
    logs = np.empty_like(y)
    total = 0.0
    for r2 in rsq:
        x = r2 * e
        near_one = x > 0.5
        np.log1p(-x, out=logs, where=~near_one)
        if near_one.any():
            np.log((1.0 - r2) + r2 * one_minus_e, out=logs, where=near_one)
        total = total + logs
    return y * total


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestInPlaceBlocks:
    """The engine builds each (orders x nodes) block in place; it must equal
    the textbook expressions above bit for bit and leave its arguments alone."""

    # lower limits n*y1 for a cold y1 (1/y1 = 1000, as at 0.15 um and 1.2 K:
    # all 64 rows below y = ln 2, where the free energy takes its near-one
    # branch), for a room one (0.5 um at 290 K: only row 0 there), for
    # 1/y1 = 15 (rows 0-14 below y = 1, the first 11 of them below ln 2), and
    # the room orders from y = 700 on, where e^-y underflows to 0 and logs
    # are -0; the close's first pass at 1/y1 = 100 (orders N..N+2, then the
    # outer limits past the edge N y1); n = 0 alone; and rows whose first y
    # do not ascend, the last below y = 1 past one above it
    LOWER = {
        "cold": np.arange(64.0)[:, None] * 1e-3,
        "room": np.arange(64.0)[:, None] * 0.8,
        "mid": np.arange(64.0)[:, None] / 15.0,
        "far": 700.0 + np.arange(64.0)[:, None] * 0.8,
        "close": close_first_pass(1.0 / 100.0),
        "one-row": np.zeros((1, 1)),
        "unordered": np.array([[0.0], [2.0], [0.01]]),
    }
    # the rule's nodes, and the 1,024 the reference adds at its finest step:
    # a 64 x 1,024 block (512 KB) is past numpy's 256 KB threshold for
    # reusing temporaries
    NODES = {"first": lifshitz._NODES, "finest": FINE_NODES[1::2]}
    A = 0.3e-6

    @pytest.fixture(params=list(LOWER))
    def lower(self, request):
        return self.LOWER[request.param]

    @pytest.fixture(params=["first", "finest"])
    def block(self, request, lower):
        return lower, lower + self.NODES[request.param]

    @pytest.mark.parametrize("model", [AU, Plasma(1e-6), IdealMetal()], ids=repr)
    def test_fresnel_coefficients(self, block, model):
        u, y = block
        u0, y0 = u.copy(), y.copy()
        got = fresnel_coefficients(model, u, y, 2.0 * self.A)
        for g, w in zip(got, textbook_fresnel(model, u, y, 2.0 * self.A)):
            assert_same_bits(g, w)
        assert_same_bits(u, u0)
        assert_same_bits(y, y0)

    def test_fresnel_coefficients_of_floats_are_floats(self):
        for u, y in [(0.0, 0.5), (0.4, 1.3), (2.0, 2.0)]:
            got = fresnel_coefficients(AU, u, y, 2.0 * self.A)
            assert [type(r) for r in got] == [float, float]
            assert got == textbook_fresnel(AU, u, y, 2.0 * self.A)

    def reflectivities(self, u, y):
        """r^2 tuples: plasma arrays, the ideal metal's float pair and, in a
        block holding n = 0, each with the modified-TE zero in row 0 of r_TE^2
        (the ideal metal's as a column); last the ideal metal's one part."""
        cases = []
        for model in (AU, IdealMetal()):
            r_tm, r_te = textbook_fresnel(model, u, y, 2.0 * self.A)
            cases.append((r_tm * r_tm, r_te * r_te))
            if u[0, 0] == 0.0:
                te2 = np.full(np.broadcast_shapes(u.shape, np.shape(r_te)), r_te * r_te)
                te2[0] = 0.0
                cases.append((r_tm * r_tm, te2))
        cases.append((1.0,))
        return cases

    @pytest.mark.parametrize("integrand,textbook", [
        (lifshitz._pressure_integrand, textbook_pressure),
        (lifshitz._free_energy_integrand, textbook_free_energy),
    ], ids=["pressure", "free-energy"])
    def test_integrands(self, block, integrand, textbook):
        u, y = block
        shapes = []
        for rsq in self.reflectivities(u, y):
            shapes.append([np.shape(r2) for r2 in rsq])
            kept = [np.copy(r2) for r2 in (y, *rsq)]
            # a lone r^2 stands for both polarizations
            assert_same_bits(integrand(y, rsq), textbook(y, rsq if len(rsq) == 2 else rsq * 2))
            for arg, before in zip((y, *rsq), kept):
                assert_same_bits(arg, before)
        ideal = [[(), ()], [(), (u.shape[0], 1)]] if u[0, 0] == 0.0 else [[(), ()]]
        assert shapes[-1 - len(ideal):] == [*ideal, [()]]

    @settings(max_examples=200, deadline=None)
    @given(lambda_p=log_uniform(1e-9, 1e-3), a=log_uniform(1e-8, 5e-6),
           y1=log_uniform(1e-3, 30.0), first=st.integers(0, 300), rows=st.integers(1, 64),
           ideal=st.booleans(), modified_te=st.booleans(), close=st.booleans(),
           nodes=st.sampled_from(list(NODES)))
    # row 0 of a head: r_TM^2 = 1 and e^-y rounds to 1 at the smallest nodes,
    # so x = r^2 e^-y is 1 exactly there
    @example(lambda_p=136e-9, a=0.3e-6, y1=0.8, first=0, rows=1, ideal=False,
             modified_te=False, close=False, nodes="first")
    # the close's first pass at 1/y1 = 65: orders 64..66 start below, at and
    # past y = 1, and the outer limits below it again
    @example(lambda_p=136e-9, a=1e-6, y1=1.0 / 65.0, first=0, rows=1, ideal=False,
             modified_te=False, close=True, nodes="first")
    def test_integrands_on_drawn_blocks(self, lambda_p, a, y1, first, rows, ideal, modified_te,
                                        close, nodes):
        # blocks as the engine builds them: r^2 from the textbook kernel, and
        # in a block holding n = 0 the modified-TE zero or, under the plasma
        # prescription, r_TE^2 clamped at 1; the ideal metal as one part
        u = close_first_pass(y1) if close else (first + np.arange(rows, dtype=float))[:, None] * y1
        y = u + self.NODES[nodes]
        r_tm, r_te = textbook_fresnel(IdealMetal() if ideal else Plasma(lambda_p), u, y, 2.0 * a)
        tm2, te2 = r_tm * r_tm, r_te * r_te
        if u[0, 0] == 0.0 and modified_te:
            te2 = np.full(np.broadcast_shapes(u.shape, np.shape(te2)), te2)
            te2[0] = 0.0
        elif u[0, 0] == 0.0 and not ideal:
            np.minimum(te2[0], 1.0, out=te2[0])
        rsq = (tm2, te2) if np.ndim(te2) else (tm2,)
        for integrand, textbook in [(lifshitz._pressure_integrand, textbook_pressure),
                                    (lifshitz._free_energy_integrand, textbook_free_energy)]:
            kept = [np.copy(arg) for arg in (y, *rsq)]
            assert_same_bits(integrand(y, rsq), textbook(y, rsq if len(rsq) == 2 else rsq * 2))
            for arg, before in zip((y, *rsq), kept):
                assert_same_bits(arg, before)

    def test_cold_block_takes_the_near_one_branch(self):
        # every cold row meets r_TM^2 e^-y > 1/2 at its inner nodes, none at all
        u = self.LOWER["cold"]
        y = u + self.NODES["first"]
        near = np.exp(-y) * textbook_fresnel(AU, u, y, 2.0 * self.A)[0] ** 2 > 0.5
        assert near.any(axis=1).all() and not near.all()

    @pytest.mark.parametrize("model", [AU, Plasma(1e-6), IdealMetal()], ids=repr)
    def test_no_near_one_node_past_the_bound(self, block, model):
        # the free energy's near-one branch runs on rows [:k] alone, k one
        # past the last row whose first node has y < 1
        u, y = block
        below = np.flatnonzero(y[:, 0] < 1.0)
        k = below[-1] + 1 if below.size else 0
        for r in textbook_fresnel(model, u, y, 2.0 * self.A):
            near = np.broadcast_to(r * r * np.exp(-y), y.shape) > 0.5
            assert not near[k:].any()

    def test_near_one_branch_runs_on_the_rows_below_y_1(self, monkeypatch):
        # a count, not a time: the shape of the output of each np.log, which
        # only the near-one branch calls
        shapes = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def log(*args, out, **kwargs):
                shapes.append(out.shape)
                return np.log(*args, out=out, **kwargs)

        monkeypatch.setattr(lifshitz, "np", RecordingNumpy())
        # 1 um at 300 K, y1 = 1.64: only row 0 starts below y = 1, and both
        # of its polarizations hold near-one nodes
        plate_free_energy_per_area(1e-6, 300.0, AU)
        assert shapes == [(1, 129)] * 2
        shapes.clear()
        u = self.LOWER["cold"]
        y = u + self.NODES["first"]
        r_tm, r_te = textbook_fresnel(AU, u, y, 2.0 * self.A)
        lifshitz._free_energy_integrand(y, (r_tm * r_tm, r_te * r_te))
        assert shapes == [(64, 129)] * 2


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
