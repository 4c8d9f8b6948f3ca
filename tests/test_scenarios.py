import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from casimir_delta.dielectric import ApproachVariant
from casimir_delta.lifshitz import ParallelPlates, SpherePlate
from casimir_delta.perturbative import (
    asymptotic_te_term,
    plate_force_perturbative,
    sphere_force_perturbative,
    te_zero_frequency_asymptotic,
)
from casimir_delta.quantities import skin_depth_parameter
from casimir_delta.scenarios import (
    DEFAULT_SEPARATION_GRID,
    DEFAULT_TEMPERATURE_GRID,
    SweepSpec,
    TemperaturePair,
    delta_force_plates,
    delta_force_sphere,
    sweep_separation,
    sweep_temperature,
)

AU_LP = 136e-9
PLASMA = ApproachVariant.PLASMA_ZERO_FREQUENCY
MOD_TE = ApproachVariant.MODIFIED_TE
PAIR = TemperaturePair(300.0, 350.0)


class TestDeltaForcePlates:
    def test_zero_at_equal_temperatures(self):
        assert delta_force_plates(0.5e-6, TemperaturePair(320.0, 320.0), AU_LP) == 0.0

    def test_ideal_metal_separation_independent(self):
        vals = {delta_force_plates(a, PAIR, 0.0) for a in (0.2e-6, 0.8e-6, 2e-6)}
        assert len(vals) == 1
        (val,) = vals
        assert val < 0.0

    def test_small_to_large_separation_ratio(self):
        # frozen direct evaluation; the "more than 9 times stronger" claim
        ratio = abs(delta_force_plates(0.15e-6, PAIR, AU_LP)) / abs(
            delta_force_plates(2e-6, PAIR, AU_LP)
        )
        assert ratio == pytest.approx(9.368323477448698, rel=1e-12)

    @settings(max_examples=30)
    @given(
        st.floats(min_value=0.15e-6, max_value=2e-6),
        st.floats(min_value=250.0, max_value=350.0),
        st.floats(min_value=250.0, max_value=350.0),
    )
    def test_antisymmetry(self, a, t1, t2):
        fwd = delta_force_plates(a, TemperaturePair(t1, t2), AU_LP)
        bwd = delta_force_plates(a, TemperaturePair(t2, t1), AU_LP)
        assert fwd == -bwd


class TestDeltaForceSphere:
    def test_zero_at_equal_temperatures_both_approaches(self):
        pair = TemperaturePair(320.0, 320.0)
        for approach in (PLASMA, MOD_TE):
            assert delta_force_sphere(0.5e-6, pair, 2e-3, AU_LP, approach) == 0.0

    def test_plasma_approach_gold_half_micron(self):
        # frozen direct evaluation; ~ -9.6e-14 N at R = 2 mm
        res = delta_force_sphere(0.5e-6, PAIR, 2e-3, AU_LP, PLASMA)
        assert res == pytest.approx(-9.635260838372865e-14, rel=1e-12, abs=0)
        assert res / 2e-3 == pytest.approx(-4.8176304191864324e-11, rel=1e-12, abs=0)

    def test_modified_te_flips_sign_and_dominates(self):
        plasma = delta_force_sphere(0.5e-6, PAIR, 2e-3, AU_LP, PLASMA)
        mod = delta_force_sphere(0.5e-6, PAIR, 2e-3, AU_LP, MOD_TE)
        assert plasma < 0.0 < mod
        assert abs(mod) / abs(plasma) == pytest.approx(6.314593718627014, rel=1e-12)

    def test_approach_gap_is_exactly_the_te_term(self):
        # the modified-TE difference adds back the asymptotic TE term's
        # change, the term the sphere force subtracts at each temperature
        a, R = 0.5e-6, 2e-3
        plasma = delta_force_sphere(a, PAIR, R, AU_LP, PLASMA)
        mod = delta_force_sphere(a, PAIR, R, AU_LP, MOD_TE)
        d = skin_depth_parameter(AU_LP) / a
        assert mod - plasma == asymptotic_te_term(a, PAIR.T2 - PAIR.T1, R, d)
        te_change = (te_zero_frequency_asymptotic(a, PAIR.T1, R, AU_LP)
                     - te_zero_frequency_asymptotic(a, PAIR.T2, R, AU_LP))
        assert mod - plasma == pytest.approx(te_change, rel=1e-12, abs=0)

    def test_small_to_large_separation_ratio(self):
        # the "more than 2 times stronger" claim
        ratio = abs(delta_force_sphere(0.15e-6, PAIR, 1e-3, AU_LP)) / abs(
            delta_force_sphere(2e-6, PAIR, 1e-3, AU_LP)
        )
        assert ratio == pytest.approx(2.1810620962011713, rel=1e-12)

    @settings(max_examples=30)
    @given(
        st.floats(min_value=0.15e-6, max_value=2e-6),
        st.floats(min_value=250.0, max_value=350.0),
        st.floats(min_value=250.0, max_value=350.0),
        st.sampled_from([PLASMA, MOD_TE]),
    )
    def test_antisymmetry(self, a, t1, t2, approach):
        fwd = delta_force_sphere(a, TemperaturePair(t1, t2), 1e-3, AU_LP, approach)
        bwd = delta_force_sphere(a, TemperaturePair(t2, t1), 1e-3, AU_LP, approach)
        assert fwd == -bwd


class TestSweepSeparation:
    def test_plates_magnitude_decreasing_real_constant_ideal(self):
        grid = SweepSpec(0.15e-6, 2e-6, 20)
        values = sweep_separation(PAIR, AU_LP, ParallelPlates(), grid=grid)
        real = np.abs(values[:, 1])
        ideal = values[:, 2]
        assert np.all(real[:-1] > real[1:])
        assert len(set(ideal.tolist())) == 1

    def test_sphere_ideal_column_also_decreasing(self):
        grid = SweepSpec(0.15e-6, 2e-6, 20)
        values = sweep_separation(PAIR, AU_LP, SpherePlate(1e-3), grid=grid)
        ideal = np.abs(values[:, 2])
        assert np.all(ideal[:-1] > ideal[1:])

    @pytest.mark.parametrize("approach", [PLASMA, MOD_TE])
    def test_sphere_per_radius_independent_of_R(self, approach):
        # radii whose ratios are not powers of two, down to 1e-300 m: dividing
        # delta_F at R by R would differ from R = 1 m in the last bit or worse
        grid = SweepSpec(0.15e-6, 2e-6, 500)
        ref = sweep_separation(PAIR, AU_LP, SpherePlate(1.0), approach, grid)
        for R in (1e-3, 0.7e-3, 4.9e-3, 1e-300):
            values = sweep_separation(PAIR, AU_LP, SpherePlate(R), approach, grid)
            assert values.tobytes() == ref.tobytes()

    def test_default_grid_75_points(self):
        values = sweep_separation(PAIR, AU_LP, ParallelPlates())
        assert values.shape == (75, 3)
        assert values[0, 0] == pytest.approx(0.15e-6)
        assert values[-1, 0] == pytest.approx(2e-6)

    @pytest.mark.parametrize("points", [1, 5])
    @pytest.mark.parametrize("start", [0.0, -1e-6])
    def test_non_positive_start_rejected(self, start, points):
        for geometry in (ParallelPlates(), SpherePlate(1e-3)):
            with pytest.raises(ValueError, match="separation must be positive"):
                sweep_separation(PAIR, AU_LP, geometry, grid=SweepSpec(start, 2e-6, points))


class TestSweepTemperature:
    def test_endpoint_zero_and_columns(self):
        values = sweep_temperature(0.5e-6, AU_LP)
        assert values.shape == (51, 4)
        first = values[0]
        assert first[0] == 300.0
        assert first[1] == first[2] == first[3] == 0.0

    def test_modified_te_changes_fastest(self):
        _, plasma, mod_te, _ = sweep_temperature(0.5e-6, AU_LP).T
        assert np.all(np.abs(np.diff(mod_te)) > np.abs(np.diff(plasma)))

    def test_ideal_practically_coincides_with_plasma(self):
        _, plasma, mod_te, ideal = sweep_temperature(0.5e-6, AU_LP)[1:].T
        assert np.all(np.abs(ideal - plasma) < 0.1 * np.abs(mod_te - plasma))

    @pytest.mark.parametrize("points", [1, 5])
    @pytest.mark.parametrize("start", [0.0, -300.0])
    def test_non_positive_start_rejected(self, start, points):
        with pytest.raises(ValueError, match="temperature must be positive"):
            sweep_temperature(0.5e-6, AU_LP, grid=SweepSpec(start, 350.0, points))


class TestSweepSpec:
    def test_rejects_empty_and_degenerate(self):
        with pytest.raises(ValueError):
            SweepSpec(1e-6, 2e-6, 0)
        with pytest.raises(ValueError):
            SweepSpec(1e-6, 1e-6, 2)
        with pytest.raises(ValueError):
            SweepSpec(2e-6, 1e-6, 5)

    def test_single_point_grid(self):
        # a one-point grid is [start]; its stop, any finite value, is unused
        for stop in (1e-6, 5.0, 0.0, -5.0):
            grid = SweepSpec(1e-6, stop, 1)
            assert grid.stop == grid.start == 1e-6
            values = sweep_separation(PAIR, AU_LP, ParallelPlates(), grid=grid)
            assert values[:, 0].tolist() == [1e-6]
        values = sweep_temperature(0.5e-6, AU_LP, grid=SweepSpec(300.0, 200.0, 1))
        assert values[:, 0].tolist() == [300.0]

    @pytest.mark.parametrize("start,stop", [
        (1e-6, math.inf), (math.nan, 2e-6), (-math.inf, 2e-6), (1e-6, math.nan),
    ])
    def test_non_finite_end_rejected(self, start, stop):
        for points in (1, 5):  # a one-point grid's unused stop too
            with pytest.raises(ValueError, match="must be finite"):
                SweepSpec(start, stop, points)

    def test_defaults(self):
        assert DEFAULT_SEPARATION_GRID == SweepSpec(0.15e-6, 2e-6, 75)
        assert DEFAULT_TEMPERATURE_GRID == SweepSpec(300.0, 350.0, 51)

    @pytest.mark.parametrize("points", [1, 2, 75, 500])
    def test_grid_column_is_numpys_grid(self, points):
        # bit for bit: geometric over separation, linear over T2
        a = np.geomspace(0.15e-6, 2e-6, points)
        for geometry in (ParallelPlates(), SpherePlate(1e-3)):
            values = sweep_separation(PAIR, AU_LP, geometry, grid=SweepSpec(0.15e-6, 2e-6, points))
            assert values[:, 0].tobytes() == a.tobytes()
        T2 = np.linspace(300.0, 350.0, points)
        values = sweep_temperature(0.5e-6, AU_LP, grid=SweepSpec(300.0, 350.0, points))
        assert values[:, 0].tobytes() == T2.tobytes()


class TestSweepEqualsScalar:
    """Every sweep cell is the scalar closed form's float (the sphere's at
    R = 1 m), signed zeros included, so the cells are compared by repr."""

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.floats(min_value=0.05e-6, max_value=2e-6),
        ratio=st.floats(min_value=1.0001, max_value=40.0),
        points=st.integers(min_value=1, max_value=30),
        t1=st.floats(min_value=1.0, max_value=400.0),
        t2=st.floats(min_value=1.0, max_value=400.0),
        lam=st.sampled_from([0.0, AU_LP]) | st.floats(min_value=1e-9, max_value=500e-9),
    )
    # at 0.473 um CPython's a ** 2 (libm pow) is not the exact square a * a
    @example(start=0.473e-6, ratio=2.0, points=1, t1=300.0, t2=350.0, lam=AU_LP)
    @example(start=0.15e-6, ratio=2.0, points=5, t1=320.0, t2=320.0, lam=AU_LP)
    def test_separation_sweep(self, start, ratio, points, t1, t2, lam):
        grid = SweepSpec(start, start * ratio, points)
        pair = TemperaturePair(t1, t2)
        values = sweep_separation(pair, lam, ParallelPlates(), grid=grid)
        for a, real, ideal in values.tolist():
            assert repr(real) == repr(delta_force_plates(a, pair, lam))
            assert repr(ideal) == repr(delta_force_plates(a, pair, 0.0))
        for approach in (PLASMA, MOD_TE):
            values = sweep_separation(pair, lam, SpherePlate(1e-3), approach, grid)
            for a, real, ideal in values.tolist():
                for value, lam_ in ((real, lam), (ideal, 0.0)):
                    scalar = delta_force_sphere(a, pair, 1.0, lam_, approach)
                    assert repr(value) == repr(scalar)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(min_value=0.05e-6, max_value=5e-6),
        t1=st.floats(min_value=1.0, max_value=400.0),
        rise=st.floats(min_value=0.001, max_value=100.0),
        points=st.integers(min_value=1, max_value=30),
        lam=st.sampled_from([0.0, AU_LP]) | st.floats(min_value=1e-9, max_value=500e-9),
    )
    @example(a=0.473e-6, t1=300.0, rise=50.0, points=51, lam=AU_LP)
    def test_temperature_sweep(self, a, t1, rise, points, lam):
        values = sweep_temperature(a, lam, SweepSpec(t1, t1 + rise, points))
        for T2, plasma, mod_te, ideal in values.tolist():
            pair = TemperaturePair(t1, T2)
            for value, lam_, approach in ((plasma, lam, PLASMA), (mod_te, lam, MOD_TE),
                                          (ideal, 0.0, PLASMA)):
                scalar = delta_force_sphere(a, pair, 1.0, lam_, approach)
                assert repr(value) == repr(scalar)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=math.log(0.15e-6), max_value=math.log(2e-6)).map(math.exp),
    temperatures=st.tuples(st.floats(1.0, 350.0), st.floats(1.0, 350.0)).map(sorted),
    lam=st.just(0.0) | st.floats(min_value=100e-9, max_value=200e-9),
    R=st.floats(min_value=0.5e-3, max_value=5e-3),
)
def test_difference_force_is_the_difference_of_the_absolute_forces(a, temperatures, lam, R):
    # scenarios' factored difference and perturbative's absolute forces write
    # the same coefficients in two arrangements; they agree to a few rounding
    # errors of the larger force (5.9 eps at worst over 20,000 draws)
    T1, T2 = temperatures
    pair = TemperaturePair(T1, T2)
    cases = [(delta_force_plates(a, pair, lam),
              [plate_force_perturbative(a, T, lam).total for T in (T1, T2)])]
    for approach in (PLASMA, MOD_TE):
        cases.append((delta_force_sphere(a, pair, R, lam, approach),
                      [sphere_force_perturbative(a, T, R, lam, approach).total for T in (T1, T2)]))
    for delta, (f1, f2) in cases:
        assert abs(delta - (f2 - f1)) <= 32.0 * np.finfo(float).eps * max(abs(f1), abs(f2))
