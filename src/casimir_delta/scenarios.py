"""Temperature-difference Casimir forces for both geometries and both
zero-frequency prescriptions, plus the separation/temperature sweeps behind
the figure datasets.

Each closed form's arithmetic is written once, in `_plates_difference` and
`_sphere_difference`, which run elementwise on floats and on numpy arrays
alike. `delta_force_plates`/`delta_force_sphere` check one point and call
them on floats; the sweeps check their inputs once and call them on the
whole grid, once per column, so that a sweep cell and the scalar value are
the same float. Both go through `quantities.finite`, so an input for which
the closed form is not finite is a ValueError. A sweep returns the bare
(points x columns) array, column 0 its grid in SI units; its sphere columns
are per unit radius, delta_F at R = 1 m, and the CLI names the columns."""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import pi

import numpy as np

from .dielectric import ApproachVariant
from .lifshitz import ParallelPlates, SpherePlate
from .perturbative import asymptotic_te_term
from .quantities import (
    CODATA2018,
    derived_scales,
    finite,
    gap_scales,
    positive,
    skin_depth_parameter,
)
from .quantities import classify_validity  # noqa: F401  (perfbench's tracer wraps scenarios' copy)


@dataclass(frozen=True)
class TemperaturePair:
    """Two equilibrium temperatures; the difference force is F(T2) - F(T1)."""

    T1: float  # K
    T2: float  # K

    def __post_init__(self) -> None:
        object.__setattr__(self, "T1", positive("temperature", self.T1))
        object.__setattr__(self, "T2", positive("temperature", self.T2))


def _plates_difference(T1, T2, T_eff, d):
    """delta_F of the plate closed form, -factor1 * factor2, elementwise where
    T_eff and d are arrays over separations. T1 and T2 stay floats: numpy's
    array ** is not Python's pow bit for bit."""
    z3 = CODATA2018.zeta3
    factor1 = (
        pi ** 2 * CODATA2018.k_B ** 4 * (T2 ** 4 - T1 ** 4)
        / (45.0 * CODATA2018.hbar ** 3 * CODATA2018.c ** 3)
    )
    factor2 = 1.0 + (90.0 * z3 / pi ** 3) * d * (
        T_eff / (T1 + T2)
    ) * (1.0 + T1 * T2 / (T1 * T1 + T2 * T2))
    return -factor1 * factor2


def _sphere_difference(a, T1, T2, R, T_eff, d, approach: ApproachVariant):
    """delta_F of the sphere-plate closed form, -R * factor1 * factor2 plus
    the zero-frequency TE term, elementwise where a (with T_eff and d) or T2
    is an array. The TE term is added even when it is 0.0, which turns a
    -0.0 into 0.0."""
    z3 = CODATA2018.zeta3
    factor1 = (
        z3 * CODATA2018.k_B ** 3 * (T2 - T1) * (T1 * T1 + T2 * T2)
        / (CODATA2018.hbar ** 2 * CODATA2018.c ** 2)
    )
    factor2 = (1.0 + T1 * T2 / (T1 * T1 + T2 * T2)) * (1.0 + 2.0 * d) - (
        pi ** 3 / (45.0 * z3)
    ) * ((T1 + T2) / T_eff) * (1.0 + 4.0 * d)
    te_term = 0.0
    if approach is ApproachVariant.MODIFIED_TE:
        te_term = asymptotic_te_term(a, T2 - T1, R, d)
    return -R * factor1 * factor2 + te_term


def delta_force_plates(a: float, pair: TemperaturePair, lambda_p: float) -> float:
    """Plate-plate difference force per unit area, N/m^2.

    The dimensionful prefactor pi^2 k_B^4 (T2^4 - T1^4)/(45 hbar^3 c^3) is
    separation independent; finite conductivity enters only through the
    dimensionless factor, which is 1 for an ideal metal.
    """
    a, _, _, T_eff, d = derived_scales(a, lambda_p)
    inputs = {"separation": a, "temperature T1": pair.T1, "temperature T2": pair.T2,
              "plasma wavelength": lambda_p}
    return finite("difference force", inputs, _plates_difference, pair.T1, pair.T2, T_eff, d)


def delta_force_sphere(
    a: float,
    pair: TemperaturePair,
    R: float,
    lambda_p: float,
    approach: ApproachVariant = ApproachVariant.PLASMA_ZERO_FREQUENCY,
) -> float:
    """Sphere-plate difference force, N.

    Under MODIFIED_TE the sphere's zero-frequency TE contribution
    (k_B zeta3 R/(8 a^2)) (T2 - T1)(1 - 4d + 12 d^2) is added back, flipping
    the sign of the total for gold-like parameters.
    """
    a, _, R, T_eff, d = derived_scales(a, lambda_p, R=R)
    inputs = {"separation": a, "temperature T1": pair.T1, "temperature T2": pair.T2,
              "sphere radius": R, "plasma wavelength": lambda_p}
    return finite("difference force", inputs, _sphere_difference, a, pair.T1, pair.T2, R, T_eff,
                  d, approach)


@dataclass(frozen=True)
class SweepSpec:
    """Grid of `points` values from start to stop: geometric over separation
    (m), linear over the upper temperature (K). A one-point grid is [start],
    whatever its stop; any other runs upwards, so start is its least value."""

    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        for end in ("start", "stop"):
            value = getattr(self, end)
            if not math.isfinite(value):
                raise ValueError(f"grid {end} must be finite, got {value!r}")
        if self.points < 1:
            raise ValueError("grid needs at least one point")
        if self.points == 1:
            object.__setattr__(self, "stop", self.start)
        elif not self.start < self.stop:
            raise ValueError("grid start must be below stop for more than one point")


DEFAULT_SEPARATION_GRID = SweepSpec(0.15e-6, 2.0e-6, 75)
DEFAULT_TEMPERATURE_GRID = SweepSpec(300.0, 350.0, 51)


def sweep_separation(
    pair: TemperaturePair,
    lambda_p: float,
    geometry: ParallelPlates | SpherePlate,
    approach: ApproachVariant = ApproachVariant.PLASMA_ZERO_FREQUENCY,
    grid: SweepSpec = DEFAULT_SEPARATION_GRID,
) -> np.ndarray:
    """Difference force over a separation grid, with the ideal-metal companion
    column every figure contrasts against: the (points x 3) array of a (m),
    the real-metal and the ideal-metal delta_F. Sphere-plate columns are per
    unit radius (N/m), delta_F at R = 1 m: only the kind of geometry is read,
    never its R.

    The grid is np.geomspace(start, stop, points). The inputs are checked
    once (the grid's least separation is its start) and each column is one
    elementwise pass of the closed form over the grid; every cell equals
    the scalar delta_force_* value (the sphere's at R = 1.0) bit for bit.
    Inputs for which a cell is not finite are a ValueError that names the
    scalar inputs and the first separation with such a cell."""
    positive("separation", grid.start)
    a = np.geomspace(grid.start, grid.stop, grid.points)
    delta = skin_depth_parameter(lambda_p)
    T1, T2 = pair.T1, pair.T2
    if isinstance(geometry, ParallelPlates):
        def column(depth):
            return _plates_difference(T1, T2, *gap_scales(a, depth))
    else:
        def column(depth):
            return _sphere_difference(a, T1, T2, 1.0, *gap_scales(a, depth), approach)
    inputs = {"temperature T1": T1, "temperature T2": T2, "plasma wavelength": lambda_p}
    values = finite("difference force", inputs, lambda: (column(delta), column(0.0)),
                    grid=("separation", a))
    return np.column_stack((a, *values))


def sweep_temperature(
    a: float,
    lambda_p: float,
    grid: SweepSpec = DEFAULT_TEMPERATURE_GRID,
) -> np.ndarray:
    """Sphere-plate difference force per unit radius (N/m, delta_F at
    R = 1 m) versus the upper temperature: the (points x 4) array of T2 (K)
    and the plasma, modified-TE and ideal-metal columns.

    The grid is np.linspace(start, stop, points), and T1 is its start, so
    the first row is T2 = T1. As in sweep_separation, the inputs are checked
    once, each column is one elementwise pass over the T2 grid, equal to
    the scalar values, and inputs for which a cell is not finite are a
    ValueError that names the scalar inputs and the first T2 with such a
    cell."""
    T1 = positive("temperature", grid.start)
    T2 = np.linspace(T1, grid.stop, grid.points)
    a = positive("separation", a)
    delta = skin_depth_parameter(lambda_p)
    cases = (
        (delta, ApproachVariant.PLASMA_ZERO_FREQUENCY),
        (delta, ApproachVariant.MODIFIED_TE),
        (0.0, ApproachVariant.PLASMA_ZERO_FREQUENCY),
    )
    values = finite(
        "difference force",
        {"separation": a, "temperature T1": T1, "plasma wavelength": lambda_p},
        lambda: tuple(_sphere_difference(a, T1, T2, 1.0, *gap_scales(a, depth), approach)
                      for depth, approach in cases),
        grid=("temperature T2", T2))
    return np.column_stack((T2, *values))
