"""Temperature-difference Casimir forces for both geometries and both
zero-frequency prescriptions, plus the separation/temperature sweeps behind
the figure datasets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dielectric import ApproachVariant
from .lifshitz import Geometry, ParallelPlates, SpherePlate
from .quantities import (
    CODATA2018,
    Constants,
    ValidityReport,
    classify_validity,
    derived_scales,
    positive,
)


@dataclass(frozen=True)
class TemperaturePair:
    """Two equilibrium temperatures; the difference force is F(T2) - F(T1)."""

    T1: float  # K
    T2: float  # K

    def __post_init__(self) -> None:
        object.__setattr__(self, "T1", positive("temperature", self.T1))
        object.__setattr__(self, "T2", positive("temperature", self.T2))

    def swapped(self) -> "TemperaturePair":
        return TemperaturePair(self.T2, self.T1)


@dataclass(frozen=True)
class DifferenceResult:
    """Difference force, N (sphere-plate) or N/m^2 (plates).

    delta_F = -factor1 * factor2 (times R for the sphere) plus, under the
    modified-TE prescription, the zero-frequency TE term reported separately
    in zero_frequency_te_term.
    """

    delta_F: float
    factor1: float
    factor2: float
    approach: ApproachVariant
    geometry: Geometry
    validity: ValidityReport
    zero_frequency_te_term: float = 0.0


def delta_force_plates(
    a: float,
    pair: TemperaturePair,
    lambda_p: float,
    constants: Constants = CODATA2018,
) -> DifferenceResult:
    """Plate-plate difference force per unit area, N/m^2.

    The dimensionful prefactor pi^2 k_B^4 (T2^4 - T1^4)/(45 hbar^3 c^3) is
    separation independent; finite conductivity enters only through the
    dimensionless factor, which is 1 for an ideal metal.
    """
    a_m = positive("separation", a)
    T1, T2 = pair.T1, pair.T2
    scales = derived_scales(a_m, T1, lambda_p, constants)
    z3 = constants.zeta3
    pi = constants.pi

    factor1 = (
        pi ** 2 * constants.k_B ** 4 * (T2 ** 4 - T1 ** 4)
        / (45.0 * constants.hbar ** 3 * constants.c ** 3)
    )
    factor2 = 1.0 + (90.0 * z3 / pi ** 3) * scales.delta_over_a * (
        scales.T_eff / (T1 + T2)
    ) * (1.0 + T1 * T2 / (T1 * T1 + T2 * T2))
    return DifferenceResult(
        delta_F=-factor1 * factor2,
        factor1=factor1,
        factor2=factor2,
        approach=ApproachVariant.PLASMA_ZERO_FREQUENCY,
        geometry=ParallelPlates(),
        validity=classify_validity(a_m, T1, T2, lambda_p),
    )


def delta_force_sphere(
    a: float,
    pair: TemperaturePair,
    R: float,
    lambda_p: float,
    approach: ApproachVariant = ApproachVariant.PLASMA_ZERO_FREQUENCY,
    constants: Constants = CODATA2018,
) -> DifferenceResult:
    """Sphere-plate difference force, N.

    Under MODIFIED_TE the sphere's zero-frequency TE contribution
    (k_B zeta3 R/(8 a^2)) (T2 - T1)(1 - 4d + 12 d^2) is added back, flipping
    the sign of the total for gold-like parameters.
    """
    a_m = positive("separation", a)
    geometry = SpherePlate(R)
    T1, T2 = pair.T1, pair.T2
    scales = derived_scales(a_m, T1, lambda_p, constants)
    d = scales.delta_over_a
    z3 = constants.zeta3
    pi = constants.pi

    factor1 = (
        z3 * constants.k_B ** 3 * (T2 - T1) * (T1 * T1 + T2 * T2)
        / (constants.hbar ** 2 * constants.c ** 2)
    )
    factor2 = (1.0 + T1 * T2 / (T1 * T1 + T2 * T2)) * (1.0 + 2.0 * d) - (
        pi ** 3 / (45.0 * z3)
    ) * ((T1 + T2) / scales.T_eff) * (1.0 + 4.0 * d)

    te_term = 0.0
    if approach is ApproachVariant.MODIFIED_TE:
        te_term = (
            constants.k_B * z3 * geometry.R / (8.0 * a_m ** 2)
            * (T2 - T1) * (1.0 - 4.0 * d + 12.0 * d * d)
        )
    return DifferenceResult(
        delta_F=-geometry.R * factor1 * factor2 + te_term,
        factor1=factor1,
        factor2=factor2,
        approach=approach,
        geometry=geometry,
        zero_frequency_te_term=te_term,
        validity=classify_validity(a_m, T1, T2, lambda_p),
    )


@dataclass(frozen=True)
class SweepSpec:
    """Grid over separation (m) or over the upper temperature (K)."""

    start: float
    stop: float
    points: int
    spacing: str = "log"  # "log" or "linear"

    def __post_init__(self) -> None:
        if self.points < 1:
            raise ValueError("grid needs at least one point")
        if self.points > 1 and not self.start < self.stop:
            raise ValueError("grid start must be below stop for more than one point")
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "log" and self.start <= 0.0:
            raise ValueError("log spacing needs a positive start")

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.start])
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


DEFAULT_SEPARATION_GRID = SweepSpec(0.15e-6, 2.0e-6, 75, "log")
DEFAULT_TEMPERATURE_GRID = SweepSpec(300.0, 350.0, 51, "linear")


@dataclass(frozen=True)
class SweepTable:
    """Column-labelled rows; sphere-plate columns are per unit radius (N/m)."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


def sweep_separation(
    pair: TemperaturePair,
    lambda_p: float,
    geometry: Geometry,
    approach: ApproachVariant = ApproachVariant.PLASMA_ZERO_FREQUENCY,
    grid: SweepSpec = DEFAULT_SEPARATION_GRID,
    constants: Constants = CODATA2018,
) -> SweepTable:
    """Difference force over a separation grid, with the ideal-metal companion
    column every figure contrasts against. Sphere-plate values are per unit
    radius, so the result does not depend on the sphere's R."""
    separations = grid.values()
    rows = []
    if isinstance(geometry, ParallelPlates):
        columns = ("a_m", "dF_real_N_per_m2", "dF_ideal_N_per_m2")
        for a in separations:
            real = delta_force_plates(a, pair, lambda_p, constants).delta_F
            ideal = delta_force_plates(a, pair, 0.0, constants).delta_F
            rows.append((float(a), real, ideal))
    else:
        columns = ("a_m", "dFps_over_R_real_N_per_m", "dFps_over_R_ideal_N_per_m")
        R = geometry.R
        for a in separations:
            real = delta_force_sphere(a, pair, R, lambda_p, approach, constants).delta_F / R
            ideal = delta_force_sphere(a, pair, R, 0.0, approach, constants).delta_F / R
            rows.append((float(a), real, ideal))
    return SweepTable(columns=columns, rows=tuple(rows))


def sweep_temperature(
    a: float,
    T1: float,
    lambda_p: float,
    R: float = 1.0e-3,
    grid: SweepSpec = DEFAULT_TEMPERATURE_GRID,
    constants: Constants = CODATA2018,
) -> SweepTable:
    """Sphere-plate difference force per unit radius versus the upper
    temperature, under both prescriptions, with the ideal-metal reference."""
    columns = (
        "T2_K",
        "dFps_over_R_plasma_N_per_m",
        "dFps_over_R_modified_te_N_per_m",
        "dFps_over_R_ideal_N_per_m",
    )
    rows = []
    for T2 in grid.values():
        pair = TemperaturePair(T1, float(T2))
        plasma = delta_force_sphere(
            a, pair, R, lambda_p, ApproachVariant.PLASMA_ZERO_FREQUENCY, constants
        ).delta_F / R
        mod_te = delta_force_sphere(
            a, pair, R, lambda_p, ApproachVariant.MODIFIED_TE, constants
        ).delta_F / R
        ideal = delta_force_sphere(
            a, pair, R, 0.0, ApproachVariant.PLASMA_ZERO_FREQUENCY, constants
        ).delta_F / R
        rows.append((float(T2), plasma, mod_te, ideal))
    return SweepTable(columns=columns, rows=tuple(rows))
