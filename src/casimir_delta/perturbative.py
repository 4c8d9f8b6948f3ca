"""Closed-form perturbative forces: double expansion in the skin-depth ratio
d = delta/a and the thermal ratio t = T/T_eff, truncated at the explicitly
known orders.

The temperature-independent conductivity series is carried through third
order (Bordag, Mohideen & Mostepanenko, Phys. Rep. 353, 1 (2001)):

    plates: 1 - (16/3)d + 24 d^2 - (640/7)(1 - pi^2/210) d^3
    sphere: 1 - 4d + (72/5) d^2 - (320/7)(1 - pi^2/210) d^3

(the sphere series is the plate free-energy series, by the proximity-force
mapping F = 2 pi R E). Only the first-order term couples to temperature.
The fourth- through sixth-order coefficients are kept as a flagged, omitted
remainder: they are temperature independent, so every difference force is
exact without them."""

from __future__ import annotations

import math
from dataclasses import dataclass

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

OMITTED_REMAINDER_NOTE = (
    "fourth- through sixth-order conductivity terms omitted "
    "(temperature independent; cancel in all difference forces)"
)
ASYMPTOTIC_RANGE_NOTE = (
    "zero-frequency TE asymptotic degraded below a = 0.5 um; "
    "use the engine quadrature there"
)


@dataclass(frozen=True)
class PerturbativeTerms:
    """Term-by-term decomposition of a perturbative force.

    total correction factor = 1 + thermal_ideal + conductivity_first_order
    + conductivity_higher_order + cross_term; `base` is the zero-temperature
    ideal-metal force the factor multiplies. conductivity_higher_order holds
    the temperature-independent second- and third-order terms in delta/a.
    zero_frequency_te is a force, not a relative term: the asymptotic
    zero-frequency TE sphere term that the modified-TE prescription leaves
    out, so total = base * correction_factor - zero_frequency_te. It is 0
    under the plasma prescription.
    """

    base: float
    thermal_ideal: float
    conductivity_first_order: float
    conductivity_higher_order: float
    cross_term: float
    zero_frequency_te: float = 0.0

    @property
    def correction_factor(self) -> float:
        return (
            1.0 + self.thermal_ideal + self.conductivity_first_order
            + self.conductivity_higher_order + self.cross_term
        )

    @property
    def total(self) -> float:
        return self.base * self.correction_factor - self.zero_frequency_te


@dataclass(frozen=True)
class ForceResult:
    """A perturbative force (N, sphere-plate) or force per area (N/m^2, plates).

    Attractive forces are negative. `notes` records bookkeeping such as the
    omitted higher-order conductivity remainder of the series.
    """

    value: float
    geometry: Geometry
    approach: ApproachVariant
    validity: ValidityReport
    terms: PerturbativeTerms
    notes: tuple[str, ...] = ()


def plate_force_perturbative(
    a: float,
    T: float,
    lambda_p: float,
    constants: Constants = CODATA2018,
) -> ForceResult:
    """Plate-plate force per unit area, N/m^2.

    F0 * {1 + (1/3)t^4 - (16/3)d[1 - (45 zeta3/(8 pi^3)) t^3]
          + 24 d^2 - (640/7)(1 - pi^2/210) d^3}
    with F0 = -pi^2 hbar c/(240 a^4), t = T/T_eff, d = delta/a.
    """
    a_m = positive("separation", a)
    T_k = positive("temperature", T)
    scales = derived_scales(a_m, T_k, lambda_p, constants)
    t = scales.T_over_Teff
    d = scales.delta_over_a
    z3 = constants.zeta3
    pi = constants.pi

    base = -pi ** 2 * constants.hbar * constants.c / (240.0 * a_m ** 4)
    terms = PerturbativeTerms(
        base=base,
        thermal_ideal=t ** 4 / 3.0,
        conductivity_first_order=-(16.0 / 3.0) * d,
        conductivity_higher_order=(
            24.0 * d ** 2 - (640.0 / 7.0) * (1.0 - pi ** 2 / 210.0) * d ** 3
        ),
        cross_term=(16.0 / 3.0) * d * (45.0 * z3 / (8.0 * pi ** 3)) * t ** 3,
    )
    return ForceResult(
        value=terms.total,
        geometry=ParallelPlates(),
        approach=ApproachVariant.PLASMA_ZERO_FREQUENCY,
        validity=classify_validity(a_m, T_k, T_k, lambda_p),
        terms=terms,
        notes=(OMITTED_REMAINDER_NOTE,) if lambda_p > 0.0 else (),
    )


def sphere_force_perturbative(
    a: float,
    T: float,
    R: float,
    lambda_p: float,
    approach: ApproachVariant = ApproachVariant.PLASMA_ZERO_FREQUENCY,
    constants: Constants = CODATA2018,
) -> ForceResult:
    """Sphere-plate force, N.

    F0 * {1 + (45 zeta3/pi^3)t^3 - t^4 - 4d[1 - (45 zeta3/(2 pi^3))t^3 + t^4]
          + (72/5) d^2 - (320/7)(1 - pi^2/210) d^3}
    with F0 = -pi^3 hbar c R/(360 a^3). Under MODIFIED_TE the asymptotic
    zero-frequency TE term (te_zero_frequency_asymptotic) is subtracted and
    kept in terms.zero_frequency_te.
    """
    a_m = positive("separation", a)
    T_k = positive("temperature", T)
    geometry = SpherePlate(R)
    scales = derived_scales(a_m, T_k, lambda_p, constants)
    t = scales.T_over_Teff
    d = scales.delta_over_a
    z3 = constants.zeta3
    pi = constants.pi

    base = -pi ** 3 * constants.hbar * constants.c * geometry.R / (360.0 * a_m ** 3)
    terms = PerturbativeTerms(
        base=base,
        thermal_ideal=(45.0 * z3 / pi ** 3) * t ** 3 - t ** 4,
        conductivity_first_order=-4.0 * d,
        conductivity_higher_order=(
            (72.0 / 5.0) * d ** 2 - (320.0 / 7.0) * (1.0 - pi ** 2 / 210.0) * d ** 3
        ),
        cross_term=4.0 * d * ((45.0 * z3 / (2.0 * pi ** 3)) * t ** 3 - t ** 4),
        zero_frequency_te=(
            te_zero_frequency_asymptotic(a_m, T_k, R, lambda_p, constants)
            if approach is ApproachVariant.MODIFIED_TE else 0.0
        ),
    )
    return ForceResult(
        value=terms.total,
        geometry=geometry,
        approach=approach,
        validity=classify_validity(a_m, T_k, T_k, lambda_p),
        terms=terms,
        notes=(OMITTED_REMAINDER_NOTE,) if lambda_p > 0.0 else (),
    )


def te_zero_frequency_asymptotic(
    a: float,
    T: float,
    R: float,
    lambda_p: float,
    constants: Constants = CODATA2018,
) -> float:
    """Asymptotic zero-frequency TE sphere term, N.

    -(k_B T zeta3 R)/(8 a^2) * (1 - 4 d + 12 d^2), reliable for a >= 0.5 um
    with gold-like lambda_p; degrades monotonically below.
    """
    a_m = positive("separation", a)
    T_k = positive("temperature", T)
    geometry = SpherePlate(R)
    d = derived_scales(a_m, T_k, lambda_p, constants).delta_over_a
    return (
        -constants.k_B * T_k * constants.zeta3 * geometry.R / (8.0 * a_m ** 2)
        * (1.0 - 4.0 * d + 12.0 * d * d)
    )
