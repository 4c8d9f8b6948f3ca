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

from math import pi
from typing import NamedTuple

from .dielectric import ApproachVariant
from .quantities import CODATA2018, derived_scales, finite
from .quantities import classify_validity  # noqa: F401  (perfbench's tracer wraps perturbative's copy)

OMITTED_REMAINDER_NOTE = (
    "fourth- through sixth-order conductivity terms omitted "
    "(temperature independent; cancel in all difference forces)"
)


class PerturbativeTerms(NamedTuple):
    """A perturbative force, N (sphere-plate) or N/m^2 (plates), term by
    term; attractive forces are negative.

    total = base * (1 + thermal_ideal + conductivity_first_order
    + conductivity_higher_order + cross_term) - zero_frequency_te, where
    `base` is the zero-temperature ideal-metal force the correction factor
    multiplies. conductivity_higher_order holds the temperature-independent
    second- and third-order terms in delta/a. zero_frequency_te is a force,
    not a relative term: the asymptotic zero-frequency TE sphere term that
    the modified-TE prescription leaves out. It is 0 under the plasma
    prescription. A tuple of floats, total included, so that
    `quantities.finite` checks every printed value at once.
    """

    base: float
    thermal_ideal: float
    conductivity_first_order: float
    conductivity_higher_order: float
    cross_term: float
    zero_frequency_te: float
    total: float


def _terms(base, thermal_ideal, conductivity_first_order, conductivity_higher_order,
           cross_term, zero_frequency_te=0.0) -> PerturbativeTerms:
    correction_factor = (1.0 + thermal_ideal + conductivity_first_order
                         + conductivity_higher_order + cross_term)
    return PerturbativeTerms(base, thermal_ideal, conductivity_first_order,
                             conductivity_higher_order, cross_term, zero_frequency_te,
                             base * correction_factor - zero_frequency_te)


def asymptotic_te_term(a, T, R, d):
    """k_B zeta3 R T/(8 a^2) * (1 - 4d + 12 d^2), elementwise and unchecked:
    minus the asymptotic zero-frequency TE sphere term at a temperature T,
    or, for a temperature change T, minus its change."""
    # a * a rather than a ** 2: on a float ** is libm's pow, which is not
    # always the correctly rounded square that numpy's array ** 2 gives
    return (
        CODATA2018.k_B * CODATA2018.zeta3 * R / (8.0 * (a * a))
        * T * (1.0 - 4.0 * d + 12.0 * d * d)
    )


def _plate_terms(a, T, T_eff, d) -> PerturbativeTerms:
    t = T / T_eff
    z3 = CODATA2018.zeta3
    return _terms(
        base=-pi ** 2 * CODATA2018.hbar * CODATA2018.c / (240.0 * a ** 4),
        thermal_ideal=t ** 4 / 3.0,
        conductivity_first_order=-(16.0 / 3.0) * d,
        conductivity_higher_order=(
            24.0 * d ** 2 - (640.0 / 7.0) * (1.0 - pi ** 2 / 210.0) * d ** 3
        ),
        cross_term=(16.0 / 3.0) * d * (45.0 * z3 / (8.0 * pi ** 3)) * t ** 3,
    )


def _sphere_terms(a, T, R, T_eff, d, approach: ApproachVariant) -> PerturbativeTerms:
    t = T / T_eff
    z3 = CODATA2018.zeta3
    return _terms(
        base=-pi ** 3 * CODATA2018.hbar * CODATA2018.c * R / (360.0 * a ** 3),
        thermal_ideal=(45.0 * z3 / pi ** 3) * t ** 3 - t ** 4,
        conductivity_first_order=-4.0 * d,
        conductivity_higher_order=(
            (72.0 / 5.0) * d ** 2 - (320.0 / 7.0) * (1.0 - pi ** 2 / 210.0) * d ** 3
        ),
        cross_term=4.0 * d * ((45.0 * z3 / (2.0 * pi ** 3)) * t ** 3 - t ** 4),
        zero_frequency_te=(
            -asymptotic_te_term(a, T, R, d)
            if approach is ApproachVariant.MODIFIED_TE else 0.0
        ),
    )


def plate_force_perturbative(a: float, T: float, lambda_p: float) -> PerturbativeTerms:
    """Plate-plate force per unit area, N/m^2, term by term (.total):

    F0 * {1 + (1/3)t^4 - (16/3)d[1 - (45 zeta3/(8 pi^3)) t^3]
          + 24 d^2 - (640/7)(1 - pi^2/210) d^3}
    with F0 = -pi^2 hbar c/(240 a^4), t = T/T_eff, d = delta/a.
    """
    a, T, _, T_eff, d = derived_scales(a, lambda_p, T)
    inputs = {"separation": a, "temperature": T, "plasma wavelength": lambda_p}
    return finite("plate-plate force", inputs, _plate_terms, a, T, T_eff, d)


def sphere_force_perturbative(
    a: float,
    T: float,
    R: float,
    lambda_p: float,
    approach: ApproachVariant = ApproachVariant.PLASMA_ZERO_FREQUENCY,
) -> PerturbativeTerms:
    """Sphere-plate force, N, term by term (.total):

    F0 * {1 + (45 zeta3/pi^3)t^3 - t^4 - 4d[1 - (45 zeta3/(2 pi^3))t^3 + t^4]
          + (72/5) d^2 - (320/7)(1 - pi^2/210) d^3}
    with F0 = -pi^3 hbar c R/(360 a^3). Under MODIFIED_TE the asymptotic
    zero-frequency TE term (te_zero_frequency_asymptotic) is subtracted and
    kept in zero_frequency_te.
    """
    a, T, R, T_eff, d = derived_scales(a, lambda_p, T, R)
    inputs = {"separation": a, "temperature": T, "sphere radius": R, "plasma wavelength": lambda_p}
    return finite("sphere-plate force", inputs, _sphere_terms, a, T, R, T_eff, d, approach)


def te_zero_frequency_asymptotic(a: float, T: float, R: float, lambda_p: float) -> float:
    """Asymptotic zero-frequency TE sphere term, N.

    -(k_B T zeta3 R)/(8 a^2) * (1 - 4d + 12 d^2), an asymptotic expansion in
    d = delta/a, reliable for a >= 0.5 um with gold-like lambda_p; degrades
    monotonically below.
    """
    a, T, R, _, d = derived_scales(a, lambda_p, T, R)
    inputs = {"separation": a, "temperature": T, "sphere radius": R, "plasma wavelength": lambda_p}
    return -finite("zero-frequency TE term", inputs, asymptotic_te_term, a, T, R, d)
