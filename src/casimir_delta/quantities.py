"""Fundamental constants, input checks, derived scales and the validity window.

Every quantity is a plain float in SI units (kelvin for temperatures),
checked by `positive` in each public function that takes it; unit conversion
happens only at the CLI boundary. The one exception is `gap_scales`, which
takes arrays unchecked, for the sweeps that check a whole grid once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Constants:
    """Fundamental constants (CODATA 2018) plus the math constants used here."""

    hbar: float = 1.054571817e-34  # J s
    c: float = 299792458.0         # m/s (exact)
    k_B: float = 1.380649e-23      # J/K (exact)
    zeta3: float = 1.2020569031595943
    pi: float = math.pi


CODATA2018 = Constants()

# Validity window of the small-separation / low-temperature framework.
SEPARATION_MAX = 2.0e-6   # m
TEMPERATURE_MAX = 350.0   # K


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def positive(name: str, value: float) -> float:
    """value as a Python float; ValueError unless it is finite and > 0."""
    value = _require_finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class ValidityReport:
    """Per-parameter range flags. Reporting only: nothing here rejects inputs."""

    separation_above_plasma_wavelength: bool
    separation_below_max: bool
    t1_below_max: bool
    t2_below_max: bool
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def all_in_range(self) -> bool:
        return (
            self.separation_above_plasma_wavelength
            and self.separation_below_max
            and self.t1_below_max
            and self.t2_below_max
        )


@dataclass(frozen=True)
class DerivedScales:
    """Scales derived from a separation, a temperature and a plasma wavelength."""

    T_eff: float          # K, hbar*c/(2*a*k_B)
    delta: float          # m, lambda_p/(2*pi)
    delta_over_a: float
    T_over_Teff: float


def gap_scales(a, delta, constants: Constants = CODATA2018):
    """(T_eff, delta/a) with T_eff = hbar*c/(2*a*k_B), elementwise for an array
    of separations a (m). Unchecked: the callers check a and delta first.
    A float a so small that 2*a*k_B underflows to 0 is a ValueError; in an
    array it gives an infinite T_eff."""
    try:
        T_eff = constants.hbar * constants.c / (2.0 * a * constants.k_B)
    except ZeroDivisionError:
        raise ValueError(f"separation {a!r} m is too small: 2 a k_B underflows to 0") from None
    return T_eff, delta / a


def effective_temperature(a: float, constants: Constants = CODATA2018) -> float:
    """Temperature scale at which thermal photons match the gap's frequency scale, K."""
    T_eff, _ = gap_scales(positive("separation", a), 0.0, constants)
    return T_eff


def _plasma_wavelength(lambda_p: float) -> float:
    lam = _require_finite("plasma wavelength", lambda_p)
    if lam < 0.0:
        raise ValueError(f"plasma wavelength must be non-negative, got {lam}")
    return lam


def skin_depth_parameter(lambda_p: float) -> float:
    """Effective field-penetration depth lambda_p/(2*pi); 0 encodes an ideal metal."""
    return _plasma_wavelength(lambda_p) / (2.0 * math.pi)


def derived_scales(
    a: float,
    T: float,
    lambda_p: float,
    constants: Constants = CODATA2018,
) -> DerivedScales:
    a_m = positive("separation", a)
    T_k = positive("temperature", T)
    delta = skin_depth_parameter(lambda_p)
    T_eff, delta_over_a = gap_scales(a_m, delta, constants)
    return DerivedScales(
        T_eff=T_eff,
        delta=delta,
        delta_over_a=delta_over_a,
        T_over_Teff=T_k / T_eff,
    )


def classify_validity(a: float, T1: float, T2: float, lambda_p: float) -> ValidityReport:
    """Flag parameters outside the framework's window; never rejects.

    The window is lambda_p <= a <= 2 um and T <= 350 K. Out-of-window inputs
    still compute, carrying these flags as warnings on the results.
    """
    a_m = positive("separation", a)
    t1 = positive("temperature", T1)
    t2 = positive("temperature", T2)
    lam = _plasma_wavelength(lambda_p)

    above_lp = a_m >= lam
    below_max = a_m <= SEPARATION_MAX
    t1_ok = t1 <= TEMPERATURE_MAX
    t2_ok = t2 <= TEMPERATURE_MAX

    warnings: list[str] = []
    if not above_lp:
        warnings.append(
            f"separation {a_m:.3e} m below plasma wavelength {lam:.3e} m; "
            "perturbative framework not reliable here"
        )
    if not below_max:
        warnings.append(
            f"separation {a_m:.3e} m above {SEPARATION_MAX:.1e} m validity limit"
        )
    if not t1_ok:
        warnings.append(f"T1 = {t1:.1f} K above {TEMPERATURE_MAX:.0f} K validity limit")
    if not t2_ok:
        warnings.append(f"T2 = {t2:.1f} K above {TEMPERATURE_MAX:.0f} K validity limit")

    return ValidityReport(
        separation_above_plasma_wavelength=above_lp,
        separation_below_max=below_max,
        t1_below_max=t1_ok,
        t2_below_max=t2_ok,
        warnings=tuple(warnings),
    )
