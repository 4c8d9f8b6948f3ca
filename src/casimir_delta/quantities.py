"""Fundamental constants, input checks, derived scales and the validity window.

Every quantity is a plain float in SI units (kelvin for temperatures),
checked by `positive` in each public function that takes it; unit conversion
happens only at the CLI boundary. The scalar closed forms check their inputs
in one preamble, `derived_scales`, and their results in one check, `finite`,
which the sweeps share; `gap_scales` takes arrays unchecked, for the sweeps
that check a whole grid once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Constants:
    """Fundamental constants (CODATA 2018) and zeta(3). Formulas read the one
    instance, CODATA2018, when they run; the constants are never passed."""

    hbar: float = 1.054571817e-34  # J s
    c: float = 299792458.0         # m/s (exact)
    k_B: float = 1.380649e-23      # J/K (exact)
    zeta3: float = 1.2020569031595943


CODATA2018 = Constants()

# Validity window of the small-separation / low-temperature framework.
SEPARATION_MAX = 2.0e-6   # m
TEMPERATURE_MAX = 350.0   # K
# Below this the modified-TE closed form's asymptotic TE term drifts from the engine.
MODIFIED_TE_SEPARATION_MIN = 0.3e-6  # m


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


def gap_scales(a, delta):
    """(T_eff, delta/a) with T_eff = hbar*c/(2*a*k_B), elementwise for an array
    of separations a (m). Unchecked: the callers check a and delta first.
    A float a so small that 2*a*k_B underflows to 0 is a ValueError; in an
    array it gives an infinite T_eff."""
    try:
        T_eff = CODATA2018.hbar * CODATA2018.c / (2.0 * a * CODATA2018.k_B)
    except ZeroDivisionError:
        raise ValueError(f"separation {a!r} m is too small: 2 a k_B underflows to 0") from None
    return T_eff, delta / a


def _plasma_wavelength(lambda_p: float) -> float:
    lam = _require_finite("plasma wavelength", lambda_p)
    if lam < 0.0:
        raise ValueError(f"plasma wavelength must be non-negative, got {lam}")
    return lam


def skin_depth_parameter(lambda_p: float) -> float:
    """Effective field-penetration depth lambda_p/(2*pi); 0 encodes an ideal metal."""
    return _plasma_wavelength(lambda_p) / (2.0 * math.pi)


def derived_scales(a: float, lambda_p: float, T: float | None = None, R: float | None = None):
    """The one preamble of the scalar closed forms: a, lambda_p and, where
    given, T and R checked once each (a TemperaturePair checks its own two),
    then the gap scales taken once. Returns (a, T, R, T_eff, delta/a), with
    a, T and R as Python floats."""
    a = positive("separation", a)
    T = T if T is None else positive("temperature", T)
    R = R if R is None else positive("sphere radius", R)
    return (a, T, R, *gap_scales(a, skin_depth_parameter(lambda_p)))


def finite(what: str, inputs: dict, evaluate, *args, grid=None):
    """evaluate(*args), run with numpy's floating-point warnings off, once
    every value it returns is found finite: the one check of the closed
    forms' results, scalar and swept, and of the engine's forces. A value
    that is not finite, or an ArithmeticError on the way (a Python
    OverflowError or ZeroDivisionError, or the engine's FloatingPointError
    for an order integral that is not finite), is a ValueError
    "<inputs> give a non-finite <what>" that names each of `inputs` (label
    to value) with its value and unit. Columns over a grid pass the scalar
    inputs and grid=(label, points): a cell that is not finite then adds
    " at <label> <point>", the first grid point with one."""

    def named(label, value):  # temperatures are in K, every other input is a length in m
        return f"{label} {float(value)!r} {'K' if label.startswith('temperature') else 'm'}"

    at = ""
    try:
        with np.errstate(all="ignore"):
            values = evaluate(*args)
        if (isinstance(values, float) and math.isfinite(values)) or np.isfinite(values).all():
            return values
        if grid is not None:
            label, points = grid
            at = " at " + named(label, points[np.isfinite(values).all(axis=0).argmin()])
    except ArithmeticError:
        pass
    inputs = ", ".join(named(label, value) for label, value in inputs.items())
    raise ValueError(f"{inputs} give a non-finite {what}{at}")


def classify_validity(a: float, T1: float, T2: float, lambda_p: float,
                      modified_te: bool = False) -> tuple[str, ...]:
    """Warnings for the parameters outside the framework's window; never
    rejects an input for being outside it.

    The window is lambda_p <= a <= 2 um and T <= 350 K. Out-of-window inputs
    still compute; `compute` prints these warnings with its results. Under
    the modified-TE prescription (modified_te=True) a separation below
    0.3 um is flagged too: there the closed form's dF deviates from the
    engine's by 2.4% at 0.25 um and 11.7% at 0.15 um.
    """
    a = positive("separation", a)
    T1, T2 = positive("temperature", T1), positive("temperature", T2)
    lam = _plasma_wavelength(lambda_p)
    warnings = []
    if a < lam:
        warnings.append(
            f"separation {a:.3e} m below plasma wavelength {lam:.3e} m; "
            "perturbative framework not reliable here"
        )
    if modified_te and a < MODIFIED_TE_SEPARATION_MIN:
        warnings.append(
            f"separation {a:.3e} m below {MODIFIED_TE_SEPARATION_MIN:.1e} m; modified-TE "
            "closed form not reliable here (its asymptotic TE term drifts from the engine)"
        )
    if a > SEPARATION_MAX:
        warnings.append(f"separation {a:.3e} m above {SEPARATION_MAX:.1e} m validity limit")
    warnings += [f"{name} = {T:.1f} K above {TEMPERATURE_MAX:.0f} K validity limit"
                 for name, T in (("T1", T1), ("T2", T2)) if T > TEMPERATURE_MAX]
    return tuple(warnings)
