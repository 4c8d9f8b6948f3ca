"""Metal models, the zero-frequency prescriptions and the two polarization
reflection coefficients on the imaginary frequency axis that feed the
Lifshitz engine, which applies the prescription: the coefficients know none."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .quantities import CODATA2018, positive


@dataclass(frozen=True)
class IdealMetal:
    """Perfect conductor: |r|=1 for both polarizations at every frequency."""


@dataclass(frozen=True)
class Plasma:
    """Free-electron plasma response; its wavelength is checked by positive."""

    lambda_p: float  # m

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_p", positive("plasma wavelength", self.lambda_p))

    def plasma_frequency(self) -> float:
        """omega_p = 2*pi*c/lambda_p, rad/s. Always derived, never stored."""
        return 2.0 * math.pi * CODATA2018.c / self.lambda_p


class ApproachVariant(enum.Enum):
    """Zero-frequency prescription for the Matsubara sum.

    PLASMA_ZERO_FREQUENCY extends the plasma-model reflection coefficients to
    every order including n = 0. MODIFIED_TE zeroes the transverse-electric
    coefficient at n = 0 only; all nonzero orders are identical. The engine
    applies it, as a zero in its n = 0 TE row; fresnel_coefficients takes none.
    """

    PLASMA_ZERO_FREQUENCY = "plasma"
    MODIFIED_TE = "modified-te"


def fresnel_coefficients(model: IdealMetal | Plasma, u, y, length: float):
    """Fresnel coefficients (r_TM, r_TE) on the imaginary axis, array-valued.

    The variables are dimensionless in units of a length L (the engine uses
    L = 2a): u = L*xi/c and y = L*q with q = sqrt(k_perp^2 + xi^2/c^2) >= xi/c.
    y, a float or a float array, sets the plasma coefficients' shape and u
    broadcasts into it (the engine passes an (orders x 1) u with an
    (orders x nodes) y); they are computed in arrays of their own, never in
    u or y, and are floats for float u and y. With w = L*omega_p/c the wave
    number in the metal is L*k = sqrt(y^2 + w^2) at every frequency, including 0, and
    eps(i*xi) = 1 + w^2/u^2. Both coefficients are written without the
    cancellations of (q - k)/(q + k) and (eps*q - k)/(eps*q + k):
    r_TE = -w^2/p^2 and r_TM = w^2 (y - u^2/p)/(u^2 p + w^2 y), p = y + L*k,
    so r_TM is exactly 1 at u = 0. IdealMetal gives (1, -1), under either
    prescription: the engine zeroes the modified-TE n = 0 row of r_TE^2.
    """
    if isinstance(model, IdealMetal):
        r_tm, r_te = 1.0, -1.0
    else:
        # the augmented assignments write numpy arrays in place and rebind
        # Python floats, so one body serves both; **= 0.5 runs as sqrt
        w2 = (length * model.plasma_frequency() / CODATA2018.c) ** 2
        u2 = u * u
        p = y * y
        p += w2
        p **= 0.5
        p += y
        r_tm = -u2 / p
        r_tm += y
        r_tm *= w2
        den = w2 * y
        den += u2 * p
        r_tm /= den
        p *= p
        r_te = -w2 / p
    return r_tm, r_te


def reflection_coefficients(
    model: IdealMetal | Plasma,
    xi: float,
    k_perp: float,
) -> tuple[float, float]:
    """Fresnel coefficients (r_TM, r_TE) on the imaginary axis for a metal half-space.

    Scalar form of fresnel_coefficients in SI (L = 1 m): with
    q = sqrt(k_perp^2 + xi^2/c^2), the plasma model gives
    k = sqrt(q^2 + omega_p^2/c^2) for any xi (including 0), so
    r_TE = (q - k)/(q + k) and r_TM = (eps*q - k)/(eps*q + k), with the
    analytic limit r_TM -> 1 at xi = 0.
    """
    if xi < 0.0 or k_perp < 0.0:
        raise ValueError("xi and k_perp must be non-negative")
    if xi == 0.0 and k_perp == 0.0:
        raise ValueError("xi and k_perp must not both be zero")
    u = xi / CODATA2018.c
    r_tm, r_te = fresnel_coefficients(model, u, math.sqrt(k_perp * k_perp + u * u), 1.0)
    return float(r_tm), float(r_te)
