"""Reference values computed apart from the casimir_delta package.

Nothing here imports the package: the constants, the exact ideal-metal
Matsubara sums and the published closed forms are written out again, so that
a fault in the package cannot hide by agreeing with itself. All quantities are
SI; attractive forces are negative.
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018 (c, k_B exact).
HBAR = 1.054571817e-34
C = 299792458.0
K_B = 1.380649e-23
ZETA3 = 1.2020569031595943
PI = math.pi


def y1(a: float, T: float) -> float:
    """Spacing of the Matsubara lower limits y_n = n*y1 in y = 2*a*q."""
    return 4.0 * PI * a * K_B * T / (HBAR * C)


def t_eff(a: float) -> float:
    """Effective temperature hbar*c/(2*a*k_B), K."""
    return HBAR * C / (2.0 * a * K_B)


def delta_over_a(a: float, lambda_p: float) -> float:
    return lambda_p / (2.0 * PI) / a


# --- zero-temperature ideal-metal forces --------------------------------------

def ideal_pressure_t0(a: float) -> float:
    return -PI ** 2 * HBAR * C / (240.0 * a ** 4)


def ideal_energy_t0(a: float) -> float:
    return -PI ** 2 * HBAR * C / (720.0 * a ** 3)


def ideal_sphere_t0(a: float, R: float) -> float:
    return -PI ** 3 * HBAR * C * R / (360.0 * a ** 3)


# --- exact ideal-metal Matsubara sums -----------------------------------------
#
# For |r| = 1 each order's integral is a series of exponentials,
#   Int_{x}^inf y^k/(e^y - 1) dy = sum_m e^{-m x} sum_j k!/j! x^j / m^{k-j+1},
# and with x = n*y1 the sum over n is geometric in z_m = exp(-m*y1). What is
# left is zeta(3) plus one sum over m whose terms fall off like z_m, cut
# where m*y1 exceeds 60 (relative remainder ~ e^-60).

def _m_grid(spacing: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = np.arange(1, int(60.0 / spacing) + 2, dtype=float)
    one_minus_z = -np.expm1(-m * spacing)
    z = 1.0 - one_minus_z
    return m, z, one_minus_z


def ideal_plate_pressure(a: float, T: float, modified_te: bool = False) -> float:
    """Exact finite-T pressure between ideal-metal plates, N/m^2.

    Sum' over n of Int_{n y1}^inf y^2 (2 / (e^y - 1)) dy, times
    -k_B T / (8 pi a^3); the modified-TE prescription drops the n = 0 TE half,
    which is zeta(3).
    """
    s = y1(a, T)
    m, z, omz = _m_grid(s)
    # Sum'_n z^n (m^2 s^2 n^2 + 2 m s n + 2) / m^3, the n = 0 term halved,
    # is 1/m^3 (summing to zeta(3)) plus the terms below
    inner = (
        (m * s) ** 2 * z * (1.0 + z) / omz ** 3
        + 2.0 * m * s * z / omz ** 2
        + 2.0 * z / omz
    ) / m ** 3
    total = 2.0 * (ZETA3 + math.fsum(inner))  # two polarizations
    if modified_te:
        total -= ZETA3
    return -K_B * T / (8.0 * PI * a ** 3) * total


def ideal_plate_free_energy(a: float, T: float, modified_te: bool = False) -> float:
    """Exact finite-T free energy per area of ideal-metal plates, J/m^2.

    Int_x^inf y ln(1 - e^-y) dy = -sum_m e^{-m x} (m x + 1) / m^3.
    """
    s = y1(a, T)
    m, z, omz = _m_grid(s)
    inner = (m * s * z / omz ** 2 + z / omz) / m ** 3
    total = -2.0 * (0.5 * ZETA3 + math.fsum(inner))
    if modified_te:
        total += 0.5 * ZETA3
    return K_B * T / (8.0 * PI * a ** 2) * total


def ideal_sphere_force(a: float, T: float, R: float, modified_te: bool = False) -> float:
    """Proximity-force sphere-plate force from the exact plate free energy, N."""
    return 2.0 * PI * R * ideal_plate_free_energy(a, T, modified_te)


# --- published conductivity series at T = 0 ------------------------------------
# Bordag, Mohideen & Mostepanenko, Phys. Rep. 353, 1 (2001).

def plate_series(d: float) -> float:
    return 1.0 - (16.0 / 3.0) * d + 24.0 * d ** 2 - (640.0 / 7.0) * (1.0 - PI ** 2 / 210.0) * d ** 3


def energy_series(d: float) -> float:
    """Free-energy (and so PFA sphere-force) series."""
    return 1.0 - 4.0 * d + (72.0 / 5.0) * d ** 2 - (320.0 / 7.0) * (1.0 - PI ** 2 / 210.0) * d ** 3


def cold_plasma_reference(kind: str, a: float, T: float, lambda_p: float, R: float = 0.0) -> float:
    """Zero-T conductivity series plus the paper's leading thermal terms.

    kind is "pressure", "energy" or "sphere". At 1-20 K the thermal terms are
    below 1e-4 relative but the sphere's t^3 term exceeds the d^4 band at
    2 um, so it is kept.
    """
    d = delta_over_a(a, lambda_p)
    t = T / t_eff(a)
    if kind == "pressure":
        thermal = t ** 4 / 3.0 + (16.0 / 3.0) * d * (45.0 * ZETA3 / (8.0 * PI ** 3)) * t ** 3
        return ideal_pressure_t0(a) * (plate_series(d) + thermal)
    thermal = (45.0 * ZETA3 / PI ** 3) * t ** 3 - t ** 4 + 4.0 * d * (
        (45.0 * ZETA3 / (2.0 * PI ** 3)) * t ** 3 - t ** 4
    )
    base = ideal_energy_t0(a) if kind == "energy" else ideal_sphere_t0(a, R)
    return base * (energy_series(d) + thermal)


# --- the paper's closed forms ----------------------------------------------------

def delta_f_plates(a: float, T1: float, T2: float, lambda_p: float) -> float:
    """Plate difference force P(T2) - P(T1), N/m^2."""
    f1 = PI ** 2 * K_B ** 4 * (T2 ** 4 - T1 ** 4) / (45.0 * HBAR ** 3 * C ** 3)
    f2 = 1.0 + (90.0 * ZETA3 / PI ** 3) * delta_over_a(a, lambda_p) * (
        t_eff(a) / (T1 + T2)) * (1.0 + T1 * T2 / (T1 ** 2 + T2 ** 2))
    return -f1 * f2


def te_zero_frequency_asymptotic(a: float, T: float, R: float, lambda_p: float) -> float:
    """Zero-frequency TE sphere term, -(k_B T zeta3 R/(8 a^2))(1 - 4d + 12d^2), N."""
    d = delta_over_a(a, lambda_p)
    return -K_B * T * ZETA3 * R / (8.0 * a ** 2) * (1.0 - 4.0 * d + 12.0 * d * d)


def delta_f_sphere(a: float, T1: float, T2: float, R: float, lambda_p: float,
                   modified_te: bool = False) -> float:
    """Sphere difference force F(T2) - F(T1), N; modified TE adds back the
    zero-frequency TE difference (k_B zeta3 R/(8 a^2))(T2 - T1)(1 - 4d + 12d^2)."""
    d = delta_over_a(a, lambda_p)
    f1 = ZETA3 * K_B ** 3 * (T2 - T1) * (T1 ** 2 + T2 ** 2) / (HBAR ** 2 * C ** 2)
    f2 = (1.0 + T1 * T2 / (T1 ** 2 + T2 ** 2)) * (1.0 + 2.0 * d) - (
        PI ** 3 / (45.0 * ZETA3)) * ((T1 + T2) / t_eff(a)) * (1.0 + 4.0 * d)
    out = -R * f1 * f2
    if modified_te:
        out += K_B * ZETA3 * R / (8.0 * a ** 2) * (T2 - T1) * (1.0 - 4.0 * d + 12.0 * d * d)
    return out


def plate_force(a: float, T: float, lambda_p: float) -> float:
    """The paper's perturbative plate pressure at one temperature, N/m^2."""
    d = delta_over_a(a, lambda_p)
    t = T / t_eff(a)
    return ideal_pressure_t0(a) * (
        plate_series(d) + t ** 4 / 3.0
        + (16.0 / 3.0) * d * (45.0 * ZETA3 / (8.0 * PI ** 3)) * t ** 3)


def sphere_force(a: float, T: float, R: float, lambda_p: float, modified_te: bool = False) -> float:
    """The paper's perturbative sphere force at one temperature, N."""
    d = delta_over_a(a, lambda_p)
    t = T / t_eff(a)
    out = ideal_sphere_t0(a, R) * (
        energy_series(d) + (45.0 * ZETA3 / PI ** 3) * t ** 3 - t ** 4
        + 4.0 * d * ((45.0 * ZETA3 / (2.0 * PI ** 3)) * t ** 3 - t ** 4))
    if modified_te:
        out -= te_zero_frequency_asymptotic(a, T, R, lambda_p)
    return out
