"""Acceptance checklist: every quantitative claim the library is expected to
reproduce, as one table of rows (check id, measure, band, detail). A measure
takes no argument and returns the one number the claim is about; the band is
the text the report prints, and `passes` reads the pass test from that same
text. Shared by the test suite and the `validate` CLI command."""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dielectric import ApproachVariant, IdealMetal, Plasma
from .lifshitz import (
    MatsubaraSpec,
    ParallelPlates,
    QuadratureSpec,
    SpherePlate,
    plate_free_energy_per_area,
    plate_pressure,
    sphere_plate_force_pfa,
    te_zero_frequency_sphere_term,
)
from .perturbative import (
    plate_force_perturbative,
    sphere_force_perturbative,
    te_zero_frequency_asymptotic,
)
from .quantities import CODATA2018
from .scenarios import (
    DEFAULT_SEPARATION_GRID,
    DEFAULT_TEMPERATURE_GRID,
    TemperaturePair,
    delta_force_plates,
    delta_force_sphere,
    sweep_separation,
    sweep_temperature,
)

AU_LAMBDA_P = 136e-9  # m
GOLD = Plasma(AU_LAMBDA_P)
PAIR = TemperaturePair(300.0, 350.0)
PLASMA = ApproachVariant.PLASMA_ZERO_FREQUENCY
MODIFIED_TE = ApproachVariant.MODIFIED_TE


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    measured: float
    expected: str
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.detail}]" if self.detail else ""
        return f"{status} {self.check_id}: measured {self.measured:.6g}, expected {self.expected}{extra}"


_COMPARE = {"<=": operator.le, "<": operator.lt, ">": operator.gt}
_INTERVAL = re.compile(r"([(\[])(\S+), (\S+)([)\]])(?: \S+)?")  # an optional unit follows
_HOLDS = ("single value across separations", "strictly decreasing")  # measured 1.0 if so


def passes(band: str, x: float) -> bool:
    """Whether x lies in band, read from its text: '<= b', '< b', '> b', 't +-p%',
    '(lo, hi)' or '[lo, hi]' with a unit after, '0 exactly', or one of _HOLDS."""
    if band == "0 exactly":
        return x == 0.0
    if band in _HOLDS:
        return x == 1.0
    op, _, bound = band.partition(" ")
    if op in _COMPARE:
        return _COMPARE[op](x, float(bound))
    if band.endswith("%"):
        target, _, pct = band[:-1].partition(" +-")
        t = float(target)
        return abs(x - t) <= float(pct) / 100.0 * abs(t)
    m = _INTERVAL.fullmatch(band)
    if m is None:
        raise ValueError(f"unreadable band {band!r}")
    lo, hi = float(m[2]), float(m[3])
    above = lo <= x if m[1] == "[" else lo < x
    return above and (x <= hi if m[4] == "]" else x < hi)


def _dF_plates(a, pair=PAIR, lambda_p=AU_LAMBDA_P) -> float:
    return delta_force_plates(a, pair, lambda_p)


def _dF_sphere(a, pair=PAIR, R=1e-3, approach=PLASMA) -> float:
    return delta_force_sphere(a, pair, R, AU_LAMBDA_P, approach)


# per geometry (R = 1 mm), the engine's force at (a, T) and the closed-form dF at a
_ENGINE = {"pp": lambda a, T: plate_pressure(a, T, GOLD),
           "ps": lambda a, T: sphere_plate_force_pfa(a, T, 1e-3, GOLD)}
_CLOSED_FORM = {"pp": _dF_plates, "ps": _dF_sphere}


def _plate_thermal(a: float) -> float:
    return plate_force_perturbative(a, 300.0, 0.0).thermal_ideal


def _sphere_thermal(a: float) -> float:
    return sphere_force_perturbative(a, 300.0, 1e-3, 0.0).thermal_ideal


def _small_over_large(dF) -> float:
    return abs(dF(0.15e-6)) / abs(dF(2e-6))


def _contrast(approach: ApproachVariant) -> float:
    """Sphere dF under one prescription at a = 0.5 um, R = 2 mm, 300 -> 350 K."""
    return _dF_sphere(0.5e-6, R=2e-3, approach=approach)


def _ideal_vs_plasma_fig3() -> float:
    values = sweep_temperature(0.5e-6, AU_LAMBDA_P, DEFAULT_TEMPERATURE_GRID)
    # the first row, T2 = T1, is exactly zero in both columns
    _, pl, _, ideal = values[1:].T
    return float(np.max(np.abs(ideal - pl) / np.abs(pl)))


def _plate_absolute(a: float, T: float) -> float:
    """Perturbative plate force vs the Lifshitz pressure. The closed form
    carries the conductivity series through third order in delta/a, so the
    gap is the omitted fourth-order remainder plus the truncated thermal cross
    terms: ~0.1% at 0.5 um for gold, falling to ~0.006% at 1 um."""
    oracle = _ENGINE["pp"](a, T)
    pert = plate_force_perturbative(a, T, AU_LAMBDA_P).total
    return abs(pert - oracle) / abs(oracle)


def _difference(geometry: str, a: float) -> float:
    """Closed-form dF vs the engine's P(T2) - P(T1), or F for the sphere."""
    engine, closed_form = _ENGINE[geometry], _CLOSED_FORM[geometry]
    eng = engine(a, PAIR.T2) - engine(a, PAIR.T1)
    return abs(closed_form(a) - eng) / abs(eng)


def _te0(a: float, lambda_p: float) -> float:
    """Zero-frequency TE quadrature vs its asymptotic expansion."""
    quad_val = te_zero_frequency_sphere_term(a, 300.0, 1e-3, lambda_p)
    asym = te_zero_frequency_asymptotic(a, 300.0, 1e-3, lambda_p)
    return abs(asym - quad_val) / abs(quad_val)


def _antisymmetry() -> float:
    a, swapped = 0.5e-6, TemperaturePair(PAIR.T2, PAIR.T1)
    fwd, bwd = _dF_plates(a), _dF_plates(a, swapped)
    fwd_s = _dF_sphere(a, approach=MODIFIED_TE)
    bwd_s = _dF_sphere(a, swapped, approach=MODIFIED_TE)
    return max(abs(fwd + bwd) / abs(fwd), abs(fwd_s + bwd_s) / abs(fwd_s))


def _zero_at_equal_T() -> float:
    eq = TemperaturePair(320.0, 320.0)
    return max(abs(_dF_plates(0.5e-6, eq)), abs(_dF_sphere(0.5e-6, eq, approach=MODIFIED_TE)))


def _ideal_plate_values() -> float:
    return float(len({_dF_plates(x, lambda_p=0.0) for x in (0.2e-6, 0.7e-6, 1.5e-6)}))


def _monotone() -> float:
    def decreasing(geometry) -> bool:
        values = sweep_separation(PAIR, AU_LAMBDA_P, geometry, grid=DEFAULT_SEPARATION_GRID)
        mags = np.abs(values[:, 1])
        return bool(np.all(mags[:-1] > mags[1:]))

    return float(all(decreasing(g) for g in (ParallelPlates(), SpherePlate(1e-3))))


def _pfa_linear_in_R() -> float:
    f1 = sphere_plate_force_pfa(0.5e-6, 300.0, 1e-3, GOLD)
    f2 = sphere_plate_force_pfa(0.5e-6, 300.0, 2e-3, GOLD)
    return abs(f2 - 2.0 * f1) / abs(f2)


# T -> 0 limits, probed at 1 K where thermal terms are ~1e-8 relative. Tail
# tolerance 1e-7, 1e4 times tighter than the 0.1% band; the sums at 1 K are
# closed by the Euler-Maclaurin tail, which leaves far less error.
COLD = MatsubaraSpec(relative_tail_tolerance=1e-7)


def _ideal_T0_pressure() -> float:
    a0 = 1e-6
    p0 = plate_pressure(a0, 1.0, IdealMetal(), matsubara=COLD)
    p_ref = -math.pi ** 2 * CODATA2018.hbar * CODATA2018.c / (240.0 * a0 ** 4)
    return abs(p0 - p_ref) / abs(p_ref)


def _ideal_T0_sphere() -> float:
    a0, R = 1e-6, 1e-3
    f0 = sphere_plate_force_pfa(a0, 1.0, R, IdealMetal(), matsubara=COLD)
    f_ref = -math.pi ** 3 * CODATA2018.hbar * CODATA2018.c * R / (360.0 * a0 ** 3)
    return abs(f0 - f_ref) / abs(f_ref)


# thermodynamic identity P = -dF/da; Richardson-extrapolated central
# difference, noise floor set by quadrature tolerance / differencing
# conditioning (~a/h amplification), hence the 1e-6 band
TIGHT_M = MatsubaraSpec(relative_tail_tolerance=1e-11)
TIGHT_Q = QuadratureSpec(relative_tolerance=1e-11)


def _thermodynamic_identity() -> float:
    def F(x: float) -> float:
        return plate_free_energy_per_area(x, 300.0, GOLD, matsubara=TIGHT_M, quadrature=TIGHT_Q)

    worst = 0.0
    for ax in (0.4e-6, 0.7e-6, 1.2e-6):
        h = 5e-3 * ax
        d1 = (F(ax + h) - F(ax - h)) / (2.0 * h)
        d2 = (F(ax + h / 2.0) - F(ax - h / 2.0)) / h
        dF_da = (4.0 * d2 - d1) / 3.0
        p = plate_pressure(ax, 300.0, GOLD, matsubara=TIGHT_M, quadrature=TIGHT_Q)
        worst = max(worst, abs(-dF_da - p) / abs(p))
    return worst


# (check id, measure, band, detail), in report order
CHECKS = [
    ("pp-thermal-1um=0.16pct", partial(_plate_thermal, 1e-6), "0.0016 +-10%", ""),
    ("pp-thermal-2um=2.5pct", partial(_plate_thermal, 2e-6), "0.025 +-10%", ""),
    ("ps-thermal-1um=2.7pct", partial(_sphere_thermal, 1e-6), "0.027 +-10%", ""),
    ("ps-thermal-2um-in-[17,19]pct", partial(_sphere_thermal, 2e-6), "[0.17, 0.19]",
     "exact-computation reference is 18.2%; the explicit truncation gives ~17.6%"),
    ("fig1-ratio>9", partial(_small_over_large, _dF_plates), "(9, 10)", ""),
    ("fig2-ratio>2", partial(_small_over_large, _dF_sphere), "(2, 2.5)", ""),
    ("fig3-modte/plasma-ratio>6",
     lambda: abs(_contrast(MODIFIED_TE)) / abs(_contrast(PLASMA)), "> 6", ""),
    ("fig3-modte-positive", partial(_contrast, MODIFIED_TE), "> 0", ""),
    ("fig3-plasma-negative", partial(_contrast, PLASMA), "< 0", ""),
    ("fig3-ideal-within-10pct-of-plasma", _ideal_vs_plasma_fig3, "<= 0.10", ""),
    ("magnitude-order-1e-13N", lambda: abs(_contrast(PLASMA)), "[0.5e-13, 2e-13] N", ""),
    *((f"oracle-pp-abs-3pct-a={a * 1e6:g}um-T={T:g}K", partial(_plate_absolute, a, T), "<= 0.03",
       "gap is the omitted fourth-order conductivity remainder")
      for a in (0.5e-6, 0.7e-6, 1.0e-6) for T in (300.0, 350.0)),
    *((f"oracle-dF{g}-5pct-a={a * 1e6:g}um", partial(_difference, g, a), "<= 0.05", "")
      for a in (0.3e-6, 0.5e-6, 1.0e-6) for g in _ENGINE),
    *((f"eq-te0-asym-0.5pct-a={a * 1e6:g}um", partial(_te0, a, AU_LAMBDA_P), "<= 0.005", "")
      for a in (0.5e-6, 1.0e-6, 2.0e-6)),
    # near-ideal limit: remaining skin-depth corrections are ~1e-13 relative
    ("eq-te0-ideal-limit-1e-6", partial(_te0, 0.5e-6, 1e-12), "<= 1e-6", ""),
    ("prop-antisymmetry-T1T2", _antisymmetry, "0 exactly", ""),
    ("prop-zero-at-equal-T", _zero_at_equal_T, "0 exactly", ""),
    ("prop-ideal-plates-a-independent", _ideal_plate_values, "single value across separations", ""),
    ("prop-monotone-decrease", _monotone, "strictly decreasing", ""),
    ("prop-pfa-linear-in-R", _pfa_linear_in_R, "<= 1e-15", ""),
    ("prop-ideal-T0-pressure-0.1pct", _ideal_T0_pressure, "<= 1e-3", ""),
    ("prop-ideal-T0-sphere-0.1pct", _ideal_T0_sphere, "<= 1e-3", ""),
    ("prop-thermodynamic-identity", _thermodynamic_identity, "<= 1e-6", ""),
]


def run_acceptance_checks() -> list[CheckResult]:
    """Run every row of CHECKS, in order, each measure called with no
    argument. Takes about 20 ms in-process."""
    results = []
    for check_id, measure, band, detail in CHECKS:
        x = measure()
        results.append(CheckResult(check_id, passes(band, x), x, band, detail))
    return results
