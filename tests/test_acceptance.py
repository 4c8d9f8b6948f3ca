"""Acceptance suite: every release-gating claim, one pass/fail line per check.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-check lines.
"""

import dataclasses
import math

import pytest

from casimir_delta import quantities
from casimir_delta.quantities import CODATA2018
from casimir_delta.validation import CHECKS, passes, run_acceptance_checks


@pytest.fixture(scope="session")
def report():
    return run_acceptance_checks()


def _assert_checks(report, prefix):
    checks = [c for c in report if c.check_id.startswith(prefix)]
    assert checks, f"no checks matched prefix {prefix!r}"
    for c in checks:
        print(c.line())
    failed = [c for c in checks if not c.passed]
    assert not failed, "\n".join(c.line() for c in failed)


def test_criterion_01_plate_thermal_correction_percentages(report):
    _assert_checks(report, "pp-thermal")


def test_criterion_02_sphere_thermal_correction_percentages(report):
    _assert_checks(report, "ps-thermal")


def test_criterion_03_plate_difference_force_ratio(report):
    _assert_checks(report, "fig1-ratio")


def test_criterion_04_sphere_difference_force_ratio(report):
    _assert_checks(report, "fig2-ratio")


def test_criterion_05_approach_contrast(report):
    _assert_checks(report, "fig3-")


def test_criterion_06_magnitude_scale(report):
    _assert_checks(report, "magnitude-")


def test_criterion_07_oracle_absolute_forces(report):
    _assert_checks(report, "oracle-pp-abs")


def test_criterion_08_oracle_difference_forces(report):
    _assert_checks(report, "oracle-dF")


def test_criterion_09_te_zero_frequency_quadrature_vs_asymptotic(report):
    _assert_checks(report, "eq-te0")


def test_criterion_10_property_suite(report):
    _assert_checks(report, "prop-")


def test_sensitivity_perturbed_constants_fail_percentage_checks(monkeypatch):
    # sanity of the checks themselves: compounding 1% shifts of hbar, c and
    # k_B move T/T_eff by ~3%, pushing the quartic plate correction out of
    # its +-10% band. gap_scales, the one source of T_eff, reads the
    # constants from quantities.
    perturbed = dataclasses.replace(
        CODATA2018,
        hbar=CODATA2018.hbar * 0.99,
        c=CODATA2018.c * 0.99,
        k_B=CODATA2018.k_B * 1.01,
    )
    monkeypatch.setattr(quantities, "CODATA2018", perturbed)
    failed = [c.check_id for c in run_acceptance_checks() if not c.passed]
    assert any(check_id.startswith("pp-thermal") for check_id in failed)


def test_check_ids_unique():
    ids = [row[0] for row in CHECKS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("band,x,expected", [
    ("<= 0.03", 0.03, True),
    ("<= 0.03", math.nextafter(0.03, 1.0), False),
    ("< 0", 0.0, False),
    ("< 0", -1e-300, True),
    ("> 6", 6.0, False),
    ("> 6", math.nextafter(6.0, 7.0), True),
    ("(9, 10)", 9.0, False),
    ("(9, 10)", 9.5, True),
    ("(9, 10)", 10.0, False),
    ("[0.17, 0.19]", 0.17, True),
    ("[0.17, 0.19]", 0.19, True),
    ("[0.17, 0.19]", math.nextafter(0.19, 1.0), False),
    ("[0.5e-13, 2e-13] N", 0.5e-13, True),
    ("[0.5e-13, 2e-13] N", 2.1e-13, False),
    ("0.0016 +-10%", 0.0016 * 1.0999, True),
    ("0.0016 +-10%", 0.0016 * 0.9001, True),
    ("0.0016 +-10%", 0.0016 * 1.1001, False),
    ("0.0016 +-10%", 0.0016 * 0.8999, False),
    ("0 exactly", 0.0, True),
    ("0 exactly", 5e-324, False),
    ("strictly decreasing", 1.0, True),
    ("strictly decreasing", 0.0, False),
    ("single value across separations", 2.0, False),
])
def test_band_edges(band, x, expected):
    assert passes(band, x) is expected


def test_unreadable_band_rejected():
    with pytest.raises(ValueError, match="unreadable band"):
        passes("about 3", 3.0)
