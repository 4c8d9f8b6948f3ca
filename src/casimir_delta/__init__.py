"""Thermal Casimir difference forces between real (plasma-model) and ideal
metals, for parallel plates and sphere-plate geometries, under two competing
zero-frequency prescriptions, validated against a full Matsubara-sum
Lifshitz oracle."""

from .quantities import (
    CODATA2018,
    Constants,
    DerivedScales,
    ValidityReport,
    classify_validity,
    derived_scales,
    effective_temperature,
    positive,
    skin_depth_parameter,
)
from .dielectric import (
    ApproachVariant,
    IdealMetal,
    MetalModel,
    Plasma,
    permittivity_imaginary,
    reflection_coefficients,
)
from .lifshitz import (
    MatsubaraSpec,
    ParallelPlates,
    QuadratureError,
    QuadratureSpec,
    SpherePlate,
    matsubara_frequency,
    plate_free_energy_per_area,
    plate_pressure,
    sphere_plate_force_pfa,
    te_zero_frequency_sphere_term,
)
from .perturbative import (
    ForceResult,
    PerturbativeTerms,
    plate_force_perturbative,
    sphere_force_perturbative,
    te_zero_frequency_asymptotic,
)
from .scenarios import (
    DifferenceResult,
    SweepSpec,
    SweepTable,
    TemperaturePair,
    delta_force_plates,
    delta_force_sphere,
    sweep_separation,
    sweep_temperature,
)
from .validation import CheckResult, run_acceptance_checks

__version__ = "0.1.0"
