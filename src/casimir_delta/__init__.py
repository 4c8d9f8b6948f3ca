"""Thermal Casimir difference forces between real (plasma-model) and ideal
metals, for parallel plates and sphere-plate geometries, under two competing
zero-frequency prescriptions, validated against a full Matsubara-sum
Lifshitz oracle."""

from .quantities import (
    CODATA2018,
    classify_validity,
    derived_scales,
    positive,
    skin_depth_parameter,
)
from .dielectric import (
    ApproachVariant,
    IdealMetal,
    MetalModel,
    Plasma,
    reflection_coefficients,
)
from .lifshitz import (
    MatsubaraSpec,
    ParallelPlates,
    QuadratureError,
    QuadratureSpec,
    SpherePlate,
    plate_free_energy_per_area,
    plate_pressure,
    sphere_plate_force_pfa,
    te_zero_frequency_sphere_term,
)
from .perturbative import (
    PerturbativeTerms,
    plate_force_perturbative,
    sphere_force_perturbative,
    te_zero_frequency_asymptotic,
)
from .scenarios import (
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
