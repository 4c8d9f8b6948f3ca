"""Thermal Casimir difference forces between real (plasma-model) and ideal
metals, for parallel plates and sphere-plate geometries, under two competing
zero-frequency prescriptions, validated against a full Matsubara-sum
Lifshitz oracle."""

__version__ = "0.1.0"
