"""Melnikov functions of cubic perturbations of the Duffing oscillator.

Computes the first- and second-order Melnikov functions of the perturbed
system

    x' = y + eps f(x, y),   y' = x - x^3 + eps g(x, y),

with f, g cubic polynomials whose coefficients may themselves depend
linearly on eps, over the three annuli of closed orbits of the unperturbed
flow.  Provides closed-form representations in terms of the complete
elliptic integrals I_k(h), their analytic continuation to complex energy
levels, and certified counts of zeros.
"""

from .geometry import Annulus, DomainError, branch_points, hamiltonian
from .quadrature import AccuracyError, QuadratureSpec
from .abelian import (
    PathError,
    PeriodVector,
    PoleError,
    continue_complex,
    cut_values,
    orbit_period,
    oval_integral,
    period_vector,
)
from .melnikov import (
    ConstraintError,
    MelnikovForm,
    PerturbationParams,
    enforce_m1_zero,
    m1_form,
    m1_vanishing_residuals,
    m2_form,
    m_eval,
)
from .zeros import ZeroCertificate, certify, real_zeros, winding_count
from .oracle import DisplacementSample, displacement, melnikov_fit

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "DomainError",
    "hamiltonian",
    "branch_points",
    "QuadratureSpec",
    "AccuracyError",
    "PeriodVector",
    "PoleError",
    "PathError",
    "oval_integral",
    "period_vector",
    "orbit_period",
    "continue_complex",
    "cut_values",
    "PerturbationParams",
    "MelnikovForm",
    "ConstraintError",
    "m1_form",
    "m2_form",
    "m1_vanishing_residuals",
    "enforce_m1_zero",
    "m_eval",
    "ZeroCertificate",
    "certify",
    "real_zeros",
    "winding_count",
    "DisplacementSample",
    "displacement",
    "melnikov_fit",
    "__version__",
]
