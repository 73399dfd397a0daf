"""Melnikov functions of cubic perturbations of the Duffing oscillator.

Computes the first- and second-order Melnikov functions of the perturbed
system

    x' = y + eps f(x, y),   y' = x - x^3 + eps g(x, y),

with f, g cubic polynomials whose coefficients may themselves depend
linearly on eps, over the three annuli of closed orbits of the unperturbed
flow.  Provides the elliptic integrals I_k(h) in closed form at real and
complex levels, checked by transport along paths (abelian.continue_paths),
and certified zero counts; this namespace re-exports the common names.
"""

from .geometry import Annulus, DomainError, branch_points, hamiltonian
from .quadrature import AccuracyError
from .abelian import (
    PathError,
    PoleError,
    cut_values,
    orbit_period,
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
from .zeros import ZeroCertificate, certify
from .oracle import DisplacementSample, displacement, melnikov_fit

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "DomainError",
    "hamiltonian",
    "branch_points",
    "AccuracyError",
    "PoleError",
    "PathError",
    "period_vector",
    "orbit_period",
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
    "DisplacementSample",
    "displacement",
    "melnikov_fit",
    "__version__",
]
