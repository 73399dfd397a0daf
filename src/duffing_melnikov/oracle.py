"""Ground-truth oracle: direct integration of the perturbed flow.

Nothing here knows about the closed-form bifurcation functions.  The module
integrates the true nonlinear system

    x' = y + eps * f(x, y),      y' = x - x**3 + eps * g(x, y),

with (f, g) the two-tier cubic perturbation, locates the first return to a
cross-section of the chosen annulus, and measures the displacement in energy
units,

    d(h, eps) = H(return point) - h.

A least-squares fit of d against (eps, eps**2, eps**3) then recovers the
first- and second-order coefficients with error bars.  Because the only
inputs are the vector field and an ODE solver, the fit is an independent
check on every formula the rest of the package produces.

The sign convention is not assumed: the flow direction around an oval and
the orientation built into the loop integrals are calibrated against each
other once per process (see displacement_sign) and the measured factor is
applied to fit results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from .abelian import orbit_period, period_vector
from .geometry import Annulus, hamiltonian, section_point
from .melnikov import PerturbationParams
from .quadrature import AccuracyError

__all__ = [
    "DEFAULT_EPS_LIST",
    "EscapeError",
    "Section",
    "DisplacementSample",
    "MelnikovFit",
    "oval_section",
    "flow",
    "displacement",
    "displacement_sign",
    "melnikov_fit",
]

_FLOW_RTOL = 1e-12
_FLOW_ATOL = 1e-14
_TIME_BUDGET = 1.0e3
# solve_ivp's tolerance for locating an event on the dense interpolant
_CROSSING_TOL = 4 * np.finfo(float).eps

# Geometric ladder of perturbation strengths for the expansion fit.  Smaller
# floors push eps**2 * d-resolution toward the integrator noise (d ~ 1e-10
# when eps ~ 1e-4 and the coefficient is of order 1e-2), so the ladder stops
# at 1.25e-3.
DEFAULT_EPS_LIST = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


class EscapeError(RuntimeError):
    """The trajectory failed to return to the section within the time budget."""


def _free_rhs(t, z):
    x, y = z
    return (y, x - x * x * x)


@dataclass(frozen=True)
class Section:
    """Oriented local cross-section: the line through point with unit normal.

    The normal is chosen as the unperturbed flow direction at the anchor
    point, so the crossing function normal . (z - point) increases through
    zero exactly at passages in flow direction; crossings of the same line
    elsewhere on the orbit run the other way and are rejected by the event
    direction filter.
    """

    point: tuple[float, float]
    normal: tuple[float, float]

    def crossing(self, t, z):
        return (self.normal[0] * (z[0] - self.point[0])
                + self.normal[1] * (z[1] - self.point[1]))


def oval_section(h: float, annulus: Annulus, phase: float = 0.0) -> Section:
    """Cross-section anchored on the oval at level h.

    phase slides the anchor along the unperturbed orbit by that fraction of
    a period; the default anchor is the canonical section point.  Any phase
    gives a transversal, which is how section independence of the fitted
    coefficients gets tested.
    """
    z = section_point(h, annulus)
    if phase:
        T = orbit_period(h, annulus)
        sol = solve_ivp(_free_rhs, (0.0, phase * T), z, method="DOP853",
                        rtol=_FLOW_RTOL, atol=_FLOW_ATOL)
        if not sol.success:
            raise EscapeError(f"anchor advance failed: {sol.message}")
        z = (float(sol.y[0, -1]), float(sol.y[1, -1]))
    vx, vy = z[1], z[0] - z[0] ** 3
    norm = math.hypot(vx, vy)
    if norm == 0.0:
        raise ValueError(f"section anchor {z} is an equilibrium")
    return Section(point=z, normal=(vx / norm, vy / norm))


def _cubic(c: np.ndarray):
    """Scalar cubic p(x, y) in polyval2d's operation order, so flows match it bit for bit."""
    (a00, a01, a02, a03), (a10, a11, a12, _), (a20, a21, _, _), (a30, _, _, _) = c.tolist()

    def p(x, y):
        return (((a03 * y + (a12 * x + a02)) * y + ((a21 * x + a11) * x + a01)) * y
                + (((a30 * x + a20) * x + a10) * x + a00))

    return p


def _perturbed_rhs(params: PerturbationParams, epsilon: float):
    f = _cubic(params.coeff_grid("lambda1") + epsilon * params.coeff_grid("lambda2"))
    g = _cubic(params.coeff_grid("gamma1") + epsilon * params.coeff_grid("gamma2"))

    def rhs(t, z):
        x, y = z.tolist()
        return (y + epsilon * f(x, y), x - x * x * x + epsilon * g(x, y))

    return rhs


def flow(state, params: PerturbationParams, epsilon: float, section: Section,
         t_min: float = 0.0, t_max: float = _TIME_BUDGET):
    """Integrate the perturbed system up to its first qualifying section return.

    Returns (state, time) at the first flow-direction crossing with
    time > t_min that lands near the section anchor, and stops integrating
    there: t_max is only a time budget.  The stepper, its step sequence and
    the crossing search are those of solve_ivp with a direction-1 event on
    (0, t_max), so the return point and time are the same floats.  Crossing
    times come from root-polishing the crossing function on the step's
    dense interpolant, so their accuracy tracks the integration tolerance
    rather than the step size.  Raises EscapeError when a step fails or no
    qualifying crossing occurs before t_max.
    """
    solver = DOP853(_perturbed_rhs(params, epsilon), 0.0, state, float(t_max),
                    rtol=_FLOW_RTOL, atol=_FLOW_ATOL)
    anchor = np.asarray(section.point)
    guard = 0.5 * (1.0 + math.hypot(*section.point))
    g = section.crossing(solver.t, solver.y)
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise EscapeError(f"integration failed: {message}")
        g_new = section.crossing(solver.t, solver.y)
        if g <= 0 and g_new >= 0:
            sol = solver.dense_output()
            t = brentq(lambda s: section.crossing(s, sol(s)), solver.t_old, solver.t,
                       xtol=_CROSSING_TOL, rtol=_CROSSING_TOL)
            z = sol(t)
            if t > t_min and np.hypot(*(z - anchor)) < guard:
                return z, float(t)
        g = g_new
    raise EscapeError(
        f"no section return in ({t_min:g}, {t_max:g}] at eps={epsilon:g}")


@dataclass(frozen=True)
class DisplacementSample:
    """One measured return-map displacement in energy units."""

    h: float
    epsilon: float
    d: float
    integration_tol: float
    return_time: float


def displacement(h: float, epsilon: float, params: PerturbationParams,
                 annulus: Annulus, phase: float = 0.0) -> DisplacementSample:
    """First-return displacement d = H(end) - h at one perturbation strength.

    At epsilon = 0 the orbit closes and |d| sits at the integrator noise
    floor, a few multiples of the integration tolerance 1e-12.
    """
    annulus.require(h)
    sec = oval_section(h, annulus, phase)
    T0 = orbit_period(h, annulus)
    t_max = min(_TIME_BUDGET, 3.0 * T0 + 10.0)
    end, t_ret = flow(sec.point, params, epsilon, sec,
                      t_min=0.5 * T0, t_max=t_max)
    d = hamiltonian(end[0], end[1]) - h
    return DisplacementSample(h=float(h), epsilon=float(epsilon), d=float(d),
                              integration_tol=_FLOW_RTOL, return_time=t_ret)


def _fit_core(samples):
    """Weighted least squares of d against (eps, eps^2, eps^3).

    The fit error is dominated by the first unmodeled expansion order, so
    each sample is weighted as if its noise were proportional to eps**4.
    That keeps the large-eps rungs (most contaminated) from polluting the
    coefficients while the small-eps rungs still carry the signal; the error
    bars come from the weighted residual covariance.  Returns
    (coef, err, cond).
    """
    eps = np.array([s.epsilon for s in samples])
    d = np.array([s.d for s in samples])
    w = np.abs(eps) ** -4.0
    design = (eps[:, None] ** np.arange(1, 4)) * w[:, None]
    rhs = d * w
    cond = float(np.linalg.cond(design))
    if cond > 1e12:
        raise AccuracyError(
            f"displacement fit is ill-conditioned (cond={cond:.3g}); "
            "spread the eps ladder", err_est=cond)
    coef, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
    dof = len(d) - 3
    if dof > 0:
        sigma2 = float(np.sum((rhs - design @ coef) ** 2)) / dof
    else:
        sigma2 = 0.0
    cov = sigma2 * np.linalg.inv(design.T @ design)
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return coef, err, cond


@lru_cache(maxsize=1)
def displacement_sign() -> int:
    """Orientation factor between measured displacements and loop integrals.

    Probe: the perturbation x' += eps * x makes the first-order coefficient
    equal the (positive) oval area integral.  The factor is the sign match
    between the fitted first-order slope and that area, computed once and
    cached; both expansion orders inherit it, since flipping the traversal
    orientation flips the whole displacement.
    """
    lam = [0.0] * 10
    lam[1] = 1.0
    probe = PerturbationParams(tuple(lam), (0.0,) * 10, (0.0,) * 10, (0.0,) * 10)
    h, annulus = -0.125, Annulus.INTERIOR_RIGHT
    samples = [displacement(h, e, probe, annulus) for e in DEFAULT_EPS_LIST]
    slope = _fit_core(samples)[0][0]
    area = period_vector(h, annulus).i0.real
    return 1 if slope * area > 0 else -1


@dataclass(frozen=True)
class MelnikovFit:
    """Expansion coefficients of the displacement, with fit error bars.

    m1 and m2 are the coefficients of eps and eps**2 after orientation
    calibration; the error bars are one-sigma values from the residual
    covariance of the cubic fit (a single spare degree of freedom on the
    default ladder, so treat them as order-of-magnitude).
    """

    h: float
    annulus: Annulus
    m1: float
    m2: float
    m1_err: float
    m2_err: float
    cubic: float
    condition: float
    sign: int
    samples: tuple[DisplacementSample, ...]


def melnikov_fit(h: float, params: PerturbationParams, annulus: Annulus,
                 eps_list=DEFAULT_EPS_LIST, phase: float = 0.0) -> MelnikovFit:
    """Fit d(eps) = a1 eps + a2 eps^2 + a3 eps^3 from direct integrations.

    Needs at least four strengths so the cubic fit has a residual degree of
    freedom for the error bars.
    """
    eps_list = tuple(float(e) for e in eps_list)
    if len(eps_list) < 4:
        raise ValueError("need at least 4 eps values for the cubic fit")
    samples = tuple(displacement(h, e, params, annulus, phase) for e in eps_list)
    coef, err, cond = _fit_core(samples)
    sign = displacement_sign()
    return MelnikovFit(h=float(h), annulus=annulus,
                       m1=sign * float(coef[0]), m2=sign * float(coef[1]),
                       m1_err=float(err[0]), m2_err=float(err[1]),
                       cubic=sign * float(coef[2]), condition=cond,
                       sign=sign, samples=samples)
