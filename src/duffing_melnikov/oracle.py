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

The solver is DOP853 run in lock-step over the eps ladder of a fit, one
lane per eps, by the engine in _dop853 that the Picard-Fuchs transport
shares: each round makes one attempt for every lane still integrating, and
each lane's attempts and floats are those of scipy's DOP853 at its eps
alone.  The right-hand side runs per lane in Python floats.  The crossings
of a round are root-polished together by zeros._brentq, which takes scipy's
brentq steps on every bracket, so a flow loads neither scipy.integrate nor
scipy.optimize.  flow imports the engine when it is called.

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

from .abelian import orbit_period, period_vector
from .geometry import Annulus, hamiltonian, section_point
from .melnikov import PerturbationParams
from .quadrature import AccuracyError
from .zeros import _brentq

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
    "checked_eps_ladder",
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


def solve_ivp(*args, **kwargs):
    """scipy's solve_ivp, imported when called; nothing here calls it, bench/tracing.py binds it."""
    from scipy import integrate
    return integrate.solve_ivp(*args, **kwargs)


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


def oval_section(h: float, annulus: Annulus) -> Section:
    """Cross-section through the canonical section point of the oval at level h."""
    z = section_point(h, annulus)
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
    """The flow's right-hand side at one eps; z is any pair of floats."""
    f = _cubic(params.coeff_grid("lambda1") + epsilon * params.coeff_grid("lambda2"))
    g = _cubic(params.coeff_grid("gamma1") + epsilon * params.coeff_grid("gamma2"))

    def rhs(t, z):
        x, y = z
        return (y + epsilon * f(x, y), x - x * x * x + epsilon * g(x, y))

    return rhs


def flow(state, params: PerturbationParams, epsilons, section: Section,
         t_min: float = 0.0, t_max: float = _TIME_BUDGET) -> list:
    """Integrate the perturbed system at each eps up to its first qualifying section return.

    Returns one (state, time) per eps: the first flow-direction crossing
    with time > t_min that lands near the section anchor, where that lane
    stops; t_max is only a time budget.  The eps run in lock-step (see the
    module docstring), each with the floats of solve_ivp's DOP853 and a
    direction-1 event on (0, t_max) at that eps alone; crossing times are
    root-polished on the step's dense interpolant, all of a round's in one
    _brentq call.  Raises EscapeError for the first eps, in order, whose
    step fails or that does not return.
    """
    from ._dop853 import Lane, interpolant, run

    t_max, g = float(t_max), section.crossing(0.0, state)
    lanes = [Lane(_perturbed_rhs(params, e), state, t_max, _FLOW_RTOL, _FLOW_ATOL,
                  f"integration failed at eps={e:g}") for e in epsilons]
    for lane, e in zip(lanes, epsilons):
        lane.epsilon, lane.g = e, g
    anchor, guard = np.asarray(section.point), 0.5 * (1.0 + math.hypot(*section.point))

    def accept(steps):
        # the flow-direction crossings of a round, polished together; a step
        # that ends by t_min holds no root that is taken, so it is not polished
        crossed = []
        for lane, t_old, y_old, y_new, K in steps:
            g, lane.g = lane.g, section.crossing(lane.t, y_new)
            if g <= 0 and lane.g >= 0 and lane.t > t_min:
                at = interpolant(lane.rhs, K, t_old, lane.t, lane.h, y_old, y_new)
                crossed.append((lane, t_old, lane.t, at))
        if crossed:
            hit, a, b, ats = zip(*crossed)

            def f(x, k):  # brentq's calls, one Python float per bracket
                return [section.crossing(s, ats[i](s)) for s, i in zip(x.tolist(), k.tolist())]

            every = np.arange(len(crossed))
            roots = _brentq(f, a, b, f(np.array(a), every), f(np.array(b), every),
                            xtol=_CROSSING_TOL)
            for lane, at, t in zip(hit, ats, roots.tolist()):
                z = at(t)
                if t > t_min and np.hypot(*(z - anchor)) < guard:
                    lane.end = (z, t)
        for lane, *_ in steps:
            if lane.end is None and lane.t >= t_max:
                lane.end = f"no section return in ({t_min:g}, {t_max:g}] at eps={lane.epsilon:g}"

    run(lanes, _FLOW_RTOL, _FLOW_ATOL, accept)
    for lane in lanes:
        if isinstance(lane.end, str):
            raise EscapeError(lane.end)
    return [lane.end for lane in lanes]


@dataclass(frozen=True)
class DisplacementSample:
    """One measured return-map displacement in energy units."""

    h: float
    epsilon: float
    d: float
    return_time: float


def _ladder(h: float, params: PerturbationParams, annulus: Annulus,
            eps_list) -> tuple[DisplacementSample, ...]:
    """First-return displacements at every eps of a ladder, from one lock-step flow."""
    annulus.require(h)
    sec = oval_section(h, annulus)
    T0 = orbit_period(h, annulus)
    t_max = min(_TIME_BUDGET, 3.0 * T0 + 10.0)
    ends = flow(sec.point, params, eps_list, sec, t_min=0.5 * T0, t_max=t_max)
    return tuple(DisplacementSample(h=float(h), epsilon=float(e),
                                    d=float(hamiltonian(end[0], end[1]) - h), return_time=t_ret)
                 for e, (end, t_ret) in zip(eps_list, ends))


def displacement(h: float, epsilon: float, params: PerturbationParams,
                 annulus: Annulus) -> DisplacementSample:
    """First-return displacement d = H(end) - h at one perturbation strength.

    A one-lane flow: the same float as the eps's sample in a melnikov_fit
    over any ladder that holds it.  At epsilon = 0 the orbit closes and |d|
    sits at the integrator noise floor, a few multiples of the integration
    tolerance 1e-12.
    """
    return _ladder(h, params, annulus, (epsilon,))[0]


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
    samples = _ladder(h, probe, annulus, DEFAULT_EPS_LIST)
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
    condition: float
    samples: tuple[DisplacementSample, ...]


def checked_eps_ladder(eps_list) -> tuple[float, ...]:
    """The ladder as floats; ValueError unless it holds 4 distinct, finite, nonzero eps."""
    eps_list = tuple(float(e) for e in eps_list)
    if len(set(eps_list)) < 4:
        raise ValueError(f"the cubic fit needs 4 distinct eps values, got {list(eps_list)}")
    if not all(math.isfinite(e) and e != 0.0 for e in eps_list):
        raise ValueError(f"every eps must be finite and nonzero, got {list(eps_list)}")
    return eps_list


def melnikov_fit(h: float, params: PerturbationParams, annulus: Annulus,
                 eps_list=DEFAULT_EPS_LIST) -> MelnikovFit:
    """Fit d(eps) = a1 eps + a2 eps^2 + a3 eps^3 from direct integrations.

    Needs at least four strengths, each finite and nonzero, so the cubic fit
    has a residual degree of freedom for the error bars.  The section and the
    period are computed once and the whole ladder is integrated by one
    lock-step flow; each sample is the float displacement gives at its eps.
    """
    eps_list = checked_eps_ladder(eps_list)
    samples = _ladder(h, params, annulus, eps_list)
    coef, err, cond = _fit_core(samples)
    sign = displacement_sign()
    return MelnikovFit(h=float(h), annulus=annulus,
                       m1=sign * float(coef[0]), m2=sign * float(coef[1]),
                       m1_err=float(err[0]), m2_err=float(err[1]),
                       condition=cond, samples=samples)
