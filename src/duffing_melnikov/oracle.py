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

The solver is DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5) run in
lock-step over the eps ladder of a fit, one lane per eps: each round makes
one attempt (11 stages, the final evaluation, the error norm, accept or
reject) for every lane still integrating, and each lane's attempts and
floats are those of scipy's DOP853 at its eps alone.  That holds because
stage and error sums are np.matmul calls over each lane's own (2, s) slice,
the same BLAS gemv as DOP853's np.dot; squared norms are per-lane dots as in
np.linalg.norm; step factors use scalar pow, never array **; and the
right-hand side runs per lane in Python floats.

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
    """The flow's right-hand side at one eps; z is any pair of floats."""
    f = _cubic(params.coeff_grid("lambda1") + epsilon * params.coeff_grid("lambda2"))
    g = _cubic(params.coeff_grid("gamma1") + epsilon * params.coeff_grid("gamma2"))

    def rhs(t, z):
        x, y = z
        return (y + epsilon * f(x, y), x - x * x * x + epsilon * g(x, y))

    return rhs


# DOP853's tableau and step-size control, as scipy's DOP853 applies them
_STAGES, _C = DOP853.n_stages, DOP853.C.tolist()
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)


class _Lane:
    """One eps of a lock-step flow: the scalars a DOP853 solver keeps for it."""

    def __init__(self, epsilon, params, state, t_max, g):
        self.epsilon, self.rhs = epsilon, _perturbed_rhs(params, epsilon)
        # scipy's DOP853 evaluates f0 and selects the first step
        start = DOP853(self.rhs, 0.0, state, t_max, rtol=_FLOW_RTOL, atol=_FLOW_ATOL)
        self.t, self.h_abs, self.f0, self.retry, self.g = 0.0, start.h_abs, start.f, False, g
        self.end = None  # (state, time) of the return, or the EscapeError

    def size(self, t_max: float) -> bool:
        """Set the attempt's step h as DOP853 does; False when it is too small."""
        if not self.retry:
            self.min_step = 10 * abs(math.nextafter(self.t, math.inf) - self.t)
            self.h_abs = max(self.h_abs, self.min_step)
        if self.h_abs < self.min_step:
            self.end = EscapeError(f"integration failed at eps={self.epsilon:g}: "
                                   f"{DOP853.TOO_SMALL_STEP}")
            return False
        self.t_new = min(self.t + self.h_abs, t_max)
        self.h = self.t_new - self.t
        self.h_abs = abs(self.h)
        return True

    def judge(self, error_norm: float) -> bool:
        """Accept or reject the attempt and rescale the step as DOP853 does."""
        accept = error_norm < 1
        factor = _SAFETY * error_norm ** _EXPONENT if error_norm else _MAX_FACTOR
        if accept:
            factor = min(1 if self.retry else _MAX_FACTOR, factor)
        else:
            factor = max(_MIN_FACTOR, factor)
        self.h_abs, self.retry = self.h_abs * factor, not accept
        return accept


def _attempt(lanes, y, K):
    """One DOP853 attempt of every lane from y, in scipy's rk_step order.

    K[:, 0] holds each lane's f at y.  Returns the new points and the error norms.
    """
    h = np.array([lane.h for lane in lanes])[:, None]
    for s in range(1, _STAGES):
        z = (y + np.matmul(K[:, :s].transpose(0, 2, 1), DOP853.A[s, :s]) * h).tolist()
        K[:, s] = [lane.rhs(lane.t + _C[s] * lane.h, zk) for lane, zk in zip(lanes, z)]
    y_new = y + h * np.matmul(K[:, :_STAGES].transpose(0, 2, 1), DOP853.B)
    K[:, _STAGES] = [lane.rhs(lane.t + lane.h, zk) for lane, zk in zip(lanes, y_new.tolist())]
    scale = _FLOW_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _FLOW_RTOL
    squares = []  # np.linalg.norm(err) ** 2 for E5 and E3: the root of a dot, squared by pow
    for e in (DOP853.E5, DOP853.E3):
        err = np.matmul(K[:, :_STAGES + 1].transpose(0, 2, 1), e) / scale
        dots = np.matmul(err[:, None], err[:, :, None]).ravel().tolist()
        squares.append([math.sqrt(q) ** 2 for q in dots])
    return y_new, [abs(lane.h) * n5 / math.sqrt((n5 + 0.01 * n3) * 2) if n5 or n3 else 0.0
                   for lane, n5, n3 in zip(lanes, *squares)]


def _interpolant(rhs, K, t_old, t, h, y_old, y):
    """DOP853's dense output over one accepted step, in its operation order."""
    for s, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=_STAGES + 1):
        K[s] = rhs(t_old + c * h, y_old + np.dot(K[:s].T, a[:s]) * h)
    dy = y - y_old
    F = [dy, h * K[0] - dy, 2 * dy - h * (K[_STAGES] + K[0]), *(h * np.dot(DOP853.D, K))]

    def at(s):
        x, z = (s - t_old) / (t - t_old), np.zeros(2)
        for i, row in enumerate(reversed(F)):
            z = (z + row) * (x if i % 2 == 0 else 1 - x)
        return z + y_old

    return at


def flow(state, params: PerturbationParams, epsilons, section: Section,
         t_min: float = 0.0, t_max: float = _TIME_BUDGET) -> list:
    """Integrate the perturbed system at each eps up to its first qualifying section return.

    Returns one (state, time) per eps: the first flow-direction crossing
    with time > t_min that lands near the section anchor, where that lane
    stops; t_max is only a time budget.  The eps run in lock-step (see the
    module docstring), each with the floats of solve_ivp's DOP853 and a
    direction-1 event on (0, t_max) at that eps alone; crossing times are
    root-polished on the step's dense interpolant.  Raises EscapeError for
    the first eps, in order, whose step fails or that does not return.
    """
    t_max, g = float(t_max), section.crossing(0.0, state)
    lanes = every = [_Lane(e, params, state, t_max, g) for e in epsilons]
    y = np.array([state] * len(lanes), dtype=float)
    K = np.empty((len(lanes), _STAGES + 1 + len(DOP853.C_EXTRA), 2))
    K[:, 0] = [lane.f0 for lane in lanes]
    anchor, guard = np.asarray(section.point), 0.5 * (1.0 + math.hypot(*section.point))
    while True:
        keep = [lane.end is None and lane.size(t_max) for lane in lanes]
        lanes, y, K = [lane for lane, k in zip(lanes, keep) if k], y[keep], K[keep]
        if not lanes:
            break
        y_new, norms = _attempt(lanes, y, K)
        accepted = [lane.judge(e) for lane, e in zip(lanes, norms)]
        for i, lane in enumerate(lanes):
            if not accepted[i]:
                continue
            t_old, lane.t, g = lane.t, lane.t_new, lane.g
            lane.g = section.crossing(lane.t, y_new[i])
            if g <= 0 and lane.g >= 0:
                at = _interpolant(lane.rhs, K[i], t_old, lane.t, lane.h, y[i], y_new[i])
                t = brentq(lambda s: section.crossing(s, at(s)), t_old, lane.t,
                           xtol=_CROSSING_TOL, rtol=_CROSSING_TOL)
                z = at(t)
                if t > t_min and np.hypot(*(z - anchor)) < guard:
                    lane.end = (z, float(t))
                    continue
            if lane.t >= t_max:
                lane.end = EscapeError(f"no section return in ({t_min:g}, {t_max:g}] "
                                       f"at eps={lane.epsilon:g}")
        y[accepted], K[accepted, 0] = y_new[accepted], K[accepted, _STAGES]
    for lane in every:
        if isinstance(lane.end, EscapeError):
            raise lane.end
    return [lane.end for lane in every]


@dataclass(frozen=True)
class DisplacementSample:
    """One measured return-map displacement in energy units."""

    h: float
    epsilon: float
    d: float
    integration_tol: float
    return_time: float


def _ladder(h: float, params: PerturbationParams, annulus: Annulus, eps_list,
            phase: float) -> tuple[DisplacementSample, ...]:
    """First-return displacements at every eps of a ladder, from one lock-step flow."""
    annulus.require(h)
    sec = oval_section(h, annulus, phase)
    T0 = orbit_period(h, annulus)
    t_max = min(_TIME_BUDGET, 3.0 * T0 + 10.0)
    ends = flow(sec.point, params, eps_list, sec, t_min=0.5 * T0, t_max=t_max)
    return tuple(DisplacementSample(h=float(h), epsilon=float(e),
                                    d=float(hamiltonian(end[0], end[1]) - h),
                                    integration_tol=_FLOW_RTOL, return_time=t_ret)
                 for e, (end, t_ret) in zip(eps_list, ends))


def displacement(h: float, epsilon: float, params: PerturbationParams,
                 annulus: Annulus, phase: float = 0.0) -> DisplacementSample:
    """First-return displacement d = H(end) - h at one perturbation strength.

    A one-lane flow: the same float as the eps's sample in a melnikov_fit
    over any ladder that holds it.  At epsilon = 0 the orbit closes and |d|
    sits at the integrator noise floor, a few multiples of the integration
    tolerance 1e-12.
    """
    return _ladder(h, params, annulus, (epsilon,), phase)[0]


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
    samples = _ladder(h, probe, annulus, DEFAULT_EPS_LIST, 0.0)
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
    freedom for the error bars.  The section and the period are computed
    once and the whole ladder is integrated by one lock-step flow; each
    sample is the float displacement gives at its eps.
    """
    eps_list = tuple(float(e) for e in eps_list)
    if len(eps_list) < 4:
        raise ValueError("need at least 4 eps values for the cubic fit")
    samples = _ladder(h, params, annulus, eps_list, phase)
    coef, err, cond = _fit_core(samples)
    sign = displacement_sign()
    return MelnikovFit(h=float(h), annulus=annulus,
                       m1=sign * float(coef[0]), m2=sign * float(coef[1]),
                       m1_err=float(err[0]), m2_err=float(err[1]),
                       cubic=sign * float(coef[2]), condition=cond,
                       sign=sign, samples=samples)
