"""Tests for the integrate-the-flow oracle.

These check the oracle's internal consistency (closure at zero strength,
return times, section independence, fit recovery on synthetic data) and its
agreement with the closed-form first-order coefficient on a random draw.
The heavier closed-form comparisons live in the acceptance suite.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import DOP853, solve_ivp

from duffing_melnikov import _dop853, oracle
from duffing_melnikov._dop853 import Lane, run
from duffing_melnikov.abelian import orbit_period, period_vector
from duffing_melnikov.geometry import Annulus, hamiltonian, section_point
from duffing_melnikov.melnikov import PerturbationParams, m1_form, m_eval
from duffing_melnikov.oracle import (
    DEFAULT_EPS_LIST,
    DisplacementSample,
    EscapeError,
    Section,
    _FLOW_ATOL,
    _FLOW_RTOL,
    _TIME_BUDGET,
    _cubic,
    _fit_core,
    _perturbed_rhs,
    displacement,
    displacement_sign,
    flow,
    melnikov_fit,
    oval_section,
)


@pytest.mark.parametrize("annulus,h", [
    (Annulus.INTERIOR_RIGHT, -0.125),
    (Annulus.EXTERIOR, 1.0),
])
def test_unperturbed_orbit_closes(annulus, h):
    params = PerturbationParams.zero()
    s = displacement(h, 0.0, params, annulus)
    assert abs(s.d) < 1e-11
    assert s.return_time == pytest.approx(orbit_period(h, annulus), rel=1e-9)


@pytest.mark.parametrize("annulus,h", [
    (Annulus.INTERIOR_RIGHT, -0.125),
    (Annulus.EXTERIOR, 1.0),
])
def test_flipping_eps_and_the_first_tier_leaves_the_flow_unchanged(annulus, h):
    # the field is y + eps (f1 + eps f2), x - x^3 + eps (g1 + eps g2): negating
    # eps, f1 and g1 leaves every term, and negation is exact in floats
    for seed in range(4):
        params = PerturbationParams.uniform(np.random.default_rng(seed))
        flipped = dataclasses.replace(params, lambda1=tuple(-c for c in params.lambda1),
                                      gamma1=tuple(-c for c in params.gamma1))
        mine, theirs = (displacement(h, 1e-2, params, annulus),
                        displacement(h, -1e-2, flipped, annulus))
        assert (theirs.d, theirs.return_time) == (mine.d, mine.return_time)


def test_section_anchor_is_on_level_set():
    for annulus, h in ((Annulus.INTERIOR_LEFT, -0.2), (Annulus.INTERIOR_RIGHT, -0.1),
                       (Annulus.EXTERIOR, 0.8)):
        sec = oval_section(h, annulus)
        assert sec.point == section_point(h, annulus)
        assert hamiltonian(*sec.point) == pytest.approx(h, abs=1e-12)
        assert math.hypot(*sec.normal) == pytest.approx(1.0)


@pytest.mark.parametrize("t_max", [math.inf, math.nan, 0.0])
def test_flow_rejects_a_time_budget_that_is_not_finite_and_positive(t_max):
    sec = oval_section(-0.125, Annulus.INTERIOR_RIGHT)
    with pytest.raises(ValueError, match="integration failed at eps=0: end time"):
        flow(sec.point, PerturbationParams.zero(), (0.0,), sec, t_max=t_max)


def test_orientation_calibration():
    # the measured displacement orientation must match the loop integrals
    assert displacement_sign() == 1


def test_fit_matches_closed_form_first_order(rng):
    params = PerturbationParams.random(rng, scale=0.5)
    h, annulus = -0.125, Annulus.INTERIOR_RIGHT
    fit = melnikov_fit(h, params, annulus)
    closed = float(np.real(m_eval(m1_form(params, annulus),
                                  h, period_vector(h, annulus))))
    tol = max(2e-5 * abs(closed), 3.0 * fit.m1_err)
    assert abs(fit.m1 - closed) < tol
    assert fit.condition < 1e12
    assert len(fit.samples) == len(DEFAULT_EPS_LIST)


def _free_rhs(t, z):
    return (z[1], z[0] - z[0] * z[0] * z[0])


def test_fit_is_section_independent(rng):
    # a second transversal: the canonical anchor advanced 0.3 T0 along the
    # unperturbed orbit, its normal the flow direction there
    params = PerturbationParams.random(rng, scale=0.5)
    h, annulus = 0.8, Annulus.EXTERIOR
    f0 = melnikov_fit(h, params, annulus)
    T0 = orbit_period(h, annulus)
    sol = solve_ivp(_free_rhs, (0.0, 0.3 * T0), section_point(h, annulus),
                    method="DOP853", rtol=_FLOW_RTOL, atol=_FLOW_ATOL)
    point = tuple(sol.y[:, -1].tolist())
    v = _free_rhs(0.0, point)
    sec = Section(point=point, normal=(v[0] / math.hypot(*v), v[1] / math.hypot(*v)))
    ends = flow(sec.point, params, DEFAULT_EPS_LIST, sec, t_min=0.5 * T0,
                t_max=min(_TIME_BUDGET, 3.0 * T0 + 10.0))
    samples = [DisplacementSample(h, e, hamiltonian(*end) - h, t)
               for e, (end, t) in zip(DEFAULT_EPS_LIST, ends)]
    coef, err, _ = _fit_core(samples)
    m1 = displacement_sign() * coef[0]
    tol = max(2e-5 * abs(f0.m1), 3.0 * (f0.m1_err + err[0]))
    assert abs(f0.m1 - m1) < tol


def test_residual_scales_linearly_in_eps(rng):
    # d/eps - M1 should shrink like eps (the order-2 term dominates), so the
    # log-log slope of the residual against eps is close to one.
    params = PerturbationParams.random(rng, scale=0.5)
    h, annulus = -0.125, Annulus.INTERIOR_RIGHT
    fit = melnikov_fit(h, params, annulus)
    closed = float(np.real(m_eval(m1_form(params, annulus),
                                  h, period_vector(h, annulus))))
    eps = np.array([s.epsilon for s in fit.samples])
    resid = np.abs(np.array([s.d for s in fit.samples]) / eps - closed)
    slope = np.polyfit(np.log(eps), np.log(resid), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_fit_requires_four_strengths():
    with pytest.raises(ValueError):
        melnikov_fit(-0.125, PerturbationParams.zero(), Annulus.INTERIOR_RIGHT,
                     eps_list=(1e-2, 5e-3))


def test_a_nan_step_ends_the_lane():
    # a NaN first step ends with DOP853's message, not endless retries; the
    # rhs raises after 10^4 calls, so a regression fails rather than hangs
    calls = iter(range(10_000))
    lane = Lane(lambda t, z: [math.nan + next(calls), 0.0], [1.0, 0.0], 1.0,
                _FLOW_RTOL, _FLOW_ATOL, "nan lane")
    run([lane], _FLOW_RTOL, _FLOW_ATOL, lambda *args: None)
    assert lane.end == f"nan lane: {DOP853.TOO_SMALL_STEP}"


def test_flow_raises_when_no_return_in_window():
    # the error names the first eps in ladder order that fails
    h, annulus = -0.125, Annulus.INTERIOR_RIGHT
    params = PerturbationParams.random(np.random.default_rng(7), scale=0.5)
    sec = oval_section(h, annulus)
    T0 = orbit_period(h, annulus)
    # every lane runs out of time
    with pytest.raises(EscapeError, match=r"no section return .* at eps=0$"):
        flow(sec.point, params, (0.0, 1e-2, -1e-2, 5e-3), sec, t_min=0.2, t_max=0.3)
    # 0.1 returns; the 1.0 lane blows up before the 0.5 lane does
    with pytest.raises(EscapeError, match=r"integration failed at eps=0.5:"):
        flow(sec.point, params, (0.1, 0.5, 1.0), sec, t_min=0.5 * T0, t_max=3.0 * T0 + 10.0)


def test_fit_core_recovers_synthetic_cubic():
    a1, a2, a3 = 0.37, -1.42, 5.0
    samples = [
        DisplacementSample(h=-0.1, epsilon=e, d=a1 * e + a2 * e ** 2 + a3 * e ** 3,
                           return_time=7.0)
        for e in DEFAULT_EPS_LIST
    ]
    coef, err, cond = _fit_core(samples)
    assert coef[0] == pytest.approx(a1, rel=1e-12)
    assert coef[1] == pytest.approx(a2, rel=1e-12)
    assert coef[2] == pytest.approx(a3, rel=1e-10)
    assert np.all(err < 1e-8)
    assert cond < 1e12


# ---------------------------------------------------------------------------
# the hand-expanded right-hand side reproduces polyval2d bit for bit
# ---------------------------------------------------------------------------


def _polyval_rhs(params, epsilon):
    # the flow right-hand side written with numpy's 2-D polynomial evaluator
    cf = params.coeff_grid("lambda1") + epsilon * params.coeff_grid("lambda2")
    cg = params.coeff_grid("gamma1") + epsilon * params.coeff_grid("gamma2")

    def rhs(t, z):
        x, y = z
        return (y + epsilon * npoly.polyval2d(x, y, cf),
                x - x * x * x + epsilon * npoly.polyval2d(x, y, cg))

    return rhs


_coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, -3.0]),
                   st.floats(-3.0, 3.0, allow_nan=False))
_eps = st.one_of(st.sampled_from([0.0] + [s * e for e in DEFAULT_EPS_LIST for s in (1, -1)]),
                 st.floats(-0.05, 0.05, allow_nan=False))


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), epsilon=_eps,
       points=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8))
def test_cubic_equals_polyval2d_exactly(seed, epsilon, points):
    params = PerturbationParams.random(np.random.default_rng(seed))
    fast, reference = _perturbed_rhs(params, epsilon), _polyval_rhs(params, epsilon)
    for tier1, tier2 in (("lambda1", "lambda2"), ("gamma1", "gamma2")):
        c = params.coeff_grid(tier1) + epsilon * params.coeff_grid(tier2)
        p = _cubic(c)
        for x, y in points:
            assert p(x, y) == npoly.polyval2d(x, y, c)
    for x, y in points:
        z = np.array([x, y])
        assert fast(0.0, z) == reference(0.0, z)


_SYMMETRIC_LADDER = tuple(2.5e-3 / 2 ** k * s for k in range(4) for s in (1.0, -1.0))


@pytest.mark.parametrize("annulus,h", [
    (Annulus.INTERIOR_RIGHT, -0.125),
    (Annulus.EXTERIOR, 1.0),
])
def test_flow_end_state_equals_a_polyval2d_integration(annulus, h):
    # every lane's return point and time are the floats a polyval2d
    # right-hand side gives at its eps alone under the same solver,
    # tolerances and event, on one lane and on the two ladders of the
    # acceptance-6 fits
    params = PerturbationParams.random(np.random.default_rng(7), scale=0.5)
    sec = oval_section(h, annulus)
    T0 = orbit_period(h, annulus)
    t_min, t_max = 0.5 * T0, 3.0 * T0 + 10.0

    def event(t, z):
        return sec.crossing(z)

    event.direction = 1.0
    event.terminal = 2  # the start on the section, then the return
    anchor = np.asarray(sec.point)
    guard = 0.5 * (1.0 + math.hypot(*sec.point))
    for ladder in (DEFAULT_EPS_LIST[:1], DEFAULT_EPS_LIST, _SYMMETRIC_LADDER):
        ends = flow(sec.point, params, ladder, sec, t_min=t_min, t_max=t_max)
        assert len(ends) == len(ladder)
        for epsilon, (end, t_ret) in zip(ladder, ends):
            sol = solve_ivp(_polyval_rhs(params, epsilon), (0.0, t_max), sec.point,
                            method="DOP853", rtol=_FLOW_RTOL, atol=_FLOW_ATOL,
                            events=[event])
            t_ref, z_ref = next((t, z) for t, z in zip(sol.t_events[0], sol.y_events[0])
                                if t > t_min and np.hypot(*(z - anchor)) < guard)
            assert t_ret == t_ref
            assert end.tolist() == z_ref.tolist()


@pytest.mark.parametrize("annulus,h", [
    (Annulus.INTERIOR_RIGHT, -0.125),
    (Annulus.EXTERIOR, 1.0),
])
def test_flow_polishes_each_return_once_in_one_call_per_round(monkeypatch, annulus, h):
    # every lane's crossings of a round share one _brentq call; a step that
    # ends by t_min is not polished, so the only bracket of a lane is its return
    calls, rounds = [], []
    polish, step_all = oracle._brentq, _dop853.run

    def counted_polish(f, a, b, fa, fb, **kwargs):
        calls.append(list(b))
        return polish(f, a, b, fa, fb, **kwargs)

    def counted_run(lanes, rtol, atol, accept):
        def counted_accept(steps):
            accept(steps)
            rounds.append(any(isinstance(lane.end, tuple) for lane, *_ in steps))

        step_all(lanes, rtol, atol, counted_accept)

    monkeypatch.setattr(oracle, "_brentq", counted_polish)
    monkeypatch.setattr(_dop853, "run", counted_run)
    params = PerturbationParams.random(np.random.default_rng(7), scale=0.5)
    sec = oval_section(h, annulus)
    T0 = orbit_period(h, annulus)
    for ladder in (DEFAULT_EPS_LIST, _SYMMETRIC_LADDER):
        calls.clear()
        rounds.clear()
        flow(sec.point, params, ladder, sec, t_min=0.5 * T0, t_max=3.0 * T0 + 10.0)
        ends = [t for b in calls for t in b]
        assert len(ends) == len(ladder)  # each lane returns, so once per lane
        assert min(ends) > 0.5 * T0
        assert 0 < len(calls) <= sum(rounds)


@pytest.mark.parametrize("annulus,h", [
    (Annulus.INTERIOR_RIGHT, -0.125),
    (Annulus.EXTERIOR, 1.0),
])
def test_flow_stops_at_the_return_whatever_the_time_budget(monkeypatch, annulus, h):
    # t_max is only a budget: the same return, and no right-hand-side call
    # past the step that holds it
    calls = []

    def counted(params, epsilon):
        rhs = _perturbed_rhs(params, epsilon)

        def wrapped(t, z):
            calls.append(t)
            return rhs(t, z)

        return wrapped

    monkeypatch.setattr(oracle, "_perturbed_rhs", counted)
    params = PerturbationParams.random(np.random.default_rng(7), scale=0.5)
    epsilon = DEFAULT_EPS_LIST[0]
    sec = oval_section(h, annulus)
    T0 = orbit_period(h, annulus)
    runs = []
    for t_max in (3.0 * T0 + 10.0, _TIME_BUDGET):
        calls.clear()
        ((end, t_ret),) = flow(sec.point, params, (epsilon,), sec, t_min=0.5 * T0,
                               t_max=t_max)
        runs.append((end.tolist(), t_ret, len(calls)))
    assert runs[0] == runs[1]
    assert max(calls) < 2.0 * T0

