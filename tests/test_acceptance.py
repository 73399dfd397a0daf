"""Acceptance suite: one test per stated acceptance criterion.

Each test prints a single summary line (visible with -v -s or in failure
output) and asserts the criterion at its stated tolerance and runtime
budget.  Seeds are fixed so every run certifies the same draws.
"""

import math
import time
from collections import Counter

import numpy as np

from duffing_melnikov import checks
from duffing_melnikov.abelian import (
    closed_form,
    exterior_slope,
    saddle_constants,
)
from duffing_melnikov.geometry import Annulus
from duffing_melnikov.melnikov import (
    PerturbationParams,
    enforce_m1_zero,
    m1_form,
    m1_quadrature,
    m2_form,
    m2_iliev_quadrature,
    m_eval,
)
from duffing_melnikov.oracle import melnikov_fit
from duffing_melnikov.zeros import BOUNDS, Status, bound_census

SEED = 20260815
ANNULI = (Annulus.INTERIOR_LEFT, Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR)

LEVELS = {
    Annulus.INTERIOR_RIGHT: (-0.23, -0.18, -0.125, -0.07, -0.02),
    Annulus.EXTERIOR: (0.05, 0.3, 1.0, 3.0, 9.0),
}


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance criterion {n} failed: {detail}"


def _closed(form, h, annulus):
    # closed-form periods: the tables are checked on the route the program
    # evaluates, against the quadrature oracles
    return float(np.real(m_eval(form, h, closed_form(h, annulus)[:3])))


def test_acceptance_1_saddle_limit_constants():
    t0 = time.monotonic()
    i0c, i2c = saddle_constants()
    err = max(abs(i0c - 4.0 / 3.0), abs(i2c - 16.0 / 15.0))
    elapsed = time.monotonic() - t0
    ok = err <= 1e-6 and elapsed < 1.0
    _report(1, ok, f"I0->{i0c:.9f}, I2->{i2c:.9f}, worst err {err:.2e}, {elapsed:.2f}s")


def test_acceptance_2_period_system_residuals():
    t0 = time.monotonic()
    res = checks.picard_fuchs_residual(ANNULI)
    red = checks.moment_reduction(ANNULI)
    worst = max(res["worst"], red["worst"])
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(2, ok, f"derivative residual {res['worst']:.2e}, "
                   f"reduction residual {red['worst']:.2e}, {elapsed:.1f}s")


def test_acceptance_3_first_moment_linearity():
    t0 = time.monotonic()
    rec = checks.linear_moment(ANNULI)
    d = rec["detail"]
    fit_resid = max(d["interior-right"]["fit_residual"],
                    d["interior-left"]["fit_residual"])
    root_dev = max(d["interior-right"]["root_dev"], d["interior-left"]["root_dev"])
    ext = d["exterior"]["max_abs"]
    elapsed = time.monotonic() - t0
    ok = (fit_resid <= 1e-9 and root_dev <= 1e-6 and ext <= 1e-10
          and elapsed < 5.0)
    _report(3, ok, f"linear fit residual {fit_resid:.2e}, root at -1/4 within "
                   f"{root_dev:.2e}, exterior max {ext:.2e}, {elapsed:.1f}s")


def test_acceptance_4_order1_closed_form_vs_quadrature():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        params = PerturbationParams.random(rng)
        for annulus, levels in LEVELS.items():
            form = m1_form(params, annulus)
            for h in levels:
                closed = _closed(form, h, annulus)
                quad = m1_quadrature(params, h, annulus)
                rel = abs(closed - quad) / max(abs(closed), abs(quad), 1e-9)
                worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(4, ok, f"worst relative deviation {worst:.2e} over "
                   f"10 draws x 5 levels x 2 annuli, {elapsed:.1f}s")


def test_acceptance_5_order2_closed_form_vs_quadrature():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        raw = PerturbationParams.random(rng)
        for annulus, levels in LEVELS.items():
            params = enforce_m1_zero(raw, annulus)
            form = m2_form(params, annulus)
            for h in levels:
                closed = _closed(form, h, annulus)
                quad = m2_iliev_quadrature(params, h, annulus)
                rel = abs(closed - quad) / max(abs(closed), abs(quad), 1e-9)
                worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-7 and elapsed < 120.0
    _report(5, ok, f"worst relative deviation {worst:.2e} over "
                   f"20 constrained draws x 5 levels x 2 annuli, {elapsed:.1f}s")


def test_acceptance_6_flow_oracle_agreement():
    t0 = time.monotonic()
    sym_ladder = tuple(2.5e-3 / 2 ** k * s for k in range(4) for s in (1.0, -1.0))
    worst_ratio = 0.0
    min_order = np.inf
    rows = []

    def order_of(fit, closed_m1):
        eps = np.array([s.epsilon for s in fit.samples])
        resid = np.abs(np.array([s.d for s in fit.samples]) / eps - closed_m1)
        return float(np.polyfit(np.log(np.abs(eps)), np.log(resid), 1)[0])

    for seed, annulus in ((101, Annulus.INTERIOR_RIGHT), (102, Annulus.EXTERIOR)):
        params = PerturbationParams.random(np.random.default_rng(seed), scale=0.5)
        form = m1_form(params, annulus)
        for h in (-0.2, -0.125, -0.06) if annulus is not Annulus.EXTERIOR else (0.5, 1.0, 2.0):
            fit = melnikov_fit(h, params, annulus)
            closed = _closed(form, h, annulus)
            limit = max(1e-5 * abs(closed), 3.0 * fit.m1_err)
            worst_ratio = max(worst_ratio, abs(fit.m1 - closed) / limit)
            min_order = min(min_order, order_of(fit, closed))
            rows.append(abs(fit.m1 - closed) <= limit)

    for seed, annulus in ((103, Annulus.INTERIOR_RIGHT), (104, Annulus.EXTERIOR)):
        params = enforce_m1_zero(
            PerturbationParams.random(np.random.default_rng(seed), scale=0.5), annulus)
        form = m2_form(params, annulus)
        for h in (-0.2, -0.125, -0.06) if annulus is not Annulus.EXTERIOR else (0.5, 1.0, 2.0):
            fit = melnikov_fit(h, params, annulus, eps_list=sym_ladder)
            closed = _closed(form, h, annulus)
            limit = max(1e-4 * abs(closed), 3.0 * fit.m2_err)
            worst_ratio = max(worst_ratio, abs(fit.m2 - closed) / limit)
            min_order = min(min_order, order_of(fit, 0.0))
            rows.append(abs(fit.m2 - closed) <= limit)

    elapsed = time.monotonic() - t0
    ok = all(rows) and min_order >= 0.8 and elapsed < 600.0
    _report(6, ok, f"{sum(rows)}/{len(rows)} rows within limits, worst ratio "
                   f"{worst_ratio:.2f}, min eps-order {min_order:.3f}, {elapsed:.1f}s")


def test_acceptance_7_zero_count_census():
    t0 = time.monotonic()
    classes = (
        (1, Annulus.INTERIOR_LEFT),
        (1, Annulus.INTERIOR_RIGHT),
        (1, Annulus.EXTERIOR),
        (2, Annulus.INTERIOR_RIGHT),
        (2, Annulus.EXTERIOR),
    )
    lines = []
    ok = True
    for order, annulus in classes:
        certs, summary = bound_census(order, annulus, n_draws=200, seed=SEED)
        bound = BOUNDS[(order, annulus)]
        hist = Counter(c.winding for c in certs
                       if c.status is not Status.DEGENERATE)
        inconclusive = summary["status_counts"][Status.INCONCLUSIVE.value]
        roots_ok = all(len(c.real_roots) <= c.winding for c in certs
                       if c.status is not Status.DEGENERATE)
        class_ok = (summary["max_winding"] <= bound and inconclusive == 0
                    and roots_ok)
        ok = ok and class_ok
        lines.append(
            f"order {order} {annulus.value}: max winding {summary['max_winding']}"
            f" vs bound {bound}, hist {dict(sorted(hist.items()))},"
            f" {len(summary['violations'])} violation(s),"
            f" {inconclusive} inconclusive{'' if class_ok else '  <-- EXCEEDED'}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1800.0
    detail = f"200 draws/class, seed {SEED}, {elapsed:.0f}s\n  " + "\n  ".join(lines)
    _report(7, ok, detail)


def test_acceptance_8_nonvanishing_and_wronskian():
    t0 = time.monotonic()
    nv = checks.area_nonvanishing(ANNULI)
    wr = checks.wronskian_jump(ANNULI)
    min_norm = min(nv["detail"]["min_i0_normalized"],
                   nv["detail"]["min_di0_normalized"])
    const_dev = wr["detail"]["constancy_dev"]
    jump_dev = wr["detail"]["jump_dev"]
    elapsed = time.monotonic() - t0
    ok = (min_norm > 1e-6 and nv["detail"]["grid_points"] == 400
          and const_dev <= 1e-6 and jump_dev <= 0.02 and elapsed < 120.0)
    _report(8, ok, f"min normalized |I0|,|I0'| = {min_norm:.3f} on 400 points, "
                   f"Wronskian constancy {const_dev:.2e}, jump 2 within "
                   f"{jump_dev:.2e}, {elapsed:.1f}s")


def test_acceptance_9_growth_and_argument_budgets(circle_argument):
    t0 = time.monotonic()
    slope, _ = exterior_slope()
    slope_err = abs(slope - 0.75)

    z = [0.0] * 10
    l = list(z)
    l[7] = 1.0  # x y^2 term alone
    probe1 = PerturbationParams(tuple(l), tuple(z), tuple(z), tuple(z))
    arg1 = circle_argument(m1_form(probe1, Annulus.INTERIOR_RIGHT))
    dev1 = abs(arg1 - 3.5 * math.pi) / (3.5 * math.pi)

    l = list(z)
    l[5] = 1.0  # y^2
    l[6] = 1.0  # x^2 y
    probe2 = enforce_m1_zero(
        PerturbationParams(tuple(l), tuple(z), tuple(z), tuple(z)),
        Annulus.INTERIOR_RIGHT)
    arg2 = circle_argument(m2_form(probe2, Annulus.INTERIOR_RIGHT))
    dev2 = abs(arg2 - 4.0 * math.pi) / (4.0 * math.pi)

    elapsed = time.monotonic() - t0
    ok = slope_err <= 1e-3 and dev1 <= 0.05 and dev2 <= 0.05 and elapsed < 10.0
    _report(9, ok, f"growth exponent 3/4 within {slope_err:.2e}; circle-argument "
                   f"budgets 7pi/2 and 4pi within {100 * dev1:.1f}% and "
                   f"{100 * dev2:.1f}%, {elapsed:.1f}s")
