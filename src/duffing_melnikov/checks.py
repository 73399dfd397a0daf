"""The verify battery: structural checks of the period integrals.

Every check has the signature check(annuli) -> dict and returns one record
with the keys check (its name), worst, tol, ok and detail.  The first three
run on level grids of the given annuli; the others test fixed properties
(the odd moment, the asymptotics, the exterior cut disc) and ignore the
argument.  CHECKS lists them in the order the verify command runs them.
"""

from __future__ import annotations

import numpy as np

from .abelian import (
    BASE_POINTS,
    continue_paths,
    derivative_pair,
    exterior_slope,
    nonvanishing_grid,
    oval_integrals,
    reduce_moment,
    saddle_constants,
    saddle_log_fit,
    wronskian_cut,
)
from .geometry import Annulus


def _grid_for(annulus: Annulus, n: int) -> np.ndarray:
    if annulus is Annulus.EXTERIOR:
        return np.geomspace(1e-3, 10.0, n)
    return -np.geomspace(0.24, 1e-3, n)


def picard_fuchs_residual(annuli) -> dict:
    """Quadrature derivatives of (I_0, I_2) against the system-matrix action."""
    worst = 0.0
    for annulus in annuli:
        hs = _grid_for(annulus, 50)
        grid = oval_integrals([(0, 1), (2, 1), (0, -1), (2, -1)], hs, annulus).tolist()
        for h, i0, i2, d0, d2 in zip(hs, *grid):
            p0, p2 = derivative_pair(h, i0, i2)
            worst = max(worst,
                        abs(d0 - p0) / (1.0 + abs(d0)),
                        abs(d2 - p2) / (1.0 + abs(d2)))
    return {"check": "picard-fuchs-residual", "worst": worst, "tol": 1e-8,
            "ok": worst <= 1e-8, "detail": {"points": 50 * len(annuli)}}


def moment_reduction(annuli) -> dict:
    """I_4, I_6 and their derivatives against the rank-two reductions."""
    worst = 0.0
    for annulus in annuli:
        hs = _grid_for(annulus, 12)
        grid = oval_integrals([(0, 1), (1, 1), (2, 1), (4, 1), (6, 1), (2, -1), (4, -1), (6, -1)],
                              hs, annulus).tolist()
        for h, i0, i1, i2, i4, i6, d2, d4, d6 in zip(hs.tolist(), *grid):
            den = 4.0 * h + 1.0
            pairs = [
                (i4, reduce_moment(4, h, (i0, i1, i2))),
                (i6, reduce_moment(6, h, (i0, i1, i2))),
                (d2, (5.0 * i2 - i0) / den),
                (d4, (4.0 * h * i0 + 5.0 * i2) / den),
                (d6, (4.0 * h * i0 + (12.0 * h + 8.0) * i2) / den),
            ]
            for direct, reduced in pairs:
                worst = max(worst, abs(direct - reduced) / (1.0 + abs(direct)))
    return {"check": "moment-reduction", "worst": worst, "tol": 1e-8,
            "ok": worst <= 1e-8, "detail": {"moments": [4, 6], "derivatives": [2, 4, 6]}}


def picard_fuchs_matrix(annuli) -> dict:
    """Transport from the base point, all levels in one lock-step, against quadrature."""
    levels = [(annulus, h) for annulus in annuli for h in _grid_for(annulus, 6)]
    ends = continue_paths([[BASE_POINTS[annulus], h] for annulus, h in levels],
                          [annulus for annulus, _ in levels])
    quad = [pair for annulus in annuli for pair in zip(*oval_integrals(
        [(0, 1), (2, 1)], _grid_for(annulus, 6), annulus).tolist())]
    worst = 0.0
    for (i0t, _, i2t), (i0q, i2q) in zip(ends, quad):
        worst = max(worst, abs(i0t.real - i0q) / (1.0 + abs(i0q)),
                    abs(i2t.real - i2q) / (1.0 + abs(i2q)))
    return {"check": "picard-fuchs-matrix", "worst": worst, "tol": 1e-8,
            "ok": worst <= 1e-8, "detail": {"levels_per_annulus": 6}}


def linear_moment(annuli) -> dict:
    """The odd moment is exactly linear: s (4h+1) inside, identically 0 outside."""
    hs = np.linspace(-0.245, -0.005, 20)
    detail: dict = {}
    worst = 0.0
    for annulus in (Annulus.INTERIOR_RIGHT, Annulus.INTERIOR_LEFT):
        vals = oval_integrals([(1, 1)], hs, annulus)[0]
        coef = np.polyfit(hs, vals, 1)
        resid = float(np.max(np.abs(np.polyval(coef, hs) - vals)))
        root = -coef[1] / coef[0]
        detail[annulus.value] = {"fit_residual": resid, "root": float(root),
                                 "root_dev": abs(root + 0.25)}
        worst = max(worst, resid / 1e-9, abs(root + 0.25) / 1e-6)
    ext = float(np.max(np.abs(oval_integrals([(1, 1)], np.geomspace(1e-3, 10.0, 20),
                                             Annulus.EXTERIOR))))
    detail["exterior"] = {"max_abs": ext}
    worst = max(worst, ext / 1e-10)
    return {"check": "linear-moment", "worst": worst, "tol": 1.0,
            "ok": worst <= 1.0, "detail": detail}


def saddle_asymptotics(annuli) -> dict:
    """Saddle-side constants and log coefficients, exterior growth exponent."""
    i0c, i2c = saddle_constants()
    a1, a2 = saddle_log_fit()
    slope = exterior_slope()[0]
    i0_err, i2_err, slope_err = i0c - 4.0 / 3.0, i2c - 16.0 / 15.0, slope - 0.75
    log_errs = (a1 + 1.0, a2 - 0.375)
    # four limits, so worst is reported on a common scale where 1.0 is the limit
    measured = [(i0_err, 1e-6, f"I_0 saddle constant off by {i0_err:.3g}"),
                (i2_err, 1e-6, f"I_2 saddle constant off by {i2_err:.3g}"),
                (max(abs(e) for e in log_errs), 1e-4, f"I_0 log coefficients off by {log_errs}"),
                (slope_err, 1e-3, f"exterior growth exponent off by {slope_err:.3g}")]
    failures = [failure for err, limit, failure in measured if abs(err) > limit]
    worst = max(abs(err) / limit for err, limit, _ in measured)
    return {"check": "saddle-asymptotics", "worst": worst, "tol": 1.0,
            "ok": not failures,
            "detail": {"i0_const": i0c, "i2_const": i2c, "log_coeffs": [a1, a2],
                       "exterior_slope": slope, "failures": failures}}


def area_nonvanishing(annuli) -> dict:
    """I_0 and I_0' bounded away from zero over the exterior cut disc."""
    min_i0, min_d0, rows = nonvanishing_grid()
    worst = min(min_i0, min_d0)
    return {"check": "area-nonvanishing", "worst": worst, "tol": 1e-6,
            "ok": worst > 1e-6,
            "detail": {"min_i0_normalized": min_i0, "min_di0_normalized": min_d0,
                       "grid_points": len(rows)}}


def wronskian_jump(annuli) -> dict:
    """W/(h(4h+1)) constant on each cut segment, doubling across h = -1/4."""
    hs = np.concatenate((np.linspace(-2.0, -0.35, 8), np.linspace(-0.2, -0.05, 8)))
    ratios = np.array([w / (h * (4.0 * h + 1.0)) for h, w in zip(hs, wronskian_cut(hs))])
    means = []
    const_dev = 0.0
    for vals in (ratios[:8], ratios[8:]):  # the two cut segments
        mean = vals.mean()
        const_dev = max(const_dev, float(np.max(np.abs(vals - mean)) / abs(mean)))
        means.append(mean)
    jump = means[1] / means[0]
    jump_dev = abs(jump - 2.0)
    # two tolerances, reported on a common scale where 1.0 is the limit
    worst = max(const_dev / 1e-6, jump_dev / 0.02)
    return {"check": "wronskian-jump", "worst": worst, "tol": 1.0,
            "ok": worst <= 1.0,
            "detail": {"segment_constants_im": [m.imag for m in means],
                       "constancy_dev": const_dev, "jump": {"re": jump.real, "im": jump.imag},
                       "jump_dev": jump_dev}}


CHECKS = (
    picard_fuchs_residual,
    moment_reduction,
    picard_fuchs_matrix,
    linear_moment,
    saddle_asymptotics,
    area_nonvanishing,
    wronskian_jump,
)
