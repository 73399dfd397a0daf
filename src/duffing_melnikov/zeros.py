"""Real root isolation and complex zero-count certificates.

The number of zeros of an analytic function inside the cut disc

    D_R = {|h| < R}  minus  (branch-cut neighborhood + puncture at h = 0)

equals, by the argument principle, the winding of the function's argument
around the boundary of D_R.  This module builds that boundary as a keyhole
polyline (big circle, two cut sides at height eta, small polygon around the
puncture) and counts zeros of any bifurcation form by sampling its phase
along it with adaptive refinement.  The loop starts and ends on one level,
so the principal phase steps of a converged refinement sum to a whole
number of turns up to rounding, and the winding is that sum rounded.
Every period value, on the loop and on the real scan, is the closed form
abelian.closed_form; no Picard-Fuchs transport runs here.

Every form is p0 I_0 + p1 I_1 + p2 I_2 with polynomials p_k that carry the
parameters, and the levels where the periods are read do not depend on the
parameters.  So the periods are evaluated once per contour and cached in
its one ContourTable: the keyhole loop with the periods at its initial
samples, and the real scan of the physical interval, its grid refined 4x
into one linspace and the periods at all of its levels.

Forms are certified in blocks: bound_census certifies all its draws as one
block, and certify and winding_count are blocks of one; real_zeros runs
the real scan on one function.
Per block, the counting functions of all forms are evaluated in one
broadcast pass at every cached keyhole sample and scan grid level, then at
the cached quarter levels each form's scan picks next to its small grid
samples, one coefficient row per form, in numpy's polyval operation order.
Phase refinement then runs in lock-step, with one period evaluation per
round for the bisection midpoints of every form, each the mean of its
step's two end levels; the two halves of each bisected step replace it in
its form's phase sum and keep the small-value limit of its initial step.
Every sign change of the block is polished at once by a lock-step copy of
scipy's brentq iteration, with one period evaluation per step.  Those
midpoints and steps are the only periods evaluated per block.
Each certificate is then built once, with its final status.  Each value is
computed point by point and form by form, so a value read from the table or
computed in a block is the same float a single evaluation returns, and a
certificate depends neither on the table nor on the rest of its block.  The
table's arrays are read-only.

Counting normalizations.  Interior forms are counted as they stand.  On the
exterior annulus the first-order form is divided by I_0 and the second-order
form is evaluated pole-cleared, (4h+1) M_2, and divided by I_0: the
prefactor removes the simple pole at h = -1/4 (which lies on the cut, not
in D_R) and the division by the nonvanishing I_0 subtracts no zeros while
taming the growth along the circle.  Either way the winding equals the zero
count of the form itself on D_R.

Every interior form vanishes at h = -1/4, where the whole period basis
shrinks with the oval; certificates on the interior lobes therefore report
winding >= 1 for generic parameters, and the stated bounds include that
forced zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .abelian import MIN_CLEARANCE, RealPeriodTable, closed_form
from .geometry import Annulus
from .melnikov import (
    MelnikovForm,
    PerturbationParams,
    enforce_m1_zero,
    m1_form,
    m2_form,
    pole_cleared_rows,
)

__all__ = [
    "BOUNDS",
    "Status",
    "DegenerateFormError",
    "ZeroCertificate",
    "real_zeros",
    "winding_count",
    "certify",
    "bound_census",
]

# Zero-count ceilings per (order, annulus) for the one-parameter cubic
# deformation, as certified by the winding computation below.  The rotation
# (x, y) -> (-x, -y) maps the left lobe onto the right one: the interior-left
# certificate of p is, record for record, the interior-right certificate of p
# with each coefficient of x^i y^j times -(-1)^(i+j) (at order 2 with
# enforce_m1_zero applied on each side).  So the order-2 interior-left class,
# which the acceptance census skips, is covered by order-2 interior-right.
BOUNDS = {
    (1, Annulus.INTERIOR_LEFT): 3,
    (1, Annulus.INTERIOR_RIGHT): 3,
    (1, Annulus.EXTERIOR): 2,
    (2, Annulus.INTERIOR_LEFT): 4,
    (2, Annulus.INTERIOR_RIGHT): 4,
    (2, Annulus.EXTERIOR): 4,
}

_N_CIRCLE = 256          # polygon edges on the big circle
_N_PUNCT = 64            # polygon edges around the puncture
_N_SLIT = 160            # log-spaced samples per cut side
_MAX_REFINE = 40
_MAX_SAMPLES = 300_000
_DEGENERATE_TOL = 1e-14
_ROOT_XTOL = 1e-12       # bracket width of a polished real root
_N_SCAN = 512            # real-scan grid points


class Status(enum.Enum):
    WITHIN_BOUND = "within-bound"
    BOUND_VIOLATED = "bound-violated"
    INCONCLUSIVE = "inconclusive"
    DEGENERATE = "degenerate"


class DegenerateFormError(ValueError):
    """The counting function is numerically identically zero."""


@dataclass(frozen=True)
class ZeroCertificate:
    """Outcome of one argument-principle zero count plus a real-root scan.

    real_roots holds (location, bracket width) pairs from sign changes on
    the physical interval, in ascending order; winding is the certified
    complex zero count in D_R, to be compared against bound, and counts a
    double real zero twice though real_roots lists none: it is the phase sum
    around the loop in whole turns.  A degenerate certificate lists no roots
    and reads 0 in every count.
    """

    annulus: Annulus
    order: int
    real_roots: tuple
    winding: int
    bound: int
    contour: tuple
    status: Status
    n_samples: int

    def as_record(self) -> dict:
        return {
            "annulus": self.annulus.value,
            "order": self.order,
            "real_roots": [[float(r), float(w)] for r, w in self.real_roots],
            "winding": self.winding,
            "bound": self.bound,
            "contour": {"R": self.contour[0], "eta": self.contour[1],
                        "rho": self.contour[2]},
            "status": self.status.value,
            "n_samples": self.n_samples,
        }


# ---------------------------------------------------------------------------
# keyhole contour construction and caching
# ---------------------------------------------------------------------------


@dataclass
class ContourTable:
    """Everything a certificate on one contour reads that no parameter changes.

    The keyhole loop is a polyline parameterized by s in [0, n], n =
    len(vertices) - 1; segment k covers [k, k+1] linearly.  s_init only
    seeds the initial samples: init_values holds their levels h on the
    polyline and the closed-form periods there, point by point.  scan, built
    by the first certification, holds the real scan of the physical interval
    clipped to the contour: its one array of levels as _scan_levels gives
    it, the grid refined 4x, and (I_0, I_1, I_2) there.  Every cached value
    is the float a per-draw evaluation would return, and every cached array
    is read-only: every later draw reads them.
    """

    annulus: Annulus
    R: float
    eta: float
    rho: float
    vertices: np.ndarray  # closed loop, first == last
    s_init: np.ndarray    # initial sample parameters over the whole loop
    init_values: tuple = field(init=False)  # (h, I_0, I_1, I_2) at s_init

    def __post_init__(self):
        k = np.minimum(np.floor(self.s_init).astype(int), self.vertices.size - 2)
        t = self.s_init - k
        h = (1.0 - t) * self.vertices[k] + t * self.vertices[k + 1]
        self.init_values = tuple(_read_only(x) for x in (h, *closed_form(h, self.annulus)[:3]))

    @cached_property
    def scan(self) -> tuple:
        """(_scan_levels of the real scan, (I_0, I_1, I_2) at its levels)."""
        levels = _scan_levels(*_scan_interval(self.annulus, self.R, self.rho), _N_SCAN)
        periods = closed_form(levels, self.annulus)[:3]
        return levels, tuple(_read_only(x) for x in periods)


def _validate_contour(R: float, eta: float, rho: float) -> None:
    if not (math.isfinite(R * R) and R > 1.0):  # keyhole_vertices squares R
        raise ValueError(f"contour radius R must be finite, with a finite square, "
                         f"and exceed 1, got {R}")
    if not (MIN_CLEARANCE <= rho <= 1e-2):
        raise ValueError(f"puncture radius rho must lie in [{MIN_CLEARANCE}, 1e-2]")
    if not (MIN_CLEARANCE <= eta <= 1e-2):
        raise ValueError(f"cut offset eta must lie in [{MIN_CLEARANCE}, 1e-2]")
    if eta > rho:
        raise ValueError("cut offset eta must not exceed the puncture radius rho")


def keyhole_vertices(annulus: Annulus, R: float = 10.0, eta: float = 1e-3,
                     rho: float = 1e-3):
    """Closed keyhole boundary of the cut disc.

    Lists the boundary vertices counterclockwise around D_R, first == last,
    starting on a cut side next to the puncture.  The puncture polygon is
    circumscribed (vertex radius rho/cos(pi/n)), so its chords keep
    distance >= rho from the origin.
    """
    _validate_contour(R, eta, rho)
    rho_arc = rho / math.cos(math.pi / _N_PUNCT)
    x_rho = math.sqrt(rho_arc ** 2 - eta ** 2)
    x_R = math.sqrt(R ** 2 - eta ** 2)
    th0 = math.asin(eta / rho_arc)
    thR = math.asin(eta / R)
    # interior cut along [0, inf); boundary starts just above the cut near 0
    start = complex(x_rho, eta)
    circle = np.linspace(thR, 2.0 * math.pi - thR, _N_CIRCLE + 1)
    punct = np.linspace(-th0, th0 - 2.0 * math.pi, _N_PUNCT + 1)
    loop = [start, complex(x_R, eta)]
    loop += [R * complex(math.cos(t), math.sin(t)) for t in circle[1:]]
    loop += [complex(x_rho, -eta)]
    loop += [rho_arc * complex(math.cos(t), math.sin(t)) for t in punct[1:]]
    loop[-1] = start
    # the exterior cut is (-inf, 0]: its loop is this one turned by pi (negation is exact)
    return [-z for z in loop] if annulus is Annulus.EXTERIOR else loop


def _initial_samples(loop) -> np.ndarray:
    """Vertex + midpoint samples, densified log-toward-origin on the cut sides."""
    n_loop = len(loop) - 1
    samples = [np.arange(n_loop + 1, dtype=float), np.arange(n_loop) + 0.5]
    for k in (0, 1 + _N_CIRCLE):  # the two cut-side segments
        a, b = loop[k].real, loop[k + 1].real
        x = np.geomspace(abs(a), abs(b), _N_SLIT) * math.copysign(1.0, a)
        t = np.clip((x - a) / (b - a), 0.0, 1.0)
        samples.append(k + t)
    return np.unique(np.concatenate(samples))


_CONTOUR_CACHE: dict = {}


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def contour_table(annulus: Annulus, R: float = 10.0, eta: float = 1e-3,
                  rho: float = 1e-3) -> ContourTable:
    """The one cached table of a contour: its keyhole loop and real scan, with their periods."""
    key = (annulus, float(R), float(eta), float(rho))
    hit = _CONTOUR_CACHE.get(key)
    if hit is not None:
        return hit
    loop = keyhole_vertices(annulus, R, eta, rho)
    ct = ContourTable(annulus=annulus, R=float(R), eta=float(eta), rho=float(rho),
                      vertices=_read_only(np.asarray(loop)),
                      s_init=_read_only(_initial_samples(loop)))
    _CONTOUR_CACHE[key] = ct
    return ct


# ---------------------------------------------------------------------------
# counting functions of a block of forms and lock-step phase refinement
# ---------------------------------------------------------------------------


def _check_order(order: int) -> None:
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")


def _form_of(params: PerturbationParams, order: int, annulus: Annulus) -> MelnikovForm:
    _check_order(order)
    return m1_form(params, annulus) if order == 1 else m2_form(params, annulus)


def _coeff_rows(forms) -> tuple:
    """MelnikovForm.coeff_arrays of equal-shaped forms, one row per form."""
    return tuple(np.array(rows) for rows in zip(*(f.coeff_arrays() for f in forms)))


def _counting_rows(coeffs, exterior: bool, h, i0, i1, i2):
    """Normalized counting functions: same zeros as the forms on D_R."""
    v = pole_cleared_rows(coeffs, h, (i0, i1, i2))
    if exterior:
        v = v / i0
    return v


@dataclass(frozen=True)
class _Phases:
    """Per-form outcome of a lock-step phase refinement, arrays over the block."""

    degenerate: np.ndarray  # numerically zero counting functions: unrefined, 0 in each field below
    converged: np.ndarray
    total: np.ndarray       # sum of the phase steps over the refined samples
    n_samples: np.ndarray


def _phase_steps_fail(vl, vr, limit):
    """Phase steps from vl to vr that need bisection: >= pi/2 or an end below limit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.angle(vr / vl)
    return steps, (np.abs(steps) >= 0.5 * math.pi) | (np.abs(vr) < limit) | (np.abs(vl) < limit)


def _phase_block(ct: ContourTable, coeffs: tuple) -> _Phases:
    """Sample every form's counting function on the loop until phase steps < pi/2.

    coeffs holds the coefficient rows of the forms; sampling starts at the
    table's initial samples.  All forms refine in lock-step: each round
    bisects the failing steps of every form at the mean of their end levels,
    with one period evaluation, and the two halves replace the step in its
    form's phase sum.  A step fails at a phase change of pi/2 or more, or
    with an end below 1e-13 times the larger |v| at the ends of the initial
    step it comes from, a limit its halves inherit; so the limit follows the
    counting function's growth along the loop.  A passed step stays passed,
    so each round tests only the halves of the steps it bisected.
    Non-convergence signals a zero on or numerically touching the contour.
    """
    exterior = ct.annulus is Annulus.EXTERIOR
    h, i0, i1, i2 = ct.init_values
    v = _counting_rows(tuple(c[:, None, :] for c in coeffs), exterior, h, i0, i1, i2)
    n = v.shape[0]
    mag = np.abs(v)
    scale = np.max(mag, axis=1)
    # zero to within rounding, in the counting function's units (I_0 / I_0 = 1 on the exterior)
    degenerate = scale < _DEGENERATE_TOL * (1.0 + (1.0 if exterior else float(np.max(np.abs(i0)))))
    limit = 1e-13 * np.maximum(mag[:, :-1], mag[:, 1:])
    del mag  # one full-size array fewer while the steps are formed: fewer page faults
    steps, fail = _phase_steps_fail(v[:, :-1], v[:, 1:], limit)
    fail[degenerate] = False
    rows, k = np.nonzero(fail)
    hl, vl, hr, vr, step, lim = (h[k], v[rows, k], h[k + 1], v[rows, k + 1], steps[rows, k],
                                 limit[rows, k])
    total = np.where(degenerate, 0.0, np.sum(steps, axis=1))
    n_samples = np.where(degenerate, 0, h.size)
    active = ~degenerate
    converged = np.zeros(n, dtype=bool)
    for _ in range(_MAX_REFINE):
        count = np.bincount(rows, minlength=n)
        converged |= active & (count == 0)
        active &= (count > 0) & (n_samples + count <= _MAX_SAMPLES)
        keep = active[rows]
        rows, hl, vl, hr, vr, step, lim = (x[keep] for x in (rows, hl, vl, hr, vr, step, lim))
        if rows.size == 0:
            break
        hm = 0.5 * (hl + hr)
        vm = _counting_rows(tuple(c[rows] for c in coeffs), exterior, hm,
                            *closed_form(hm, ct.annulus)[:3])
        n_samples += np.bincount(rows, minlength=n)
        # the two halves of every bisected step replace it in the phase sum;
        # the failing ones go on
        m = rows.size
        rows, lim = np.concatenate([rows, rows]), np.concatenate([lim, lim])
        hl, vl = np.concatenate([hl, hm]), np.concatenate([vl, vm])
        hr, vr = np.concatenate([hm, hr]), np.concatenate([vm, vr])
        halves, fail = _phase_steps_fail(vl, vr, lim)
        np.add.at(total, rows[:m], halves[:m] + halves[m:] - step)
        rows, hl, vl, hr, vr, step, lim = (x[fail] for x in (rows, hl, vl, hr, vr, halves, lim))
    return _Phases(degenerate=degenerate, converged=converged, total=total,
                   n_samples=n_samples)


# ---------------------------------------------------------------------------
# real-axis root isolation
# ---------------------------------------------------------------------------


def _scan_levels(a: float, b: float, n_scan: int) -> np.ndarray:
    """Every level the real scan of [a, b] can sample before root polishing.

    The n_scan-point grid refined 4x, np.linspace(a, b, 4 n_scan - 3): every
    fourth level is np.linspace(a, b, n_scan), bit for bit, and the three
    levels between two grid points are where the scan densifies when either
    is small.  Read-only.
    """
    return _read_only(np.linspace(a, b, 4 * n_scan - 3))


_BRENT_RTOL = 4.0 * np.finfo(float).eps  # scipy.optimize.brentq's default and least rtol
_BRENT_MAXITER = 100                      # scipy.optimize.brentq's default


def _nan_check(x, fx) -> None:
    bad = np.flatnonzero(np.isnan(fx))
    if bad.size:
        raise ValueError(f"The function value at x={float(x[bad[0]])} is NaN; "
                         "solver cannot continue.")


def _brentq(f, a, b, fa, fb, xtol: float = _ROOT_XTOL) -> np.ndarray:
    """Roots of many brackets at once by scipy.optimize.brentq's iteration.

    f(x, k) returns the values at x of the functions of brackets k; fa and
    fb are the values at the bracket ends a and b.  Every bracket takes, in
    lock-step with the others, the steps scipy's brentq takes on it (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4): the same
    xtol, rtol = 4 eps, branch tests and 100-iteration limit, so each root is
    the float brentq returns.  Raises brentq's errors: ValueError for a NaN
    value or a bracket without a sign change, RuntimeError for a bracket
    that does not converge.
    """
    a, b, fa, fb = (np.asarray(z, dtype=float) for z in (a, b, fa, fb))
    _nan_check(a, fa)
    _nan_check(b, fb)
    root = np.where(fa == 0, a, b)
    live = np.flatnonzero((fa != 0) & (fb != 0))
    xpre, xcur, fpre, fcur = a[live], b[live], fa[live], fb[live]
    if np.any(np.signbit(fpre) == np.signbit(fcur)):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = np.zeros(live.size)
    for _ in range(_BRENT_MAXITER):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (xtol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[live[done]] = xcur[done]
        go = ~done
        live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
            z[go] for z in (live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                            delta, sbis))
        if live.size == 0:
            return root
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # inverse quadratic extrapolation, or the secant step where xpre == xblk
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
        lim = 3 * np.abs(sbis) - delta
        good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < np.where(np.abs(spre) < lim, np.abs(spre), lim)))
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = np.where(np.abs(scur) > delta, xcur + scur,
                        xcur + np.where(sbis > 0, delta, -delta))
        fcur = np.asarray(f(xcur, live), dtype=float)
        _nan_check(xcur, fcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def _scan_block(n_fns: int, levels: np.ndarray, at_levels, evaluate) -> list:
    """Bracketing root scans of n_fns real functions at once.

    levels is a _scan_levels result, and at_levels(r, i) returns functions r
    at its levels i.  Each scan evaluates the grid, levels[::4], then the
    three levels on each side of its small grid samples (|value| below 0.05
    of the scan's largest grid value), and polishes every sign change with
    _brentq to width 1e-12; evaluate(x, r) returns functions r at levels x.
    Returns one list of roots per function, as real_zeros does.
    """
    values = np.zeros((n_fns, levels.size))
    values[:, ::4] = at_levels(np.arange(n_fns)[:, None], slice(None, None, 4))
    on_grid = np.abs(values[:, ::4])
    scale = np.max(on_grid, axis=1)
    small = on_grid < 0.05 * scale[:, None]
    pick = np.zeros(values.shape, dtype=bool)
    for k in (1, 2, 3):  # the levels between grid points j and j + 1
        pick[:, k::4] = small[:, :-1] | small[:, 1:]
    values[pick] = at_levels(*np.nonzero(pick))
    pick[:, ::4] = True
    pick[scale == 0.0] = False  # nothing to scan
    rows, cols = np.nonzero(pick)
    h, v = levels[cols], values[rows, cols]
    sign = np.sign(v)
    cross = np.flatnonzero((rows[1:] == rows[:-1]) & (sign[:-1] * sign[1:] < 0))
    owner = rows[cross]
    found = _brentq(lambda x, k: evaluate(x, owner[k]), h[cross], h[cross + 1],
                    v[cross], v[cross + 1])
    out = [[] for _ in range(n_fns)]
    for r, x in zip(owner.tolist(), found.tolist()):
        out[r].append((x, _ROOT_XTOL))
    zero = np.flatnonzero(sign == 0)
    for r, x in zip(rows[zero].tolist(), h[zero].tolist()):
        out[r].append((x, 0.0))
    for roots in out:
        roots.sort()
    return out


def real_zeros(fn, interval, n_scan: int = _N_SCAN):
    """Bracketing root scan on a real interval.

    fn must accept a float ndarray and return values; sign changes of the
    real part are polished by Brent's method to width 1e-12 and returned as
    (location, width) pairs in ascending order, an exact zero at a scan
    level with width 0.0.  This is the block scan of certify with one
    function: fn is evaluated at the n_scan-point grid, then at the quarter
    levels next to its small samples, then at the polishing steps.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError(f"empty scan interval ({a}, {b})")
    levels = _scan_levels(a, b, n_scan)
    real_fn = lambda x: np.real(np.asarray(fn(x)))
    (roots,) = _scan_block(1, levels, lambda r, i: real_fn(levels[i]), lambda x, r: real_fn(x))
    return roots


def _real_table(annulus: Annulus) -> RealPeriodTable:
    return RealPeriodTable(annulus)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def _scan_interval(annulus: Annulus, R: float, rho: float) -> tuple:
    """The physical real interval clipped to D_R, offset from the critical
    levels and the puncture."""
    rho_arc = rho / math.cos(math.pi / _N_PUNCT)
    if annulus is Annulus.EXTERIOR:
        return (1.01 * rho_arc, R * (1.0 - 1e-9))
    return (-0.25 + 1e-6, -1.01 * rho_arc)


def _certify_block(forms, R: float, eta: float, rho: float) -> list:
    """Certificates of equal-shaped forms on one annulus, computed together.

    The counting functions of all forms are evaluated in broadcast passes
    at the keyhole samples and real-scan levels of the contour's table, the
    latter only where the scan reads; phase refinement, the real scan and
    root polishing then run in lock-step over the block.  A numerically zero
    counting function gets a degenerate certificate and no scan.  Each
    certificate is the one the form gets alone.
    """
    if not forms:
        return []
    order, annulus = forms[0].order, forms[0].annulus
    ct = contour_table(annulus, R, eta, rho)
    coeffs = _coeff_rows(forms)
    ph = _phase_block(ct, coeffs)
    live = np.flatnonzero(~ph.degenerate)
    levels, periods = ct.scan
    coeffs = tuple(c[live] for c in coeffs)
    exterior = annulus is Annulus.EXTERIOR

    def counting(r, x, i0, i1, i2):
        return np.real(_counting_rows(tuple(c[r] for c in coeffs), exterior, x, i0, i1, i2))

    # the scan reads the cached levels; root polishing evaluates the periods afresh
    scans = iter(_scan_block(live.size, levels,
                             lambda r, i: counting(r, levels[i], *(p[i] for p in periods)),
                             lambda x, r: counting(r, x, *closed_form(x, annulus)[:3])))
    bound = BOUNDS[(order, annulus)]
    certs = []
    for degenerate, converged, total, n_samples in zip(
            ph.degenerate.tolist(), ph.converged.tolist(), ph.total.tolist(),
            ph.n_samples.tolist()):
        roots = [] if degenerate else next(scans)
        winding = int(round(total / (2.0 * math.pi)))
        if degenerate:
            status = Status.DEGENERATE
        elif not converged or winding < 0:
            status = Status.INCONCLUSIVE
        elif winding <= bound:
            status = Status.WITHIN_BOUND if len(roots) <= winding else Status.INCONCLUSIVE
        else:
            status = Status.BOUND_VIOLATED
        certs.append(ZeroCertificate(annulus=annulus, order=order, real_roots=tuple(roots),
                                     winding=winding, bound=bound, contour=(ct.R, ct.eta, ct.rho),
                                     status=status, n_samples=n_samples))
    return certs


def certify(params: PerturbationParams, order: int, annulus: Annulus,
            R: float = 10.0, eta: float = 1e-3, rho: float = 1e-3) -> ZeroCertificate:
    """Full zero-count certificate for one parameter draw.

    Combines the keyhole winding with a real-root scan over the physical
    interval clipped to D_R (endpoints offset from the critical levels and
    the puncture).  An identically-zero form yields a degenerate-status
    certificate rather than an error.  A block of one: bound_census gives
    every draw the certificate certify gives it.
    """
    return _certify_block([_form_of(params, order, annulus)], R, eta, rho)[0]


def winding_count(form: MelnikovForm, R: float = 10.0, eta: float = 1e-3,
                  rho: float = 1e-3) -> ZeroCertificate:
    """Argument-principle zero count of a form over the keyhole boundary.

    The form's certify certificate, real-root scan included.  Raises
    DegenerateFormError for a numerically zero counting function.
    """
    cert = _certify_block([form], R, eta, rho)[0]
    if cert.status is Status.DEGENERATE:
        raise DegenerateFormError("counting function is identically zero on the contour")
    return cert


def bound_census(order: int, annulus: Annulus, n_draws: int = 200,
                 seed: int = 0, R: float = 10.0, eta: float = 1e-3,
                 rho: float = 1e-3):
    """Certify a batch of seeded random draws; returns (certificates, summary).

    Coefficients are drawn uniform on [-1, 1].  Second-order draws pass
    through the first-order vanishing constraints before certification,
    mirroring how the second-order function becomes the leading
    displacement term.  All draws are certified as one block.
    """
    _check_order(order)
    if n_draws < 0:
        raise ValueError(f"number of draws must be non-negative, got {n_draws}")
    rng = np.random.default_rng(seed)
    draws = [PerturbationParams.uniform(rng) for _ in range(n_draws)]
    if order == 2:
        draws = [enforce_m1_zero(p, annulus) for p in draws]
    certs = _certify_block([_form_of(p, order, annulus) for p in draws], R, eta, rho)
    windings = [c.winding for c in certs if c.status is not Status.DEGENERATE]
    summary = {
        "order": order,
        "annulus": annulus.value,
        "draws": n_draws,
        "seed": seed,
        "bound": BOUNDS[(order, annulus)],
        "contour": {"R": R, "eta": eta, "rho": rho},
        "max_winding": max(windings, default=0),
        "max_real_roots": max((len(c.real_roots) for c in certs), default=0),
        "status_counts": {s.value: sum(1 for c in certs if c.status is s)
                          for s in Status},
        "violations": [i for i, c in enumerate(certs)
                       if c.status is Status.BOUND_VIOLATED],
    }
    return certs, summary
