"""Real root isolation and complex zero-count certificates.

The number of zeros of an analytic function inside the cut disc

    D_R = {|h| < R}  minus  (branch-cut neighborhood + puncture at h = 0)

equals, by the argument principle, the winding of the function's argument
around the boundary of D_R.  This module builds that boundary as a keyhole
polyline (big circle, two cut sides at height eta, small polygon around the
puncture) and counts zeros of any bifurcation form by sampling its phase
along it with adaptive refinement.  Every period value, on the loop and on
the real scan, is the closed form abelian.closed_form; no Picard-Fuchs
transport runs here.

Every form is p0 I_0 + p1 I_1 + p2 I_2 with polynomials p_k that carry the
parameters, and the levels where the periods are read do not depend on the
parameters.  So the periods are evaluated once and cached: the contour
table holds the loop and the periods at its initial samples, and the real
scan holds its grid, the 9-point window around each grid point
and the periods at all of those points.  A draw then only evaluates its
polynomials against cached values; the bisection midpoints of the phase
refinement and the steps of root polishing are the only periods evaluated
per draw.  Each period value is computed point by point, so a value read
from the cache is the same float a fresh evaluation at that point returns,
and the certificates do not depend on the cache.  The cached arrays are
read-only.

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

import dataclasses
import enum
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .abelian import MIN_CLEARANCE, RealPeriodTable, closed_form
from .geometry import Annulus
from .melnikov import (
    MelnikovForm,
    PerturbationParams,
    enforce_m1_zero,
    m1_form,
    m2_form,
    pole_cleared_eval,
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
    "circle_argument",
]

# Zero-count ceilings per (order, annulus) for the one-parameter cubic
# deformation, as certified by the winding computation below.
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
_INTEGRALITY_TOL = 0.1   # max deviation of the phase sum from an integer turn
_CLOSURE_TOL = 1e-8      # relative mismatch of the counting function at the loop ends
_MAX_REFINE = 40
_MAX_SAMPLES = 300_000
_DEGENERATE_TOL = 1e-14
_ROOT_XTOL = 1e-12       # bracket width of a polished real root
_N_SCAN = 512            # real-scan grid points
_SCAN_CACHE_SIZE = 32    # intervals whose scan windows and periods stay cached


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
    the physical interval; suspect_roots are near-tangencies flagged by the
    local-minimum heuristic but not counted.  winding is the certified
    complex zero count in D_R, to be compared against bound.  closure_error
    compares the counting function at the two ends of the loop, which are
    the same level; with closed-form periods it reads 0.
    """

    annulus: Annulus
    order: int
    real_roots: tuple
    suspect_roots: tuple
    winding: int
    bound: int
    contour: tuple
    status: Status
    phase_defect: float
    closure_error: float
    n_samples: int

    def as_record(self) -> dict:
        return {
            "annulus": self.annulus.value,
            "order": self.order,
            "real_roots": [[float(r), float(w)] for r, w in self.real_roots],
            "suspect_roots": [float(r) for r in self.suspect_roots],
            "winding": self.winding,
            "bound": self.bound,
            "contour": {"R": self.contour[0], "eta": self.contour[1],
                        "rho": self.contour[2]},
            "status": self.status.value,
            "phase_defect": self.phase_defect,
            "closure_error": self.closure_error,
            "n_samples": self.n_samples,
            "tolerances": {"integrality": _INTEGRALITY_TOL,
                           "closure": _CLOSURE_TOL},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_record(), sort_keys=True)


# ---------------------------------------------------------------------------
# keyhole contour construction and caching
# ---------------------------------------------------------------------------


@dataclass
class ContourTable:
    """One keyhole boundary and its periods, reusable across parameter draws.

    The loop polyline is parameterized by s in [0, len(vertices) - 1];
    segment k covers [k, k+1] linearly.  values_at maps s to its level h on
    the polyline and evaluates the closed-form periods there, point by
    point.  init_values caches values_at(s_init), the periods at the initial
    samples, which do not depend on the parameters; they are the floats a
    per-draw evaluation would return.  vertices, s_init and init_values are
    read-only: every later draw reads them.
    """

    annulus: Annulus
    R: float
    eta: float
    rho: float
    vertices: np.ndarray  # closed loop, first == last
    s_circle: tuple       # parameter sub-range of the big-circle portion
    s_init: np.ndarray    # initial sample parameters over the whole loop
    init_values: tuple = dataclasses.field(init=False)  # (h, I_0, I_1, I_2) at s_init

    def __post_init__(self):
        self.init_values = tuple(_read_only(x) for x in self.values_at(self.s_init))

    def values_at(self, s):
        """(h, I_0, I_1, I_2) arrays at loop parameters s (ascending or not)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        k = np.minimum(np.floor(s).astype(int), self.vertices.size - 2)
        t = s - k
        h = (1.0 - t) * self.vertices[k] + t * self.vertices[k + 1]
        i0, i1, i2, _, _ = closed_form(h, self.annulus)
        return h, i0, i1, i2


def _validate_contour(R: float, eta: float, rho: float) -> None:
    if not R > 1.0:
        raise ValueError("contour radius R must exceed 1")
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
    if annulus is Annulus.EXTERIOR:
        # cut along (-inf, 0]; boundary starts just below the cut near 0
        start = complex(-x_rho, -eta)
        circle = np.linspace(-math.pi + thR, math.pi - thR, _N_CIRCLE + 1)
        punct = np.linspace(math.pi - th0, th0 - math.pi, _N_PUNCT + 1)
        loop = [start, complex(-x_R, -eta)]
        loop += [R * complex(math.cos(t), math.sin(t)) for t in circle[1:]]
        loop += [complex(-x_rho, eta)]
        loop += [rho_arc * complex(math.cos(t), math.sin(t)) for t in punct[1:]]
    else:
        # cut along [0, inf); boundary starts just above the cut near 0
        start = complex(x_rho, eta)
        circle = np.linspace(thR, 2.0 * math.pi - thR, _N_CIRCLE + 1)
        punct = np.linspace(-th0, th0 - 2.0 * math.pi, _N_PUNCT + 1)
        loop = [start, complex(x_R, eta)]
        loop += [R * complex(math.cos(t), math.sin(t)) for t in circle[1:]]
        loop += [complex(x_rho, -eta)]
        loop += [rho_arc * complex(math.cos(t), math.sin(t)) for t in punct[1:]]
    loop[-1] = start
    return loop


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
    """The keyhole loop of the cut disc and its periods at the initial samples (cached)."""
    key = (annulus, float(R), float(eta), float(rho))
    hit = _CONTOUR_CACHE.get(key)
    if hit is not None:
        return hit
    loop = keyhole_vertices(annulus, R, eta, rho)
    ct = ContourTable(annulus=annulus, R=float(R), eta=float(eta), rho=float(rho),
                      vertices=_read_only(np.asarray(loop)),
                      s_circle=(1.0, 1.0 + _N_CIRCLE),
                      s_init=_read_only(_initial_samples(loop)))
    _CONTOUR_CACHE[key] = ct
    return ct


# ---------------------------------------------------------------------------
# counting function evaluation and phase accumulation
# ---------------------------------------------------------------------------


def _counting_values(form: MelnikovForm, h, i0, i1, i2):
    """Normalized counting function: same zeros as the form on D_R."""
    v = pole_cleared_eval(form, h, (i0, i1, i2))
    if form.annulus is Annulus.EXTERIOR:
        v = v / i0
    return v


def _refined_phase(ct: ContourTable, form: MelnikovForm, s: np.ndarray,
                   values: tuple):
    """Sample the counting function on s, bisecting until phase steps < pi/2.

    values holds (h, I_0, I_1, I_2) at s; only the bisection midpoints are
    evaluated here.  Returns (s, values, converged).  Non-convergence signals
    a zero on or numerically touching the contour.
    """
    h, i0, i1, i2 = values
    v = _counting_values(form, h, i0, i1, i2)
    scale = float(np.max(np.abs(v)))
    if scale < _DEGENERATE_TOL * (1.0 + float(np.max(np.abs(i0)))):
        raise DegenerateFormError(
            f"counting function is identically zero on the contour "
            f"(max |value| {scale:.3g} over {s.size} samples)")
    converged = False
    for _ in range(_MAX_REFINE):
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.angle(v[1:] / v[:-1])
        bad = np.abs(steps) >= 0.5 * math.pi
        bad |= np.abs(v[1:]) < 1e-13 * scale
        bad |= np.abs(v[:-1]) < 1e-13 * scale
        idx = np.flatnonzero(bad)
        if idx.size == 0:
            converged = True
            break
        if s.size + idx.size > _MAX_SAMPLES:
            break
        s_new = 0.5 * (s[idx] + s[idx + 1])
        h, i0, i1, i2 = ct.values_at(s_new)
        v_new = _counting_values(form, h, i0, i1, i2)
        pos = np.searchsorted(s, s_new)
        s = np.insert(s, pos, s_new)
        v = np.insert(v, pos, v_new)
    return s, v, converged


def winding_count(form: MelnikovForm, R: float = 10.0, eta: float = 1e-3,
                  rho: float = 1e-3) -> ZeroCertificate:
    """Argument-principle zero count of a form over the keyhole boundary.

    The certificate's real_roots field is left empty here; certify fills it.
    Raises DegenerateFormError for a numerically zero counting function.
    """
    ct = contour_table(form.annulus, R, eta, rho)
    s, v, converged = _refined_phase(ct, form, ct.s_init, ct.init_values)
    total = float(np.sum(np.angle(v[1:] / v[:-1])))
    raw = total / (2.0 * math.pi)
    winding = int(round(raw))
    defect = abs(raw - winding)
    closure = float(np.abs(v[-1] - v[0]) / np.max(np.abs(v)))
    bound = BOUNDS[(form.order, form.annulus)]
    if not converged or defect >= _INTEGRALITY_TOL or closure > _CLOSURE_TOL \
            or winding < 0:
        status = Status.INCONCLUSIVE
    elif winding <= bound:
        status = Status.WITHIN_BOUND
    else:
        status = Status.BOUND_VIOLATED
    return ZeroCertificate(annulus=form.annulus, order=form.order,
                           real_roots=(), suspect_roots=(), winding=winding,
                           bound=bound, contour=(float(R), float(eta), float(rho)),
                           status=status, phase_defect=defect,
                           closure_error=closure, n_samples=int(s.size))


def circle_argument(form: MelnikovForm) -> float:
    """Argument increase (radians) of the form along the big circle |h| = 10.

    Growth diagnostic: a form dominated by h^p times the leading period
    growth accumulates about 2 pi (p + growth exponent) here.  Interior
    forms are measured raw, exterior ones with the same normalization the
    winding uses.
    """
    ct = contour_table(form.annulus)
    lo, hi = ct.s_circle
    on_circle = (ct.s_init >= lo) & (ct.s_init <= hi)
    s, v, converged = _refined_phase(ct, form, ct.s_init[on_circle],
                                     tuple(x[on_circle] for x in ct.init_values))
    if not converged:
        raise DegenerateFormError("phase refinement failed on the circle")
    return float(np.sum(np.angle(v[1:] / v[:-1])))


# ---------------------------------------------------------------------------
# real-axis root isolation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _scan_windows(a: float, b: float, n_scan: int):
    """The scan grid on [a, b] and the 9-point window over each grid point.

    Row i of windows spans grid points i-1 .. i+1 (clipped at the ends); it
    is where the scan densifies when sample i is small.  Read-only.
    """
    h = np.linspace(a, b, n_scan)
    windows = np.array([np.linspace(h[max(i - 1, 0)], h[min(i + 1, n_scan - 1)], 9)
                        for i in range(n_scan)])
    return _read_only(h), _read_only(windows)


def _suspect_roots(h, mag, sign, scale: float) -> list:
    """Interior local minima of |fn| below 1e-6 scale without a sign change."""
    m = mag[1:-1]
    hit = ((m < 1e-6 * scale) & (m <= mag[:-2]) & (m <= mag[2:])
           & (sign[:-2] == sign[2:]) & (sign[1:-1] == sign[:-2]))
    return [float(x) for x in h[1:-1][hit]]


def real_zeros(fn, interval, n_scan: int = _N_SCAN):
    """Bracketing root scan on a real interval.

    fn must accept a float ndarray and return values; sign changes of the
    real part are polished by bisection to width 1e-12 and returned as
    (location, width) pairs.  Local minima of |fn| below 1e-6 of the scan
    scale without a sign change are returned separately as suspects (the
    even-multiplicity heuristic); they are flagged, never counted.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError(f"empty scan interval ({a}, {b})")
    h, windows = _scan_windows(a, b, n_scan)
    v = np.real(np.asarray(fn(h)))
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return [], []
    # densify 4x around small-magnitude samples to catch close root pairs
    small = np.flatnonzero(np.abs(v) < 0.05 * scale)
    if small.size:
        h = np.unique(np.concatenate([h, windows[small].ravel()]))
        v = np.real(np.asarray(fn(h)))

    def scalar(x):
        return float(np.real(np.asarray(fn(np.array([x]))))[0])

    roots = []
    sign = np.sign(v)
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        r = brentq(scalar, h[i], h[i + 1], xtol=_ROOT_XTOL)
        roots.append((float(r), _ROOT_XTOL))
    for i in np.flatnonzero(sign == 0):
        roots.append((float(h[i]), 0.0))
    return roots, _suspect_roots(h, np.abs(v), sign, scale)


@lru_cache(maxsize=None)
def _real_table(annulus: Annulus) -> RealPeriodTable:
    return RealPeriodTable(annulus)


@lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _scan_values(annulus: Annulus, a: float, b: float, n_scan: int):
    """Every level the real scan of [a, b] can sample before root polishing,
    sorted, and (I_0, I_1, I_2) there.  Read-only.

    RealPeriodTable.values evaluates point by point, so these are the floats
    a per-draw evaluation of the same levels returns.
    """
    h, windows = _scan_windows(a, b, n_scan)
    points = np.unique(np.concatenate([h, windows.ravel()]))
    periods = _real_table(annulus).values(points)
    return _read_only(points), tuple(_read_only(x) for x in periods)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def _degenerate_certificate(form: MelnikovForm, R, eta, rho) -> ZeroCertificate:
    return ZeroCertificate(annulus=form.annulus, order=form.order,
                           real_roots=(), suspect_roots=(), winding=0,
                           bound=BOUNDS[(form.order, form.annulus)],
                           contour=(float(R), float(eta), float(rho)),
                           status=Status.DEGENERATE, phase_defect=0.0,
                           closure_error=0.0, n_samples=0)


def certify(params: PerturbationParams, order: int, annulus: Annulus,
            R: float = 10.0, eta: float = 1e-3, rho: float = 1e-3) -> ZeroCertificate:
    """Full zero-count certificate for one parameter draw.

    Combines the keyhole winding with a real-root scan over the physical
    interval clipped to D_R (endpoints offset from the critical levels and
    the puncture).  An identically-zero form yields a degenerate-status
    certificate rather than an error.
    """
    if order == 1:
        form = m1_form(params, annulus)
    elif order == 2:
        form = m2_form(params, annulus)
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    try:
        cert = winding_count(form, R, eta, rho)
    except DegenerateFormError:
        return _degenerate_certificate(form, R, eta, rho)
    table = _real_table(annulus)
    rho_arc = rho / math.cos(math.pi / _N_PUNCT)
    if annulus is Annulus.EXTERIOR:
        interval = (1.01 * rho_arc, min(R, table.h_max) * (1.0 - 1e-9))
    else:
        interval = (-0.25 + 1e-6, -1.01 * rho_arc)
    points, cached = _scan_values(annulus, *interval, _N_SCAN)

    def fn(arr):
        # cached scan levels are looked up; root polishing evaluates afresh
        idx = np.minimum(np.searchsorted(points, arr), points.size - 1)
        i0, i1, i2 = (c[idx] for c in cached)
        miss = points[idx] != arr
        if miss.any():
            for out, fresh in zip((i0, i1, i2), table.values(arr[miss])):
                out[miss] = fresh
        return _counting_values(form, arr, i0, i1, i2)

    roots, suspects = real_zeros(fn, interval)
    status = cert.status
    if status is Status.WITHIN_BOUND and len(roots) > cert.winding:
        status = Status.INCONCLUSIVE
    return dataclasses.replace(cert, real_roots=tuple(roots),
                               suspect_roots=tuple(suspects), status=status)


def bound_census(order: int, annulus: Annulus, n_draws: int = 200,
                 seed: int = 0, R: float = 10.0, eta: float = 1e-3,
                 rho: float = 1e-3):
    """Certify a batch of seeded random draws; returns (certificates, summary).

    Coefficients are drawn uniform on [-1, 1].  Second-order draws pass
    through the first-order vanishing constraints before certification,
    mirroring how the second-order function becomes the leading
    displacement term.
    """
    rng = np.random.default_rng(seed)
    certs = []
    for _ in range(n_draws):
        p = PerturbationParams.uniform(rng)
        if order == 2:
            p = enforce_m1_zero(p, annulus)
        certs.append(certify(p, order, annulus, R, eta, rho))
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
