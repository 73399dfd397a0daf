"""Complete elliptic integrals over the level ovals and their continuation.

The basic objects are the oval integrals

    I_k(h) = contour integral of x^k y dx over the closed level oval at h,

taken with the orientation of the flow, so I_0(h) > 0 equals the area
enclosed by the oval.  Their h-derivatives are I_k'(h) = contour integral of
x^k / y dx; in particular I_0'(h) is the period of the orbit.

There are three routes to these values: the closed form, which every command
evaluates at run time, and two checks on it.  The tests compare all three.

Closed form: with u = x^2 every period is a complete elliptic integral in
Carlson's symmetric form, R_F(0, y, z) and R_D(0, y, z), both from one
arithmetic-geometric mean of principal roots, Gauss's right choice at real
and complex levels (_rf_rd, closed_form; DLMF 19.8(i) and 19.25), whole
level grids through the one array loop.

Quadrature: on the real annuli, the oval integrals themselves as terms of
quadrature's oval rule, whole level grids at once (oval_integrals, and
period_vector, the reference at one level); the rule owns the endpoint
substitution and the split of a pinched exterior oval.  period_vector is
memoized per level, about 0.24 KB an entry.

Transport: the pair (I_0, I_2) satisfies a first-order linear system (the
Picard-Fuchs system)

    I_0 = (4/3) h I_0' + (1/3) I_2'
    I_2 = (4/15) h I_0' + (4h/5 + 4/15) I_2'

whose inverted form

    I_0' = ((12h + 4) I_0 - 5 I_2) / (4h (4h + 1))
    I_2' = (5 I_2 - I_0) / (4h + 1)

is regular except at h = 0 and h = -1/4.  _pf_matrix is this matrix in
plain complex arithmetic, the one definition that derivative_pair and the
transport right-hand side both apply.  continue_paths, the one continuation
entry point, transports it along polylines from closed-form values at their
real first vertices, each path a lane of one lock-step DOP853, to check the
closed form; transport_table is the dense solve_ivp route tests compare with.
continue_paths (see _dop853) and closed_form load no scipy module, and
transport_table, the reference route, is the one function of this module
that imports scipy's solve_ivp (the package's other is oracle.solve_ivp, a
wrapper with no caller), when it is called.
I_1 needs neither route: on an interior lobe it is exactly linear,
I_1(h) = c (4h + 1), and it vanishes identically on the exterior annulus.

The asymptotics are measured from quadrature (saddle_constants,
saddle_log_fit, exterior_slope); checks.saddle_asymptotics holds their limits.

The natural single-valuedness domains are the cut planes C minus [0, +inf)
for the interior families and C minus (-inf, 0] for the exterior family;
the closed form is analytic there, and its values at h +- 1e-15 i are the
boundary values on the two sides of a cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Annulus, DomainError
from .quadrature import _oval_rows

__all__ = [
    "BASE_POINTS",
    "MIN_CLEARANCE",
    "PoleError",
    "PathError",
    "oval_integrals",
    "oval_integral",
    "orbit_period",
    "period_vector",
    "i1_slope",
    "reduce_moment",
    "closed_form",
    "continue_paths",
    "transport_table",
    "PathTable",
    "RealPeriodTable",
    "cut_values",
    "wronskian_cut",
    "nonvanishing_grid",
    "SADDLE_LOG_I0",
    "SADDLE_LOG_I2",
]

# Real base points for analytic continuation, far from both singular levels.
BASE_POINTS = {
    Annulus.INTERIOR_LEFT: -0.125,
    Annulus.INTERIOR_RIGHT: -0.125,
    Annulus.EXTERIOR: 1.0,
}

#: minimum distance any continuation path must keep from the singular levels
MIN_CLEARANCE = 1e-3

_POLES = (0.0, -0.25)

_TRANSPORT_RTOL = 1e-11
_TRANSPORT_ATOL = 1e-13

# Coefficients of the logarithmic part of the saddle-side expansions: for
# h -> 0- on an interior lobe,
#   I_0(h) = (analytic in h) + (-h + 3/8 h^2 - 35/64 h^3 + ...) * log|h|
#   I_2(h) = (analytic in h) + (1/2 h^2 - 5/8 h^3 + ...) * log|h|
# and the same series times 2*pi*i gives the monodromy increment around h=0.
# The coefficients are the moments of the cycle that vanishes at the saddle;
# they are validated against transport and quadrature in the test suite.
SADDLE_LOG_I0 = (0.0, -1.0, 3.0 / 8.0, -35.0 / 64.0, 1155.0 / 1024.0, -45045.0 / 16384.0)
SADDLE_LOG_I2 = (0.0, 0.0, 0.5, -5.0 / 8.0)


class PoleError(ValueError):
    """Evaluation at (or too close to) a singular level is not defined."""


class PathError(ValueError):
    """A continuation path runs too close to a singular level."""


# ---------------------------------------------------------------------------
# real-annulus evaluation by quadrature
# ---------------------------------------------------------------------------


def oval_integrals(pairs, hs, annulus: Annulus) -> np.ndarray:
    """I_k (power 1) or I_k' (power -1) for each (k, power) in pairs, one row each, at levels hs.

    I_k is the contour integral of x^k y dx, flow orientation (I_0 = area > 0):
    twice the upper-branch integral of the oval rule; I_k' has 1/y.  Each is
    its level's own float.
    """
    terms = [(lambda x, y, k=int(k): x ** k * y) if power == 1 else
             (lambda x, y, k=int(k): x ** k / y) for k, power in pairs]
    return 2.0 * _oval_rows(terms, hs, annulus)


def oval_integral(k: int, h: float, annulus: Annulus) -> float:
    """I_k(h) = contour integral of x^k y dx at one level (see oval_integrals)."""
    return float(oval_integrals([(k, 1)], [h], annulus)[0, 0])


def orbit_period(h: float, annulus: Annulus) -> float:
    """Period of the closed orbit at level h: I_0'(h), from the closed form."""
    annulus.require(h)
    return float(closed_form(h, annulus)[3])


@lru_cache(maxsize=None)
def period_vector(h: float, annulus: Annulus) -> tuple[float, float, float]:
    """(I_0, I_1, I_2) at a real level by direct quadrature, closed_form's reference; memoized.

    A level's quadrature runs once per process: a float and an np.float64 h
    of one value share an entry (about 0.24 KB).
    """
    return tuple(oval_integrals([(0, 1), (1, 1), (2, 1)], [float(h)], annulus)[:, 0].tolist())


def _base_values(annulus: Annulus) -> tuple[float, float, float]:
    """period_vector at the annulus's base point, which warms its memo."""
    return period_vector(BASE_POINTS[annulus], annulus)


def i1_slope(annulus: Annulus) -> float:
    """The constant c in I_1(h) = c (4h + 1) on an interior lobe, exactly.

    pi/(2 sqrt 2) on the right lobe, where I_1 = int y d(x^2) is a half-ellipse;
    negated on the left, zero on the exterior annulus (odd moments vanish by symmetry).
    """
    c = math.pi / (2.0 * math.sqrt(2.0))
    return {Annulus.INTERIOR_RIGHT: c, Annulus.INTERIOR_LEFT: -c}.get(annulus, 0.0)


def _i1_at(h, annulus: Annulus):
    return i1_slope(annulus) * (4.0 * np.asarray(h) + 1.0)


# ---------------------------------------------------------------------------
# closed form: complete Carlson integrals by the arithmetic-geometric mean
# ---------------------------------------------------------------------------

_AGM_TOL = 2.0 ** -26  # sqrt(eps): one more round after |c_n| <= _AGM_TOL |a_n| converges
_AGM_ROUNDS = 32       # levels 1e-300 from a singular level stop after 13 rounds


def _rf_rd(y, z):
    """(R_F(0, y, z), R_D(0, y, z), V) for arrays y, z of one shape, by one AGM.

    With a_0 = sqrt(z), b_0 = sqrt(y) (principal roots), a_{n+1} =
    (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n) and c_{n+1} = c_n^2 / (4 a_{n+1})
    from c_0^2 = z - y, the means converge to M(sqrt(y), sqrt(z)) and

        R_F(0, y, z) = pi / (2 M),   R_D(0, y, z) = 3 R_F S / (z (z - y)),

    with S = sum_{n>=0} 2^(n-1) c_n^2 (DLMF 19.8(i) and 19.25; Carlson,
    Numer. Algorithms 10 (1995) 13-26).  The recursion for c_n has no
    difference of means, so nothing cancels next to y = z.  The loop carries
    e_n = c_n / (z - y) and the tail V = sum_{n>=1} 2^(n-1) e_n^2, finite at
    y = z, so that R_D = 3 R_F (1/2 + (z - y) V) / z.  Principal roots are
    Gauss's right choice (Cox, L'Enseignement Math. 30 (1984) 275-330): for
    y, z off (-inf, 0], arg a_{n+1} is between arg a_n and arg b_n, arg b_{n+1}
    their midpoint: the spread halves from below pi, so Re(a_n conj b_n) > 0 for n >= 1.

    Each element runs one more round after |c_n| <= sqrt(eps) |a_n|, which
    leaves c_{n+1} at rounding level, and at most _AGM_ROUNDS; so an
    element's floats never depend on the array it is in.
    """
    shape = y.shape
    y, z = y.ravel(), z.ravel()
    c2 = z - y
    q = 0.25 * c2
    go = np.abs(c2) > _AGM_TOL * _AGM_TOL * np.abs(z)
    a, b = np.sqrt(z), np.sqrt(y)
    a, b = (a + b) * 0.5, np.sqrt(a * b)
    e = 0.25 / a
    v = ee = e * e
    a_end, v_end = np.empty_like(a), np.empty_like(v)
    live, p = np.arange(y.size), 1.0
    for _ in range(_AGM_ROUNDS):
        if np.count_nonzero(go) < live.size:
            done = live[~go]
            a_end[done], v_end[done] = a[~go], v[~go]
            live, a, b, e, ee, v, q = (t[go] for t in (live, a, b, e, ee, v, q))
            if not live.size:
                break
        go = np.abs(e * q / a) > 0.25 * _AGM_TOL
        a, b = (a + b) * 0.5, np.sqrt(a * b)
        e = ee * q / a
        ee = e * e
        p *= 2.0
        v = v + p * ee
    a_end[live], v_end[live] = a, v
    f = np.pi / (2.0 * a_end)
    d = 3.0 * f * (0.5 + c2 * v_end) / z
    return tuple(t.reshape(shape)[()] for t in (f, d, v_end))


def closed_form(h, annulus: Annulus):
    """(I_0, I_1, I_2, I_0', I_2') at real or complex levels h, vectorized.

    With u = x^2 the oval runs between roots of (a - u)(u - b) u, where
    s = sqrt(1 + 4h), a = 1 + s and b = 1 - s, formed as -4h / (1 + s) so
    that nothing cancels next to the saddle level h = 0.  For roots
    e1 > e2 > e3 write

        J0 = 2 R_F(0, e2 - e3, e1 - e3)
        J1 = (2/3) (e1 - e2)(e1 - e3) R_D(0, e2 - e3, e1 - e3)

    (Carlson, Numer. Algorithms 10 (1995) 13-26; DLMF 19.29).  Interior:
    I_0' = sqrt(2) J0 and I_2' = sqrt(2) (a J0 - J1) on (e1, e2, e3) =
    (a, b, 0); exterior: the same on (a, 0, b) with the factor 2 sqrt(2).
    I_0 and I_2 follow from the Picard-Fuchs relations, which in terms of
    F = R_F and D = R_D reduce to

        I_0 = (2/3) c a s G,   I_2 = (2/15) c a s (G + s (3 F - 2 s D)),

    with G = F - (2/3) D and c the factor above.  F and D come from one
    arithmetic-geometric mean (_rf_rd) of principal roots, the right choice
    here with a margin of pi/8 (Re z >= 0, so the first spread is 3 pi/4 at
    most), and are the values on the annulus's own cut plane.  On an interior
    lobe G vanishes like s at the centre level -1/4; there it is formed from
    the AGM tail V as G = s F (1 - 4V) / a, so that I_0 and I_2, which vanish
    like s^2, keep their relative accuracy.  I_1 is the exact linear form.
    Real levels inside the annulus give real arrays.
    """
    h = np.asarray(h)
    s = np.sqrt(1.0 + 4.0 * h)
    a = 1.0 + s
    b = -4.0 * h / a
    if annulus is Annulus.EXTERIOR:
        f, d, _ = _rf_rd(-b, 2.0 * s)
        c = 2.0 * math.sqrt(2.0)
        g = f - (2.0 / 3.0) * d
    else:
        f, d, v = _rf_rd(b, a)
        c = math.sqrt(2.0)
        g = s * (f * (1.0 - 4.0 * v) / a)
    i0 = (2.0 / 3.0) * c * a * s * g
    i2 = (2.0 / 15.0) * c * a * s * (g + s * (3.0 * f - 2.0 * s * d))
    d0 = 2.0 * c * f
    d2 = 2.0 * c * a * (f - (2.0 / 3.0) * s * d)
    return i0, _i1_at(h, annulus), i2, d0, d2


# ---------------------------------------------------------------------------
# moment reduction
# ---------------------------------------------------------------------------


def reduce_moment(k: int, h, periods):
    """Higher moments I_3, I_4, I_6 as combinations of periods = (I_0, I_1, I_2).

    These follow from integrating d(x^a y^b) over the closed oval and hold on
    every annulus:

        I_3 = I_1
        I_4 = (4h/7) I_0 + (8/7) I_2
        I_6 = (16h/21) I_0 + (4h/3 + 32/21) I_2
    """
    i0, i1, i2 = periods
    if k == 3:
        return i1
    if k == 4:
        return (4.0 * h / 7.0) * i0 + (8.0 / 7.0) * i2
    if k == 6:
        return (16.0 * h / 21.0) * i0 + (4.0 * h / 3.0 + 32.0 / 21.0) * i2
    raise ValueError(f"no reduction implemented for k={k}")


# ---------------------------------------------------------------------------
# Picard-Fuchs matrix and transport
# ---------------------------------------------------------------------------


def _pf_matrix(h: complex):
    """Entries a00, a01, a10, a11 of the inverted period system at a complex level h."""
    g = 4.0 * h + 1.0
    f = 4.0 * h * g
    return (12.0 * h + 4.0) / f, -5.0 / f, -1.0 / g, 5.0 / g


def derivative_pair(h, i0, i2):
    """(I_0', I_2') from (I_0, I_2) at one level h: _pf_matrix applied to the pair."""
    a00, a01, a10, a11 = _pf_matrix(complex(h))
    return a00 * i0 + a01 * i2, a10 * i0 + a11 * i2


def _segment_clearance(z0: complex, z1: complex, p: complex) -> float:
    """Distance from the segment [z0, z1] to the point p."""
    dz = z1 - z0
    if dz == 0:
        return abs(z0 - p)
    t = ((p - z0).real * dz.real + (p - z0).imag * dz.imag) / abs(dz) ** 2
    t = min(1.0, max(0.0, t))
    return abs(z0 + t * dz - p)


def _check_path(vertices: list[complex]) -> None:
    for z0, z1 in zip(vertices[:-1], vertices[1:]):
        for p in _POLES:
            d = _segment_clearance(z0, z1, p)
            if d < MIN_CLEARANCE * (1.0 - 1e-9):
                raise PathError(
                    f"segment {z0} -> {z1} passes within {d:.3g} of the singular level h={p} "
                    f"(minimum clearance {MIN_CLEARANCE})"
                )


def _pf_rhs(z0: complex, dz: complex):
    """The transport right-hand side on h = z0 + t dz, in plain complex arithmetic.

    The state u is (Re I_0, Im I_0, Re I_2, Im I_2); the result is dz A(h) (I_0, I_2)
    as four floats, with A the matrix of _pf_matrix.
    """
    def rhs(t, u):
        a00, a01, a10, a11 = _pf_matrix(z0 + t * dz)
        i0, i2 = complex(u[0], u[1]), complex(u[2], u[3])
        d0, d2 = dz * (a00 * i0 + a01 * i2), dz * (a10 * i0 + a11 * i2)
        return d0.real, d0.imag, d2.real, d2.imag

    return rhs


@dataclass
class PathTable:
    """Dense record of a transport run; segment k covers the parameters s in [k, k+1]."""

    annulus: Annulus
    vertices: list[complex]
    solutions: list
    i1_coef: float

    def values_at(self, s):
        """(h, I_0, I_1, I_2) arrays at polyline parameters s (ascending or not)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        k = np.minimum(np.floor(s).astype(int), len(self.solutions) - 1)
        t = s - k
        h = np.empty(s.shape, dtype=complex)
        i0 = np.empty(s.shape, dtype=complex)
        i2 = np.empty(s.shape, dtype=complex)
        for seg in np.unique(k):
            mask = k == seg
            u = self.solutions[seg].sol(t[mask])
            i0[mask] = u[0] + 1j * u[1]
            i2[mask] = u[2] + 1j * u[3]
            z0, z1 = self.vertices[seg], self.vertices[seg + 1]
            h[mask] = z0 + t[mask] * (z1 - z0)
        i1 = self.i1_coef * (4.0 * h + 1.0)
        return h, i0, i1, i2


def _polyline(path, annulus: Annulus) -> list[complex]:
    """A path's vertices without repeats.

    The first vertex must be a real level inside the annulus interval, and
    every segment must keep MIN_CLEARANCE from the singular levels.
    """
    vertices = [complex(z) for z in path]
    if len(vertices) < 2:
        raise ValueError("path needs at least two vertices")
    start = vertices[0]
    if abs(start.imag) > 1e-14 or not annulus.contains(start.real):
        raise PathError(f"path must start at a real level inside the annulus, got {start}")
    _check_path(vertices)
    return [start] + [z for z_prev, z in zip(vertices, vertices[1:]) if z != z_prev]


@lru_cache(maxsize=None)
def _start_state(h: float, annulus: Annulus) -> tuple:
    """The transport state (I_0, 0, I_2, 0) at a real level, from the closed form, once a level."""
    i0, _, i2, _, _ = closed_form(h, annulus)
    return (float(i0), 0.0, float(i2), 0.0)


def transport_table(path, annulus: Annulus) -> PathTable:
    """Transport (I_0, I_2) along a polyline starting at a real point of the annulus.

    The dense reference route: one solve_ivp run per segment (see _polyline
    for the path's requirements), each starting where the last one ended.
    """
    from scipy.integrate import solve_ivp

    vertices = _polyline(path, annulus)
    u = _start_state(vertices[0].real, annulus)
    solutions = []
    for z0, z1 in zip(vertices, vertices[1:]):
        sol = solve_ivp(_pf_rhs(z0, z1 - z0), (0.0, 1.0), u, method="DOP853",
                        rtol=_TRANSPORT_RTOL, atol=_TRANSPORT_ATOL, dense_output=True)
        if not sol.success:
            raise PathError(f"transport failed on segment {z0} -> {z1}: {sol.message}")
        solutions.append(sol)
        u = sol.y[:, -1]
    return PathTable(annulus=annulus, vertices=vertices, solutions=solutions,
                     i1_coef=i1_slope(annulus))


def _segment_end(steps):
    # the next start is y_new; the end value is the dense output at t = 1 (as values_at reads it)
    for lane, _, y_old, y_new, _ in steps:
        if lane.t >= lane.t_end:
            lane.end = y_new.tolist(), (y_old + (y_new - y_old)).tolist()


def continue_paths(paths, annuli) -> list[tuple]:
    """(I_0, I_1, I_2) at the end of each polyline (see _polyline), by one lock-step transport.

    Segment j of every path is a lane of one lock-step DOP853 run, then segment
    j + 1, each lane with the floats of solve_ivp on its segment alone.
    """
    from ._dop853 import Lane, run

    runs = [_polyline(path, annulus) for path, annulus in zip(paths, annuli, strict=True)]
    starts = [_start_state(v[0].real, annulus) for v, annulus in zip(runs, annuli)]
    at = [[v[0], u, u] for v, u in zip(runs, starts)]  # level, next start, end
    for j in range(max(map(len, runs), default=1) - 1):
        legs = [(a, v[j], v[j + 1]) for a, v in zip(at, runs) if j + 1 < len(v)]
        lanes = [Lane(_pf_rhs(z0, z1 - z0), a[1], 1.0, _TRANSPORT_RTOL, _TRANSPORT_ATOL,
                      f"transport failed on segment {z0} -> {z1}") for a, z0, z1 in legs]
        run(lanes, _TRANSPORT_RTOL, _TRANSPORT_ATOL, _segment_end)
        for (a, z0, z1), lane in zip(legs, lanes):
            if isinstance(lane.end, str):
                raise PathError(lane.end)
            a[:] = z0 + 1.0 * (z1 - z0), *lane.end
    return [(complex(*u[:2]), _i1_at(h, annulus), complex(*u[2:]))
            for (h, _, u), annulus in zip(at, annuli)]


# ---------------------------------------------------------------------------
# boundary values on the cut
# ---------------------------------------------------------------------------

def cut_values(h, annulus: Annulus) -> tuple[tuple, tuple]:
    """Boundary values (plus side, minus side) of the periods on the branch cut.

    The cut is [0, +inf) for the interior families and (-inf, 0] for the
    exterior one.  Each side is the closed form at h +- 1e-15 i: a signed
    zero imaginary part does not select a side, an offset this small does
    and moves the values by far less than their rounding error.  For real
    coefficients the two sides are complex conjugates; both are computed
    independently so that tests can check this rather than assume it.  Each
    side is the triple (I_0, I_1, I_2).  h is one level or an array of
    levels, all through one closed_form call; for an array each entry of a
    triple is a list over the levels.
    """
    h = np.asarray(h, dtype=float)
    exterior = annulus is Annulus.EXTERIOR
    off = h >= 0.0 if exterior else h <= 0.0
    if np.any(off):
        ray = "exterior cut is the ray h <= 0" if exterior else "interior cut is the ray h >= 0"
        raise DomainError(f"{ray}, got h={h[off].flat[0]}")
    near = (np.abs(h) < MIN_CLEARANCE) | (np.abs(h + 0.25) < MIN_CLEARANCE)
    if np.any(near):
        raise PathError(f"cut point h={h[near].flat[0]} within the clearance "
                        f"{MIN_CLEARANCE} of a singular level")
    i0, _, i2, _, _ = closed_form(h[..., None] + np.array([1e-15j, -1e-15j]), annulus)
    i1 = _i1_at(h, annulus).astype(complex).tolist()
    return tuple((i0[..., k].tolist(), i1, i2[..., k].tolist()) for k in (0, 1))


def wronskian_cut(hs) -> list[complex]:
    """Wronskian of the two cut-side determinations, W = I_2^+ I_0^- - I_2^- I_0^+.

    One value per exterior cut level of hs, each in Python complex arithmetic
    from one cut_values call.  On the exterior cut W(h) equals a constant
    times h (4h + 1) on each maximal interval where the boundary values are
    analytic, with the constant doubling when h crosses -1/4.
    """
    (p0, _, p2), (m0, _, m2) = cut_values(hs, Annulus.EXTERIOR)
    return [a2 * b0 - b2 * a0 for a0, a2, b0, b2 in zip(p0, p2, m0, m2)]


# ---------------------------------------------------------------------------
# real-axis evaluation for the root scans
# ---------------------------------------------------------------------------


class RealPeriodTable:
    """(I_0, I_1, I_2) on the real interval of an annulus, range-checked.

    Covers the interval up to 1e-7 from the singular levels, and the whole
    ray h > 1e-7 on the exterior annulus; values are the closed form, which
    the root scans read directly (every level they pass lies in this range).
    """

    def __init__(self, annulus: Annulus):
        if annulus is Annulus.EXTERIOR:
            self.h_min, self.h_max = 1e-7, math.inf
        else:
            self.h_min, self.h_max = -0.25 + 1e-7, -1e-7
        self._annulus = annulus

    def values(self, h):
        """(I_0, I_1, I_2) arrays at real levels h inside the covered range."""
        h = np.atleast_1d(np.asarray(h, dtype=float))
        if np.any(h < self.h_min - 1e-12) or np.any(h > self.h_max + 1e-12):
            raise DomainError(f"level outside table range [{self.h_min}, {self.h_max}]")
        i0, i1, i2, _, _ = closed_form(np.clip(h, self.h_min, self.h_max), self._annulus)
        return i0, i1, i2


# ---------------------------------------------------------------------------
# asymptotic structure
# ---------------------------------------------------------------------------


def _log_series(coeffs, h):
    return sum(c * h ** k for k, c in enumerate(coeffs))


def saddle_constants() -> tuple[float, float]:
    """Limits of I_0 and I_2 as h -> 0- on an interior lobe (exactly 4/3, 16/15).

    Extracted by removing the known logarithmic part of the expansion and
    solving for the analytic part's quadratic Taylor polynomial on the levels
    -1e-2, -1e-3, -1e-4; the extrapolation error is then O(h1*h2*h3) and far
    below 1e-6.
    """
    hs = np.array([-1e-2, -1e-3, -1e-4])
    logs = np.log(-hs)
    vand = np.vander(hs, 3, increasing=True)
    out = []
    grid = oval_integrals([(0, 1), (2, 1)], hs, Annulus.INTERIOR_RIGHT)
    for vals, series in zip(grid, (SADDLE_LOG_I0, SADDLE_LOG_I2)):
        vals -= np.array([_log_series(series, h) for h in hs]) * logs
        coef = np.linalg.solve(vand, vals)
        out.append(float(coef[0]))
    return out[0], out[1]


def saddle_log_fit() -> tuple[float, float]:
    """Fit the (h, h^2) log coefficients of I_0 near h = 0- (expected -1, 3/8).

    Twelve levels -2e-2 / 2^j are geometrically spaced in (-2e-2, -1e-5);
    the known higher log terms are subtracted and the model
        (quartic in h) + (a1 h + a2 h^2) log|h|
    is fitted by least squares, returning (a1, a2).  With this design the
    fitted values are good to ~1e-8 and ~1e-5 respectively.
    """
    hs = -0.02 * np.power(2.0, -np.arange(12, dtype=float))
    logs = np.log(-hs)
    vals = oval_integrals([(0, 1)], hs, Annulus.INTERIOR_RIGHT)[0]
    tail = np.array([_log_series(SADDLE_LOG_I0[3:], h) * h ** 3 for h in hs])
    vals -= tail * logs
    cols = np.column_stack([hs ** j for j in range(5)] + [hs * logs, hs ** 2 * logs])
    coef, *_ = np.linalg.lstsq(cols, vals, rcond=None)
    return float(coef[5]), float(coef[6])


def exterior_slope() -> tuple[float, float]:
    """Log-log growth exponent of the exterior I_0 (expected 3/4) and amplitude.

    The expansion at infinity is I_0 = C h^(3/4) (1 + c h^(-1/2) + ...); the
    h^(-1/2) term would shift a plain least-squares slope on [1e2, 1e6] by
    about 3e-3, so the fit includes that correction column, after which the
    residual slope error is at the 1e-5 level.  The fit uses 17 log-spaced
    levels.
    """
    hs = np.logspace(2.0, 6.0, 17)
    vals = oval_integrals([(0, 1)], hs, Annulus.EXTERIOR)[0]
    lh, lv = np.log(hs), np.log(vals)
    cols = np.column_stack([lh, np.ones_like(lh), 1.0 / np.sqrt(hs)])
    coef, *_ = np.linalg.lstsq(cols, lv, rcond=None)
    return float(coef[0]), float(math.exp(coef[1]))


# ---------------------------------------------------------------------------
# nonvanishing survey over the cut disc
# ---------------------------------------------------------------------------


def nonvanishing_grid():
    """Minima of |I_0| and |I_0'| (normalized by |h|^(3/4)) over the cut disc.

    Evaluates the exterior closed form at 20 log-spaced radii in [2e-3, 10]
    on 20 rays kept 0.05 away from the cut (-inf, 0].  Returns (min
    |I_0|/|h|^(3/4), min |I_0'|/|h|^(3/4), rows), one row (h, normalized
    |I_0|, normalized |I_0'|) per grid point.
    """
    radii = np.logspace(math.log10(2e-3), 1.0, 20)
    angles = np.linspace(-math.pi + 0.05, math.pi - 0.05, 20)
    h = (np.exp(1j * angles)[:, None] * radii).ravel()
    i0, _, _, d0, _ = closed_form(h, Annulus.EXTERIOR)
    norm = np.abs(h) ** 0.75
    rows = list(zip(h.tolist(), (np.abs(i0) / norm).tolist(), (np.abs(d0) / norm).tolist()))
    min_i0 = min(r[1] for r in rows)
    min_d0 = min(r[2] for r in rows)
    return min_i0, min_d0, rows
