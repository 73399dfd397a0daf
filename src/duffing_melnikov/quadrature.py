"""Quadrature kernels for oval integrals.

All the contour integrals in this package reduce to integrals over an
x-interval [a, b] whose integrand behaves like ((x-a)(b-x))**(+-1/2) times a
smooth factor: the oval branch y(x) vanishes like a square root at the branch
points, and the 1/y kernels of period integrals blow up the same way.  The
substitution

    x = (a+b)/2 + (b-a)/2 * sin(theta),   theta in [-pi/2, pi/2]

turns (x-a)(b-x) into ((b-a)/2 * cos(theta))**2 exactly, so both kinds of
endpoint behavior become analytic in theta and Gauss-Legendre converges
spectrally.  Node counts are doubled from 16 up to _MAX_NODES = 4096 until the
last two estimates differ by at most max(_ABS_TOL, _REL_TOL |value|), on rules
of this module's own (_gl_rule), so quadrature loads no part of scipy.

One loop, _doubling, doubles the nodes over rows: each row stops at its own
node count and only running rows are evaluated again.  Its first rule call
takes the 16-, 32- and 64-node rules on their concatenated nodes, as no row
stops on its first estimate and most stop by 64 nodes, where a call costs its
numpy overhead, not its nodes.  Per benchmark cycle, rows stop at 32/64/128/256
nodes: crosscheck 400/237/88/75, verify 766/152/65/6; rule calls 524 and 29,
against 1124 and 63 one rule per call.  The integrators below are its one-row
case.  _oval_rows is the oval rule built on it, the one place that knows the
endpoint substitution, the upper branch y = sqrt(t sigma(x)), the split of a
pinched exterior oval and the per-piece sums; the periods
(abelian.oval_integrals) and both Melnikov quadrature oracles are terms run
through it, one row per term and level.
Rules hand _doubling their integrand rows; it alone slices out each rule and
sums each row on it by its own ddot, independent of the other rows and rules:
np.matmul takes the weights against a stack of (n, 1) columns as one ddot per
1 x 1 product, as np.dot does; F @ w (gemv) sums in another order.

Integrands must be vectorized (accept an ndarray of abscissae).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import Annulus, branch_points

__all__ = [
    "AccuracyError",
    "integrate_endpoint_sqrt",
    "integrate_smooth",
    "integrate_path",
]


_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_NODES = 4096


class AccuracyError(RuntimeError):
    """Quadrature failed to meet tolerance; carries the best value seen."""

    def __init__(self, message: str, value=None, err_est: float | None = None):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1].

    Newton on the three-term recurrence from Tricomi's guesses, as sines so
    that the middle one at odd n is exactly 0, finds the roots x >= 0.  Each
    weight 2 / ((1 - x^2) P_n'(x)^2) is corrected to first order for the last
    residual P_n(x), so a node's rounding next to +-1 does not reach it.
    """
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.sin(np.pi * np.arange(n - 1, -1, -2) / (2 * n + 1))
    while True:
        p0, p1 = np.ones_like(x), x  # P_{j-1}(x), P_j(x)
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        one_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / one_x2
        dx = p1 / dp
        if np.abs(dx).max() <= 1e-14:
            break
        x = x - dx
    w = 2.0 / (dp * (one_x2 * dp - 2.0 * x * p1))
    x, odd = x - dx, n % 2  # at odd n the last root is the middle node
    return np.concatenate([-x, x[::-1][odd:]]), np.concatenate([w, w[::-1][odd:]])


@lru_cache(maxsize=None)
def _nodes(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes of the Gauss-Legendre rules of sizes, concatenated, and the endpoint
    substitution's cos(theta) and sin(theta) at them, each taken rule by rule."""
    parts = [(x, np.cos(0.5 * np.pi * x), np.sin(0.5 * np.pi * x)) for x, _ in map(_gl_rule, sizes)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _doubling(rule, rows: int, where):
    """Integrate rows on 16, 32, ... Gauss-Legendre nodes, each to its own count.

    rule(live, nodes) gets the running rows, ascending, and nodes = _nodes(sizes):
    the 16-, 32- and 64-node rules in the first call (no row stops on its first
    estimate, most by 64 nodes), then one.  It returns (f, c, r); row k's estimate
    on a rule is the ddot of its own row f[k] on the rule's slice, times c, times
    r[k], in Python scalars (numpy's complex array product may fuse).  A row stops
    at the first rule where its last two estimates agree to tolerance.  Returns
    one (value, err_est) per row, err_est that difference; the first row still
    running at _MAX_NODES raises AccuracyError naming where(row).
    """
    values, errs = [None] * rows, [np.inf] * rows
    live, n = list(range(rows)), 16
    while live and n <= _MAX_NODES:
        sizes = tuple(m for m in (16, 32, 64) if n <= m <= _MAX_NODES) or (n,)
        f, c, r = rule(live, _nodes(sizes))
        # the rules before the m-node rule hold m - n nodes
        sums = [np.matmul(_gl_rule(m)[1], f[:, m - n:2 * m - n, None])[:, 0].tolist() for m in sizes]
        running = []
        for k, i in enumerate(live):
            for d in sums:
                value = d[k] * c * r[k]
                prev, values[i] = values[i], value
                errs[i] = np.inf if prev is None else abs(value - prev)
                if errs[i] <= max(_ABS_TOL, _REL_TOL * abs(value)):
                    break
            else:
                running.append(i)
        live, n = running, 2 * sizes[-1]
    if live:
        i = live[0]
        raise AccuracyError(f"no convergence with {_MAX_NODES} nodes on {where(i)} "
                            f"(err~{errs[i]:.3g})", value=values[i], err_est=errs[i])
    return list(zip(values, errs))


def integrate_endpoint_sqrt(f, a: float, b: float):
    """Integrate f over [a, b], f having at worst half-power endpoint singularities.

    The integrand is called as f(x, t) where t = (x-a)(b-x) evaluated as
    (rad cos(theta))^2, which is exact in the substitution variable.
    Integrands whose singular part is a power of (x-a)(b-x) should
    reconstruct it from t: computing it from x loses half the digits near the
    endpoints and puts a noise floor under the result.

    Returns (value, err_est) as described in _doubling.
    """
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    mid = 0.5 * (a + b)
    rad = 0.5 * (b - a)

    def rule(live, nodes):
        _, cos_t, sin_t = nodes
        fx = np.asarray(f(mid + rad * sin_t, (rad * cos_t) ** 2), dtype=float)
        return (fx * cos_t)[None], 0.5 * np.pi, [rad]

    return _doubling(rule, 1, lambda i: f"[{a}, {b}]")[0]


def integrate_smooth(f, a: float, b: float):
    """Integrate a smooth vectorized f over [a, b] by doubling Gauss-Legendre.

    Same convergence protocol and return convention as
    integrate_endpoint_sqrt, without the endpoint substitution.
    """
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    mid = 0.5 * (a + b)
    rad = 0.5 * (b - a)

    def rule(live, nodes):
        return np.asarray(f(mid + rad * nodes[0]), dtype=float)[None], 1.0, [rad]

    return _doubling(rule, 1, lambda i: f"[{a}, {b}]")[0]


def integrate_path(f, path) -> complex:
    """Integrate an analytic integrand along a polyline in the complex plane.

    path is a sequence of vertices (complex numbers); each straight segment is
    handled by the same doubling Gauss-Legendre rule.  f must be vectorized.
    """
    vertices = [complex(z) for z in path]
    if len(vertices) < 2:
        raise ValueError("path needs at least two vertices")
    total = 0.0 + 0.0j
    for z0, z1 in zip(vertices[:-1], vertices[1:]):
        if z1 == z0:
            continue
        dz = z1 - z0

        def rule(live, nodes):
            return np.asarray(f(z0 + 0.5 * (nodes[0] + 1.0) * dz), dtype=complex)[None], 0.5, [dz]

        value, _ = _doubling(rule, 1, lambda i: f"segment {z0} -> {z1}")[0]
        total += value
    return total


# Below this level the exterior oval develops a neck of width ~sqrt(2h) at
# x = 0, invisible to the endpoint substitution; the integral is then split
# at |x| = 0.5 and the middle piece taken in the variable x = sqrt(2h) sinh u,
# which resolves the neck exactly (2h + x^2 = 2h cosh^2 u).
_PINCH_SPLIT_H = 0.05


def _oval_rows(terms, hs, annulus: Annulus) -> np.ndarray:
    """Integral of term(x, y) dx over the x-range of the oval at each level of hs.

    y is the upper branch, clamped at 1e-300; on the endpoint substitution it
    is sqrt(t sigma(x)), t = (x - x_lo)(x_hi - x) exact from the substitution
    and sigma = (2h + x^2 - x^4/2) / t a smooth factor, so 1/y sees no
    endpoint cancellation.  A pinched exterior level is summed as
    left + neck + right.  Terms must be elementwise: one level passes 1-D
    arrays of nodes, several one row per running level.  Row j * len(hs) + i
    of the doubling loop is terms[j] at hs[i], with the operations of that
    level alone.  Returns a (len(terms), len(hs)) array.
    """
    geoms = [branch_points(float(h), annulus) for h in hs]
    split = [i for i, g in enumerate(geoms) if annulus is Annulus.EXTERIOR and g.h < _PINCH_SPLIT_H]
    whole = [i for i in range(len(geoms)) if i not in split]

    def piece(kind, gs):
        size, cut, scale = len(gs), 0.5, 1.0 if kind == "neck" else 0.5 * np.pi
        ends = ([(-u, u) for u in (math.asinh(cut / math.sqrt(2.0 * g.h)) for g in gs)]
                if kind == "neck" else [(cut if kind == "right" else g.x_lo,
                                         -cut if kind == "left" else g.x_hi) for g in gs])
        table = [(g.h, g.x_lo, g.x_hi, math.sqrt(1.0 + 4.0 * g.h), 0.5 * (a + b), 0.5 * (b - a))
                 for g, (a, b) in zip(gs, ends)]
        # one level keeps plain floats and 1-D arrays, as in its own rule
        cols, rads = table[0] if size == 1 else np.array(table).T[:, :, None], [r[5] for r in table]

        def rule(live, nodes):
            run = sorted({r % size for r in live}) if size > 1 else [0]
            h, lo, hi, s, mid, rad = cols if len(run) == size else cols[:, run]
            if kind == "neck":
                u, c = mid + rad * nodes[0], np.sqrt(2.0 * h)
                x, ch = c * np.sinh(u), np.cosh(u)
                y, jac = c * ch * np.sqrt(1.0 - x ** 4 / (4.0 * h * ch * ch)), c * ch
            else:
                _, jac, sin_t = nodes
                x, t = mid + rad * sin_t, (rad * jac) ** 2  # the endpoint substitution
                sigma = (0.5 * (x * x + s - 1.0) if annulus is Annulus.EXTERIOR
                         else 0.5 * (x + lo) * (x + hi))
                # On each outer piece only one endpoint is a branch point.  On the half
                # next to it, its distance is t over the other factor of t, which is O(1)
                # there; on the half next to the cut that factor shrinks and the division
                # would lose digits, so the distance is taken directly.
                y = np.sqrt(t * sigma if kind == "whole"
                            else np.where(sin_t < 0.0, t / (-cut - x), x - lo) * (hi - x) * sigma
                            if kind == "left"
                            else (x - lo) * np.where(sin_t > 0.0, t / (x - cut), hi - x) * sigma)
            y = np.maximum(y, 1e-300)
            out, by_term = [], {}
            for r in live:
                by_term.setdefault(r // size, []).append(r % size)
            for j, levels in by_term.items():
                q = [run.index(i) for i in levels] if levels != run else None
                xs, ys = (x, y) if q is None else (x[q], y[q])
                fx = terms[j](xs, ys) * (jac[q] if q is not None and kind == "neck" else jac)
                out.append(fx if size > 1 else fx[None])  # a row per level
            return np.concatenate(out), scale, [rads[r % size] for r in live]

        rows = _doubling(rule, len(terms) * size,
                         lambda r: "[{}, {}]".format(*ends[r % size]))
        return np.array([value for value, _ in rows]).reshape(len(terms), size)

    out = np.empty((len(terms), len(geoms)))
    if whole:
        out[:, whole] = piece("whole", [geoms[i] for i in whole])
    if split:
        left, neck, right = (piece(kind, [geoms[i] for i in split])
                             for kind in ("left", "neck", "right"))
        out[:, split] = left + neck + right
    return out
