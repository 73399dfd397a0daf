"""Quadrature kernels for oval integrals.

All the contour integrals in this package reduce to integrals over an
x-interval [a, b] whose integrand behaves like ((x-a)(b-x))**(+-1/2) times a
smooth factor: the oval branch y(x) vanishes like a square root at the branch
points, and the 1/y kernels of period integrals blow up the same way.  The
substitution

    x = (a+b)/2 + (b-a)/2 * sin(theta),   theta in [-pi/2, pi/2]

turns (x-a)(b-x) into ((b-a)/2 * cos(theta))**2 exactly, so both kinds of
endpoint behavior become analytic in theta and Gauss-Legendre converges
spectrally.  Node counts are doubled until the last two estimates agree to
tolerance.

One loop, _doubling, doubles the nodes over rows: each row stops at its own
node count and only running rows are evaluated again.  The integrators below
are its one-row case; abelian.oval_integrals runs level grids through it, and
melnikov's quadrature oracles run the terms of one level as its rows, with
integrate_endpoint_sqrt's substitution and sum.
Each row is summed by its own 1-D np.dot (ddot), so it does not depend on the
other rows; a matrix product F @ w (gemv) sums in another order.

Integrands must be vectorized (accept an ndarray of abscissae).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "AccuracyError",
    "integrate_endpoint_sqrt",
    "integrate_smooth",
    "integrate_path",
]


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_nodes: int = 4096

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_nodes < 16:
            raise ValueError("max_nodes must be at least 16")


DEFAULT_SPEC = QuadratureSpec()


class AccuracyError(RuntimeError):
    """Quadrature failed to meet tolerance; carries the best value seen."""

    def __init__(self, message: str, value=None, err_est: float | None = None):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return roots_legendre(n)


def _doubling(rule, rows: int, spec: QuadratureSpec, where):
    """Evaluate rule(live, nodes, weights) on 16, 32, ... Gauss-Legendre nodes.

    live lists the running rows, ascending; rule returns their values in that
    order.  A row stops when its last two estimates agree to tolerance.
    Returns one (value, err_est) per row, err_est being that difference.  The
    first row still running at max_nodes raises AccuracyError naming where(row).
    """
    values, errs = [None] * rows, [np.inf] * rows
    live, n = list(range(rows)), 16
    while live and n <= spec.max_nodes:
        running = []
        for i, value in zip(live, rule(live, *_gl_rule(n))):
            prev, values[i] = values[i], value
            if prev is not None:
                errs[i] = abs(value - prev)
                if errs[i] <= max(spec.abs_tol, spec.rel_tol * abs(value)):
                    continue
            running.append(i)
        live, n = running, 2 * n
    if live:
        i = live[0]
        raise AccuracyError(f"no convergence with {spec.max_nodes} nodes on {where(i)} "
                            f"(err~{errs[i]:.3g})", value=values[i], err_est=errs[i])
    return list(zip(values, errs))


@lru_cache(maxsize=None)
def _sines(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(theta) and sin(theta) of the endpoint substitution at n Gauss-Legendre nodes."""
    theta = 0.5 * np.pi * _gl_rule(n)[0]
    return np.cos(theta), np.sin(theta)


def integrate_endpoint_sqrt(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC):
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

    def rule(live, nodes, weights):
        cos_t, sin_t = _sines(len(nodes))
        fx = np.asarray(f(mid + rad * sin_t, (rad * cos_t) ** 2), dtype=float)
        return [float(np.dot(weights, fx * cos_t) * 0.5 * np.pi * rad)]

    return _doubling(rule, 1, spec, lambda i: f"[{a}, {b}]")[0]


def integrate_smooth(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC):
    """Integrate a smooth vectorized f over [a, b] by doubling Gauss-Legendre.

    Same convergence protocol and return convention as
    integrate_endpoint_sqrt, without the endpoint substitution.
    """
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    mid = 0.5 * (a + b)
    rad = 0.5 * (b - a)

    def rule(live, nodes, weights):
        fx = np.asarray(f(mid + rad * nodes), dtype=float)
        return [float(np.dot(weights, fx) * rad)]

    return _doubling(rule, 1, spec, lambda i: f"[{a}, {b}]")[0]


def integrate_path(f, path, spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
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

        def rule(live, nodes, weights):
            fz = np.asarray(f(z0 + 0.5 * (nodes + 1.0) * dz), dtype=complex)
            return [complex(np.dot(weights, fz) * 0.5 * dz)]

        value, _ = _doubling(rule, 1, spec, lambda i: f"segment {z0} -> {z1}")[0]
        total += value
    return total
