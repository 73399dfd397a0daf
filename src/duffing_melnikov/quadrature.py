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


def _doubling(rule, spec: QuadratureSpec, where: str):
    """Evaluate rule(nodes, weights) on 16, 32, ... Gauss-Legendre nodes.

    Stops when the last two estimates agree to tolerance and returns
    (value, err_est), err_est being their difference.  Raises AccuracyError
    (with .value and .err_est set) if max_nodes is reached first.
    """
    value, err = None, np.inf
    n = 16
    while n <= spec.max_nodes:
        prev, value = value, rule(*_gl_rule(n))
        if prev is not None:
            err = abs(value - prev)
            if err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
                return value, err
        n *= 2
    raise AccuracyError(
        f"no convergence with {spec.max_nodes} nodes on {where} (err~{err:.3g})",
        value=value,
        err_est=err,
    )


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

    def rule(nodes, weights):
        theta = 0.5 * np.pi * nodes
        cos_t = np.cos(theta)
        fx = np.asarray(f(mid + rad * np.sin(theta), (rad * cos_t) ** 2), dtype=float)
        return float(np.dot(weights, fx * cos_t) * 0.5 * np.pi * rad)

    return _doubling(rule, spec, f"[{a}, {b}]")


def integrate_smooth(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC):
    """Integrate a smooth vectorized f over [a, b] by doubling Gauss-Legendre.

    Same convergence protocol and return convention as
    integrate_endpoint_sqrt, without the endpoint substitution.
    """
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    mid = 0.5 * (a + b)
    rad = 0.5 * (b - a)

    def rule(nodes, weights):
        fx = np.asarray(f(mid + rad * nodes), dtype=float)
        return float(np.dot(weights, fx) * rad)

    return _doubling(rule, spec, f"[{a}, {b}]")


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

        def rule(nodes, weights):
            fz = np.asarray(f(z0 + 0.5 * (nodes + 1.0) * dz), dtype=complex)
            return complex(np.dot(weights, fz) * 0.5 * dz)

        value, _ = _doubling(rule, spec, f"segment {z0} -> {z1}")
        total += value
    return total
