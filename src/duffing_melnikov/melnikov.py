"""First- and second-order Melnikov functions of the perturbed oscillator.

The perturbation is

    x' = y + eps f(x, y),   y' = x - x^3 + eps g(x, y),

where f and g are cubic polynomials over the monomial basis MONOMIALS and
each coefficient is itself linear in eps (a first and a second tier, forty
real parameters in total).  The displacement of the return map on a section
through the annulus expands as d(h, eps) = M1(h) eps + M2(h) eps^2 + ...

Both orders reduce to combinations of the oval integrals I_0, I_1, I_2 with
polynomial (in h) coefficients:

  * order one, on any annulus, directly from integrating the perturbation
    one-form around the oval;
  * order two, under the hypothesis that M1 vanishes identically on the
    annulus, via the Iliev two-step averaging formula.  On the exterior
    annulus the reduced coefficients acquire a 1/(4h+1) factor from the
    inverted period relations.

m2_form carries closed-form coefficients.  Its tables were derived
symbolically from the Iliev formula and cross-checked against direct
quadrature of that formula and against an independent integrate-the-flow
oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .abelian import PeriodVector, PoleError
from .geometry import Annulus
from .quadrature import _oval_rows

__all__ = [
    "MONOMIALS",
    "PerturbationParams",
    "ConstraintError",
    "MelnikovForm",
    "m1_form",
    "m2_form",
    "m1_vanishing_residuals",
    "m1_vanishes",
    "enforce_m1_zero",
    "m_eval",
    "pole_cleared_eval",
    "pole_cleared_rows",
    "m1_quadrature",
    "m2_iliev_quadrature",
]

#: exponent pairs (i, j) meaning x^i y^j, in coefficient order
MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0),
             (0, 2), (2, 1), (1, 2), (3, 0), (0, 3))


class ConstraintError(ValueError):
    """A computation that presumes M1 = 0 was handed parameters violating it."""


@dataclass(frozen=True)
class PerturbationParams:
    """Coefficient tables of the perturbation.

    lambda1/gamma1 are the eps^1 parts of the coefficients of f and g over
    MONOMIALS; lambda2/gamma2 the eps^2 parts.  So for example
    f(x, y) = sum_k (lambda1[k] + eps*lambda2[k]) * x^i y^j.
    """

    lambda1: tuple[float, ...]
    gamma1: tuple[float, ...]
    lambda2: tuple[float, ...]
    gamma2: tuple[float, ...]

    def __post_init__(self):
        for name in ("lambda1", "gamma1", "lambda2", "gamma2"):
            vals = tuple(map(float, getattr(self, name)))
            if len(vals) != len(MONOMIALS):
                raise ValueError(f"{name} needs {len(MONOMIALS)} coefficients, got {len(vals)}")
            object.__setattr__(self, name, vals)

    @classmethod
    def zero(cls) -> "PerturbationParams":
        z = (0.0,) * len(MONOMIALS)
        return cls(z, z, z, z)

    @classmethod
    def random(cls, rng: np.random.Generator, scale: float = 1.0) -> "PerturbationParams":
        draw = lambda: tuple((scale * rng.standard_normal(len(MONOMIALS))).tolist())
        return cls(draw(), draw(), draw(), draw())

    @classmethod
    def uniform(cls, rng: np.random.Generator) -> "PerturbationParams":
        draw = lambda: tuple(rng.uniform(-1.0, 1.0, len(MONOMIALS)).tolist())
        return cls(draw(), draw(), draw(), draw())

    @classmethod
    def from_dict(cls, data: dict) -> "PerturbationParams":
        known = {"lambda1", "gamma1", "lambda2", "gamma2"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown parameter keys: {sorted(extra)}")
        z = (0.0,) * len(MONOMIALS)
        for key, vals in data.items():  # JSON also reads null, NaN, 1e999 and bare numbers
            if not (isinstance(vals, (list, tuple)) and len(vals) == len(z) and all(
                    type(v) in (int, float) and abs(v) <= np.finfo(float).max for v in vals)):
                raise ValueError(f"{key} must be a list of {len(z)} finite numbers")
        return cls(*(tuple(data.get(k, z)) for k in ("lambda1", "gamma1", "lambda2", "gamma2")))

    def to_dict(self) -> dict:
        return {"lambda1": list(self.lambda1), "gamma1": list(self.gamma1),
                "lambda2": list(self.lambda2), "gamma2": list(self.gamma2)}

    @classmethod
    def from_json(cls, text: str) -> "PerturbationParams":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("parameter file must hold a JSON object")
        return cls.from_dict(data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def coeff_grid(self, which: str) -> np.ndarray:
        """4x4 array c with c[i, j] the coefficient of x^i y^j."""
        c = np.zeros((4, 4))
        for (i, j), v in zip(MONOMIALS, getattr(self, which)):
            c[i, j] = v
        return c


@dataclass(frozen=True)
class MelnikovForm:
    """A Melnikov function as polynomial-in-h combinations of I_0, I_1, I_2.

    M(h) = (p0(h) I_0 + p1(h) I_1 + p2(h) I_2) / (4h+1 if pole else 1),
    with each p stored low-to-high.  An empty tuple means that period does
    not enter on this annulus.
    """

    order: int
    annulus: Annulus
    poly0: tuple[float, ...]
    poly1: tuple[float, ...]
    poly2: tuple[float, ...]
    pole: bool = False

    def coeff_arrays(self):
        return (np.asarray(self.poly0, dtype=float) if self.poly0 else np.zeros(1),
                np.asarray(self.poly1, dtype=float) if self.poly1 else np.zeros(1),
                np.asarray(self.poly2, dtype=float) if self.poly2 else np.zeros(1))


# ---------------------------------------------------------------------------
# order one
# ---------------------------------------------------------------------------


def m1_form(params: PerturbationParams, annulus: Annulus) -> MelnikovForm:
    """Closed form of M1 = contour integral of g dx - f dy (first tier).

    M1 = [ (l1+g2) + (4/7)(l7+3 g9) h ] I_0 + (2 l4 + g3) I_1
         + [ g6 + 3 l8 + l7/7 + 3 g9/7 ] I_2,

    writing l/g for lambda1/gamma1 entries.  On the exterior annulus the odd
    moment I_1 vanishes identically and the middle term is dropped.
    """
    l, g = params.lambda1, params.gamma1
    poly0 = (l[1] + g[2], (4.0 / 7.0) * (l[7] + 3.0 * g[9]))
    poly1 = (2.0 * l[4] + g[3],)
    poly2 = (g[6] + 3.0 * l[8] + l[7] / 7.0 + 3.0 * g[9] / 7.0,)
    if annulus is Annulus.EXTERIOR:
        poly1 = ()
    return MelnikovForm(order=1, annulus=annulus, poly0=poly0, poly1=poly1, poly2=poly2)


_RESIDUAL_TOL = 1e-12


def m1_vanishing_residuals(params: PerturbationParams, annulus: Annulus) -> dict[str, float]:
    """Linear combinations of first-tier parameters that must vanish for M1 = 0.

    The four coefficient functions I_0, h I_0, I_1, I_2 are linearly
    independent on an interior lobe, so M1 = 0 there is equivalent to four
    scalar conditions; on the exterior annulus I_1 drops out and only three
    remain.
    """
    l, g = params.lambda1, params.gamma1
    res = {
        "i0-const": l[1] + g[2],
        "i0-slope": l[7] + 3.0 * g[9],
        "i1": 2.0 * l[4] + g[3],
        "i2": g[6] + 3.0 * l[8],
    }
    if annulus is Annulus.EXTERIOR:
        del res["i1"]
    return res


def m1_vanishes(params: PerturbationParams, annulus: Annulus) -> bool:
    """Whether M1 vanishes identically: every residual of the annulus within 1e-12."""
    return all(abs(v) <= _RESIDUAL_TOL
               for v in m1_vanishing_residuals(params, annulus).values())


def enforce_m1_zero(params: PerturbationParams, annulus: Annulus) -> PerturbationParams:
    """Project onto M1 = 0 by solving the residuals for gamma1 entries.

    Sets g2 = -l1, g9 = -l7/3, g6 = -3 l8 and, on interior lobes only,
    g3 = -2 l4.  Idempotent; leaves every other entry untouched.
    """
    l = params.lambda1
    g = list(params.gamma1)
    g[2] = -l[1]
    g[9] = -l[7] / 3.0
    g[6] = -3.0 * l[8]
    if annulus is not Annulus.EXTERIOR:
        g[3] = -2.0 * l[4]
    return replace(params, gamma1=tuple(g))


# ---------------------------------------------------------------------------
# order two
# ---------------------------------------------------------------------------


def _require_m1_zero(params: PerturbationParams, annulus: Annulus) -> None:
    if not m1_vanishes(params, annulus):
        res = m1_vanishing_residuals(params, annulus)
        bad = {k: v for k, v in res.items() if abs(v) > _RESIDUAL_TOL}
        raise ConstraintError(
            f"second-order form needs M1 = 0 on {annulus.value}; nonzero residuals: {bad}")


def _m2_interior_coeffs(params: PerturbationParams):
    """Derived interior table: ((a0, a1), (b0, b1), (r0, r1))."""
    l, g = params.lambda1, params.gamma1
    m, n = params.lambda2, params.gamma2
    c = l[3] + 2.0 * g[5]
    d = 2.0 * (l[6] + g[7])
    a0 = -c * l[0] + m[1] + n[2]
    a1 = (-(4.0 / 7.0) * (c * l[5] + d * l[8]) - (4.0 / 63.0) * d * l[7]
          + (4.0 / 7.0) * (m[7] + 3.0 * n[9]))
    b0 = (-c * (l[1] + l[8]) - d * (l[0] + l[4]) - (c * l[7] + d * l[5]) / 8.0
          + 2.0 * m[4] + n[3])
    b1 = -(c * l[7] + d * l[5]) / 2.0
    r0 = (-c * l[4] - d * l[1] - c * l[5] / 7.0 - (8.0 / 7.0) * d * l[8]
          - (8.0 / 63.0) * d * l[7]
          + n[6] + 3.0 * m[8] + m[7] / 7.0 + (3.0 / 7.0) * n[9])
    r1 = -(4.0 / 9.0) * d * l[7]
    return (a0, a1), (b0, b1), (r0, r1)


def _m2_exterior_coeffs(params: PerturbationParams):
    """Derived exterior table ((p00, p01, p02), (p20, p21, p22)); overall 1/(4h+1).

    Obtained from the interior-style reduction plus the extra pieces that
    survive only on the exterior annulus (where 2 l4 + g3 need not vanish),
    folded through the inverted period relations.
    """
    l, g = params.lambda1, params.gamma1
    (a0, a1), _, (r0, r1) = _m2_interior_coeffs(params)
    c = l[3] + 2.0 * g[5]
    e = g[3] + 2.0 * l[4]
    p00 = a0 - e * g[0]
    p01 = 4.0 * a0 + a1 + (4.0 / 3.0) * e * g[4] - (8.0 / 15.0) * e * c
    p02 = 4.0 * a1
    q0 = r0 - e * l[3] / 2.0
    p20 = q0 + 5.0 * e * g[0] + (5.0 / 3.0) * e * g[4] - (17.0 / 30.0) * e * c
    p21 = 4.0 * q0 + r1 + (2.0 / 5.0) * e * c
    p22 = 4.0 * r1
    return (p00, p01, p02), (p20, p21, p22)


def m2_form(params: PerturbationParams, annulus: Annulus) -> MelnikovForm:
    """Closed form of the second-order Melnikov function (requires M1 = 0).

    Raises ConstraintError unless the first-order residuals of the annulus
    vanish to 1e-12.  The coefficient tables are the symbolically derived
    ones, validated against quadrature of the Iliev formula and an
    integrate-the-flow oracle.
    """
    _require_m1_zero(params, annulus)
    if annulus is Annulus.EXTERIOR:
        p0, p2 = _m2_exterior_coeffs(params)
        return MelnikovForm(2, annulus, p0, (), p2, pole=True)
    return MelnikovForm(2, annulus, *_m2_interior_coeffs(params))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def m_eval(form: MelnikovForm, h, periods):
    """Evaluate a form at levels h given the matching period values.

    periods is either a PeriodVector or a 3-tuple of arrays (I_0, I_1, I_2)
    aligned with h.  Works for real or complex h; raises PoleError on the
    exterior order-2 pole at h = -1/4 (use pole_cleared_eval there).
    """
    value = pole_cleared_eval(form, h, periods)
    if not form.pole:
        return value
    den = 4.0 * np.asarray(h) + 1.0
    if np.any(np.abs(den) < 1e-13):
        raise PoleError(
            "form has a simple pole at h = -1/4; evaluate pole_cleared_eval "
            "(the combination (4h+1) M) instead")
    return value / den


def pole_cleared_eval(form: MelnikovForm, h, periods):
    """The polynomial-coefficient combination p0 I_0 + p1 I_1 + p2 I_2.

    For pole-free forms this equals m_eval; for the exterior order-2 form it
    is (4h+1) M(h), analytic across h = -1/4 and the right object for
    argument-variation counts.  It is the one-row case of pole_cleared_rows.
    """
    if isinstance(periods, PeriodVector):
        periods = (periods.i0, periods.i1, periods.i2)
    return pole_cleared_rows(form.coeff_arrays(), np.asarray(h), periods)


def _horner(c, x):
    """npoly.polyval(x, c) for every row of c, in polyval's operation order.

    c[..., k] is the coefficient of x^k; the leading axes of c broadcast
    against x, so one call evaluates one polynomial per row.
    """
    v = c[..., -1] + x * 0
    for k in range(2, c.shape[-1] + 1):
        v = c[..., -k] + v * x
    return v


def pole_cleared_rows(coeffs, h, periods):
    """p0 I_0 + p1 I_1 + p2 I_2 for rows of coefficients.

    coeffs holds the three coefficient arrays of the polynomials, powers of h
    along the last axis and one row per form; the leading axes broadcast
    against h and the periods.  Each value takes the operations of
    pole_cleared_eval on its own form and level, so it is the same float.
    """
    (c0, c1, c2), (i0, i1, i2) = coeffs, periods
    return _horner(c0, h) * i0 + _horner(c1, h) * i1 + _horner(c2, h) * i2


# ---------------------------------------------------------------------------
# independent quadrature oracles
# ---------------------------------------------------------------------------


def _across(phi):
    """The oval rule's term phi(x, y) - phi(x, -y), whose integral is the contour
    integral of phi dx, flow orientation.  phi maps x and the stacked branches
    np.array((y, -y)) to both values stacked the same way, in one array pass;
    each element takes its own real float operations, as on its branch alone."""
    def term(x, y):
        up, down = phi(x, np.array((y, -y)))
        return up - down
    return term


def _on_branches(c, x, ys):
    """npoly.polyval2d(x, y, c) for each branch y of the stack ys, in its operation order.

    c is a grid, c[i, j] the coefficient of x^i y^j, or a stack of grids
    along a leading axis, ahead of the result's branch axis; x holds one or
    more levels' nodes.  The x-stage (polyval's tensor pass, one row per power
    of y, ahead of x's axes) runs once; the y-stage runs once on the stack.
    """
    cx = _horner(np.swapaxes(c, -1, -2)[(..., *(None,) * x.ndim, slice(None))], x)
    return _horner(np.swapaxes(cx[..., None], -2 - x.ndim, -1), ys)


def _tier_term(cf, cg):
    """The integrand g - f (x - x^3)/y of g dx - f dy on the oval, f and g given as grids."""
    grids = np.stack([cg, cf])

    def phi(x, ys):
        g, f = _on_branches(grids, x, ys)
        return g - f * (x - x ** 3) / ys
    return _across(phi)


def m1_quadrature(params: PerturbationParams, h: float, annulus: Annulus) -> float:
    """M1 by direct quadrature: contour integral of g dx - f dy (first tier).

    On the oval dy = (x - x^3)/y dx, so the integrand is g - f (x - x^3)/y,
    on both branches in one call; the one-term case of the M2 quadrature.
    Independent of the closed-form coefficient tables: it evaluates the
    first-tier grids directly, and shares the oval rule and _horner with the
    period quadrature, not the tables' coefficients.
    """
    term = _tier_term(params.coeff_grid("lambda1"), params.coeff_grid("gamma1"))
    return float(_oval_rows([term], [h], annulus)[0, 0])


def _iliev_pieces(params: PerturbationParams):
    """Coefficient grids entering the second-order averaging formula.

    Returns (F, divergence, p1 coefficients (A, B, C, D), p2 coefficients
    (E, W)) where F(x, y) = int_0^y f1(x, s) ds - int_0^x g1(s, 0) ds,
    divergence = f1_x + g1_y, the odd generator is G1 = y (A + B x + C x^2
    + D y^2) and the even one G2 = y^2 (E + W x).  Each entry is the float
    npoly.polyint and npoly.polyder give, signed zeros included.
    """
    cf = params.coeff_grid("lambda1")
    cg = params.coeff_grid("gamma1")
    F = np.zeros((5, 5))
    F[:4, 1:] += cf / (1.0, 2.0, 3.0, 4.0)
    F[1:, 0] -= cg[:, 0] / (1.0, 2.0, 3.0, 4.0)
    div = np.zeros((4, 4))
    div[:3] += cf[1:] * ((1.0,), (2.0,), (3.0,))
    div[:, :3] += cg[:, 1:] * (1.0, 2.0, 3.0)
    l, g = params.lambda1, params.gamma1
    p1 = (l[1] + g[2], g[3] + 2.0 * l[4], g[6] + 3.0 * l[8], g[9] + l[7] / 3.0)
    p2 = (g[5] + l[3] / 2.0, g[7] + l[6])
    return F, div, p1, p2


def m2_iliev_quadrature(params: PerturbationParams, h: float, annulus: Annulus) -> float:
    """M2 by direct quadrature of the two-step averaging formula.

    M2 = contour[ G1h P2 - G1 P2h ] dx - contour[ (F/y)(f1_x + g1_y) ] dx
         + contour[ g2 dx - f2 dy ],

    with F the mixed primitive of the first tier, G = g1 + F_x split into
    odd/even parts G1 = y p1(x, y^2), G2 = p2(x, y^2), and P2(x, h) the
    x-primitive of p2 along the oval.  Requires the first-order residuals of
    the annulus to vanish.  The three terms are three rows of the oval rule
    at the level, each on both branches per call, added in that order.
    Independent of the closed-form tables: it shares the oval rule and
    _horner with the period quadrature, not the tables' coefficients.
    """
    _require_m1_zero(params, annulus)
    F, div, (A, B, C, D), (E, W) = _iliev_pieces(params)

    def g1_term(x, ys):
        """One level only: P2 and P2h close over this call's h."""
        p2 = (E * (2.0 * h * x + x ** 3 / 3.0 - x ** 5 / 10.0)
              + W * (h * x * x + x ** 4 / 4.0 - x ** 6 / 12.0))
        p2h, q = 2.0 * E * x + W * x * x, A + B * x + C * x * x
        return (q + 3.0 * D * ys * ys) * p2 / ys - ys * (q + D * ys * ys) * p2h

    def div_term(x, ys):
        return -_on_branches(F, x, ys) / ys * _on_branches(div, x, ys)

    terms = (_across(g1_term), _across(div_term),
             _tier_term(params.coeff_grid("lambda2"), params.coeff_grid("gamma2")))
    total = 0.0
    for value in _oval_rows(terms, [h], annulus)[:, 0].tolist():
        total += value
    return total
