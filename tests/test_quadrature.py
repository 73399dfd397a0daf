"""Doubling Gauss-Legendre rules: exactness, error reporting, path integrals, the oval rule."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from duffing_melnikov import quadrature
from duffing_melnikov.geometry import Annulus, branch_points
from duffing_melnikov.quadrature import (
    AccuracyError,
    _PINCH_SPLIT_H,
    _oval_rows,
    integrate_endpoint_sqrt,
    integrate_path,
    integrate_smooth,
)

INTERVALS = st.tuples(st.floats(-3.0, 2.0), st.floats(0.1, 4.0)).map(
    lambda ab: (ab[0], ab[0] + ab[1]))


@given(ab=INTERVALS)
def test_sqrt_weight_area(ab):
    # closed form: integral of sqrt((x-a)(b-x)) over [a,b] is pi (b-a)^2 / 8
    a, b = ab
    value, err = integrate_endpoint_sqrt(lambda x, t: np.sqrt(t), a, b)
    exact = math.pi * (b - a) ** 2 / 8.0
    assert value == pytest.approx(exact, rel=1e-12)
    assert err <= 1e-9 * abs(exact) + 1e-12


@given(ab=INTERVALS)
def test_reciprocal_sqrt_weight(ab):
    a, b = ab
    value, _ = integrate_endpoint_sqrt(lambda x, t: 1.0 / np.sqrt(t), a, b)
    assert value == pytest.approx(math.pi, rel=1e-12)


def test_first_moment_with_sqrt_weight():
    a, b = -0.3, 1.1
    value, _ = integrate_endpoint_sqrt(lambda x, t: x * np.sqrt(t), a, b)
    exact = math.pi * (b - a) ** 2 / 8.0 * 0.5 * (a + b)
    assert value == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_product_argument_is_exact_endpoint_product():
    a, b = 0.0, 2.0
    value, _ = integrate_endpoint_sqrt(lambda x, t: t, a, b)
    assert value == pytest.approx((b - a) ** 3 / 6.0, rel=1e-13)


@given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8))
def test_smooth_polynomial_exactness(coeffs):
    a, b = -1.2, 0.7
    poly = np.polynomial.Polynomial(coeffs)
    value, _ = integrate_smooth(lambda x: poly(x), a, b)
    exact = poly.integ()(b) - poly.integ()(a)
    assert value == pytest.approx(exact, rel=1e-12, abs=1e-12)


# each integrator on an oscillation that 16 and 32 nodes cannot resolve,
# with the interval or segment its error message must name
UNRESOLVED = {
    "integrate_endpoint_sqrt": (
        lambda: integrate_endpoint_sqrt(lambda x, t: np.sqrt(t) * np.cos(377.0 * x), 0.0, 1.0),
        "on [0.0, 1.0]"),
    "integrate_smooth": (
        lambda: integrate_smooth(lambda x: np.cos(377.0 * x), 0.0, 1.0),
        "on [0.0, 1.0]"),
    "integrate_path": (
        lambda: integrate_path(lambda z: np.cos(377.0 * z), [0.0, 1.0j]),
        "on segment 0j -> 1j"),
}


@pytest.mark.parametrize("name", sorted(UNRESOLVED))
def test_failure_carries_best_value(name, monkeypatch):
    integrate, where = UNRESOLVED[name]
    monkeypatch.setattr(quadrature, "_MAX_NODES", 32)
    with pytest.raises(AccuracyError) as info:
        integrate()
    assert info.value.value is not None
    assert info.value.err_est > 0.0
    assert where in str(info.value)
    assert "no convergence with 32 nodes" in str(info.value)


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        integrate_endpoint_sqrt(lambda x, t: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_smooth(lambda x: x, 2.0, -1.0)


def test_path_winding_of_reciprocal():
    square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    value = integrate_path(lambda z: 1.0 / z, square)
    assert value == pytest.approx(2j * math.pi, abs=1e-12)


def test_path_antiderivative_independence():
    exact = (1.0 + 1.0j) ** 3 / 3.0
    direct = integrate_path(lambda z: z * z, [0.0, 1.0 + 1.0j])
    detour = integrate_path(lambda z: z * z, [0.0, 1.0, 1.0 + 1.0j])
    assert direct == pytest.approx(exact, abs=1e-13)
    assert detour == pytest.approx(exact, abs=1e-13)


def test_path_needs_two_vertices():
    with pytest.raises(ValueError):
        integrate_path(lambda z: z, [1.0])


@pytest.mark.parametrize("annulus,h", [
    (Annulus.INTERIOR_LEFT, -0.04),
    (Annulus.INTERIOR_RIGHT, -0.2),
    (Annulus.EXTERIOR, 0.3),
    (Annulus.EXTERIOR, 1e-3),  # pinched: left, neck and right of |x| = 0.5
])
def test_oval_rule_y_is_the_upper_branch_on_every_piece(annulus, h):
    # A term that records the rule's (x, y) sees y^2 = 2h + x^2 - x^4/2 at every
    # node of every round, on each piece the level is cut into.
    geom = branch_points(h, annulus)
    calls = []

    def record(x, y):
        calls.append((x.copy(), y.copy()))
        return np.ones_like(x)

    length = _oval_rows([record], [h], annulus)[0, 0]
    assert length == pytest.approx(geom.x_hi - geom.x_lo, rel=1e-12)
    pieces = {"left": (geom.x_lo, -0.5), "neck": (-0.5, 0.5), "right": (0.5, geom.x_hi)}
    kinds = set()
    for x, y in calls:
        assert (y > 0.0).all()
        assert np.allclose(y * y, 2.0 * h + x * x - 0.5 * x ** 4, rtol=1e-10, atol=1e-14)
        kinds.add(next((kind for kind, (lo, hi) in pieces.items()
                        if annulus is Annulus.EXTERIOR and lo <= x.min() and x.max() <= hi),
                       "whole"))
        assert geom.x_lo < x.min() and x.max() < geom.x_hi
    pinched = annulus is Annulus.EXTERIOR and h < _PINCH_SPLIT_H
    assert kinds == ({"left", "neck", "right"} if pinched else {"whole"})
