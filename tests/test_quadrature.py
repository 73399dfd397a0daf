"""Doubling Gauss-Legendre rules: exactness, error reporting, path integrals, the oval rule."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import roots_legendre

from duffing_melnikov import quadrature
from duffing_melnikov.abelian import oval_integral, oval_integrals, period_vector
from duffing_melnikov.checks import _grid_for
from duffing_melnikov.geometry import Annulus, branch_points
from duffing_melnikov.melnikov import (
    PerturbationParams,
    enforce_m1_zero,
    m1_quadrature,
    m2_iliev_quadrature,
)
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

# the node counts of the doubling loop: 16, 32, ..., _MAX_NODES
LOOP_SIZES = [16 << k for k in range((quadrature._MAX_NODES // 16).bit_length())]


def _legendre(n, x):
    """P_{n-1}(x) and P_n(x) by the three-term recurrence, in the arithmetic of x."""
    p0, p1 = 1, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p0, p1


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_gl_rule_is_at_least_as_accurate_as_scipy(n):
    # Reference: each float node x >= 0 refined by Newton at 40 digits, and
    # its weight 2 / ((1 - x^2) P_n'(x)^2) there.
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = quadrature._gl_rule(n)
    half = nodes >= 0.0
    roots, exact = [], []
    with mpmath.workdps(40):
        for x in map(mpmath.mpf, nodes[half]):
            for _ in range(3):
                p0, p1 = _legendre(n, x)
                dp = n * (p0 - x * p1) / (1 - x * x)
                x -= p1 / dp
            roots.append(x)
            exact.append(2 / ((1 - x * x) * dp * dp))

        def errors(rule):
            return (max(abs(float(x - r)) for x, r in zip(rule[0][half], roots)),
                    max(abs(float(w / e - 1)) for w, e in zip(rule[1][half], exact)))

        node_err, weight_err = errors((nodes, weights))
        scipy_node_err, scipy_weight_err = errors(roots_legendre(n))
    assert node_err <= scipy_node_err and node_err <= 1.2e-16
    assert weight_err <= scipy_weight_err and weight_err <= 1e-12


def test_gl_rule_matches_scipy():
    # Every n of the doubling loop, and every n from 16 to 160, across the
    # n = 150 where scipy changes algorithm (every n up to 4096 would take
    # minutes).  Nodes agree to 2.5e-16.  Weight by weight, scipy's own error
    # reaches 2e-7 relative next to +-1 at n = 4096 (against 7e-12 here), so
    # the weights are compared by the largest move of the rule's value of any
    # |f| <= 1: sum |w - w_scipy| <= 2.5e-12 of the weight sum 2.
    for n in sorted(set(range(16, 161)) | set(LOOP_SIZES)):
        nodes, weights = quadrature._gl_rule(n)
        scipy_nodes, scipy_weights = roots_legendre(n)
        assert np.abs(nodes - scipy_nodes).max() <= 2.5e-16, n
        assert np.abs(weights - scipy_weights).sum() <= 5e-12, n


@pytest.mark.parametrize("n", LOOP_SIZES)
def test_gl_rule_is_exact_to_degree_2n_minus_1(n):
    nodes, weights = quadrature._gl_rule(n)
    assert (np.diff(nodes) > 0.0).all()
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert weights.sum() == pytest.approx(2.0, abs=2e-15)
    # every degree up to 2n - 1 for n <= 256, an odd stride of degrees above
    degrees = np.unique(np.r_[0:2 * n:2 * (n // 512) + 1, 2 * n - 2, 2 * n - 1])
    powers = nodes ** degrees[:, None]
    exact = np.where(degrees % 2 == 0, 2.0 / (degrees + 1), 0.0)
    assert (np.abs(powers @ weights - exact) <= 1e-12 * (np.abs(powers) @ weights)).all()


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
    # node of every round, on each piece the level is cut into, to 1e-14 of the
    # terms' size 2|h| + x^2 + x^4/2.  Next to the cut, an outer piece of a
    # pinched level must take its branch-point distance directly: as t over the
    # vanishing other factor of t it would be 4e-12 off.  (Relative to y^2 itself no
    # such bound holds next to a branch point, where the node's own rounding is
    # a large part of its distance.)
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
        size = 2.0 * abs(h) + x * x + 0.5 * x ** 4
        assert (np.abs(y * y - (2.0 * h + x * x - 0.5 * x ** 4)) <= 1e-14 * size).all()
        kinds.add(next((kind for kind, (lo, hi) in pieces.items()
                        if annulus is Annulus.EXTERIOR and lo <= x.min() and x.max() <= hi),
                       "whole"))
        assert geom.x_lo < x.min() and x.max() < geom.x_hi
    pinched = annulus is Annulus.EXTERIOR and h < _PINCH_SPLIT_H
    assert kinds == ({"left", "neck", "right"} if pinched else {"whole"})


# ---------------------------------------------------------------------------
# the first rule call covers 16, 32 and 64 nodes, bit for bit
# ---------------------------------------------------------------------------


def _one_rule_per_call(rule, rows, where):
    """The doubling loop driving rule one Gauss-Legendre rule per call."""
    values, errs = [None] * rows, [np.inf] * rows
    live, n = list(range(rows)), 16
    while live and n <= quadrature._MAX_NODES:
        running = []
        f, c, r = rule(live, quadrature._nodes((n,)))
        for i, fi, ri in zip(live, f, r):
            value = np.dot(quadrature._gl_rule(n)[1], fi).item() * c * ri
            prev, values[i] = values[i], value
            if prev is not None:
                errs[i] = abs(value - prev)
                if errs[i] <= max(quadrature._ABS_TOL, quadrature._REL_TOL * abs(value)):
                    continue
            running.append(i)
        live, n = running, 2 * n
    if live:
        i = live[0]
        raise AccuracyError(f"no convergence with {quadrature._MAX_NODES} nodes on {where(i)} "
                            f"(err~{errs[i]:.3g})", value=values[i], err_est=errs[i])
    return list(zip(values, errs))


def _outcome(doubling, rule, rows, where):
    """Every (value, err_est) as bits, or the AccuracyError's message, value and err_est."""
    def bits(v, e):
        return complex(v).real.hex(), complex(v).imag.hex(), float(e).hex()
    try:
        return [bits(v, e) for v, e in doubling(rule, rows, where)]
    except AccuracyError as exc:
        return str(exc), bits(exc.value, exc.err_est)


@pytest.fixture
def against_one_rule_per_call(monkeypatch):
    """Runs every doubling loop both ways; lists (rule calls, merged outcome, reference outcome)."""
    loops, doubling = [], quadrature._doubling

    def both(rule, rows, where):
        calls = []

        def counted(*args):
            calls.append(1)
            return rule(*args)
        loops.append((calls, _outcome(doubling, counted, rows, where),
                       _outcome(_one_rule_per_call, rule, rows, where)))
        return doubling(rule, rows, where)
    monkeypatch.setattr(quadrature, "_doubling", both)
    return loops


def test_first_call_of_three_rules_is_one_rule_per_call_bit_for_bit(against_one_rule_per_call):
    loops = against_one_rule_per_call
    moments = [(0, 1), (1, 1), (2, 1), (0, -1), (2, -1)]
    for annulus, h in ((Annulus.INTERIOR_LEFT, -0.1), (Annulus.INTERIOR_RIGHT, -0.2499),
                       (Annulus.EXTERIOR, 0.3), (Annulus.EXTERIOR, 50.0),
                       (Annulus.EXTERIOR, 0.001), (Annulus.EXTERIOR, 0.01)):
        oval_integrals(moments, [h], annulus)
    for annulus in Annulus:  # verify's picard-fuchs-residual grids
        oval_integrals([(0, 1), (2, 1), (0, -1), (2, -1)], _grid_for(annulus, 50), annulus)
    raw = PerturbationParams.random(np.random.default_rng(35))
    for annulus, h in ((Annulus.INTERIOR_RIGHT, -0.2), (Annulus.EXTERIOR, 0.02),
                       (Annulus.EXTERIOR, 2.0)):
        m1_quadrature(raw, h, annulus)
        m2_iliev_quadrature(enforce_m1_zero(raw, annulus), h, annulus)
    integrate_endpoint_sqrt(lambda x, t: np.exp(x) * np.sqrt(t), -0.3, 1.1)
    integrate_smooth(lambda x: np.cos(40.0 * x), 0.0, 1.0)
    integrate_path(lambda z: 1.0 / z, [1 + 1j, -1 + 1j, -1 - 1j])
    for _, got, want in loops:
        assert got == want
    # a whole 50-level grid is one loop, and some loops run past 64 nodes
    assert any(len(got) == 4 * 50 for _, got, _ in loops)
    assert any(len(calls) > 1 for calls, _, _ in loops)


def test_interior_level_takes_one_rule_call(against_one_rule_per_call):
    period_vector.__wrapped__(-0.2, Annulus.INTERIOR_RIGHT)
    [(calls, got, want)] = against_one_rule_per_call
    assert len(calls) == 1 and got == want


def test_failure_at_max_nodes_is_one_rule_per_call_bit_for_bit(against_one_rule_per_call):
    # I_3 vanishes on the exterior annulus; at h = 1e4 its row never stops
    with pytest.raises(AccuracyError, match="no convergence with 4096 nodes"):
        oval_integral(3, 1e4, Annulus.EXTERIOR)
    [(calls, got, want)] = against_one_rule_per_call
    assert got == want and isinstance(got[0], str)
    assert len(calls) == 1 + int(math.log2(quadrature._MAX_NODES // 64))
