"""Tests for the closed-form Melnikov coefficient tables.

The order-1 table is compared coefficient-by-coefficient against direct
quadrature of the perturbation one-form; the order-2 table against direct
quadrature of the two-step averaging formula.  Structural properties
(linearity in the first tier at order one, quadratic/linear split at order
two, the constraint projection) are checked on top.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from duffing_melnikov import quadrature
from duffing_melnikov.abelian import PoleError, closed_form, period_vector
from duffing_melnikov.geometry import Annulus, branch_points
from duffing_melnikov.quadrature import _oval_rows, integrate_endpoint_sqrt
from duffing_melnikov.zeros import bound_census
from duffing_melnikov.melnikov import (
    MONOMIALS,
    ConstraintError,
    _across,
    _iliev_pieces,
    _on_branches,
    _tier_term,
    PerturbationParams,
    enforce_m1_zero,
    m1_form,
    m1_quadrature,
    m1_vanishing_residuals,
    m2_form,
    m2_iliev_quadrature,
    m_eval,
    pole_cleared_eval,
)

_N = len(MONOMIALS)


def _single(which: str, k: int, value: float = 1.0) -> PerturbationParams:
    z = [0.0] * _N
    v = list(z)
    v[k] = value
    fields = {"lambda1": z, "gamma1": z, "lambda2": z, "gamma2": z}
    fields[which] = v
    return PerturbationParams(**fields)


def _closed_m1(params, h, annulus):
    return float(np.real(m_eval(m1_form(params, annulus),
                                h, period_vector(h, annulus))))


def _closed_m2(params, h, annulus):
    return float(np.real(m_eval(m2_form(params, annulus),
                                h, period_vector(h, annulus))))


# ---------------------------------------------------------------------------
# order one against quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("annulus,h", [
    (Annulus.INTERIOR_RIGHT, -0.125),
    (Annulus.EXTERIOR, 0.8),
])
@pytest.mark.parametrize("which", ["lambda1", "gamma1"])
@pytest.mark.parametrize("k", range(_N))
def test_m1_single_coefficient_against_quadrature(annulus, h, which, k):
    # One basis monomial at a time: this pins every entry of the closed-form
    # table (including the identically-zero ones) against quadrature.
    params = _single(which, k)
    closed = _closed_m1(params, h, annulus)
    quad = m1_quadrature(params, h, annulus)
    assert closed == pytest.approx(quad, rel=1e-9, abs=1e-11)


def test_m1_random_draw_against_quadrature(rng):
    params = PerturbationParams.random(rng)
    for annulus, h in ((Annulus.INTERIOR_LEFT, -0.18), (Annulus.INTERIOR_RIGHT, -0.07),
                       (Annulus.EXTERIOR, 2.0)):
        closed = _closed_m1(params, h, annulus)
        quad = m1_quadrature(params, h, annulus)
        assert closed == pytest.approx(quad, rel=1e-9, abs=1e-11)


@settings(max_examples=20)
@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_m1_form_linear_in_first_tier(a, b):
    rng = np.random.default_rng(7)
    p = PerturbationParams.random(rng)
    q = PerturbationParams.random(rng)
    combo = PerturbationParams(
        tuple(a * x + b * y for x, y in zip(p.lambda1, q.lambda1)),
        tuple(a * x + b * y for x, y in zip(p.gamma1, q.gamma1)),
        p.lambda2, p.gamma2)
    for annulus in (Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR):
        fp, fq, fc = (m1_form(x, annulus) for x in (p, q, combo))
        for slot in ("poly0", "poly1", "poly2"):
            lhs = np.asarray(getattr(fc, slot))
            rhs = a * np.asarray(getattr(fp, slot)) + b * np.asarray(getattr(fq, slot))
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_m1_form_drops_odd_moment_on_exterior():
    params = _single("gamma1", 3)
    assert m1_form(params, Annulus.INTERIOR_RIGHT).poly1 == (1.0,)
    assert m1_form(params, Annulus.EXTERIOR).poly1 == ()


# ---------------------------------------------------------------------------
# order one, reduced exactly to I_0, I_1, I_2
# ---------------------------------------------------------------------------
# A reduced integral is a dict {(k, p): c}, meaning the sum of c h^p I_k.


def _add_to(out: dict, terms: dict, scale, shift: int = 0) -> dict:
    """out += scale * h^shift * terms."""
    for (k, p), c in terms.items():
        out[k, p + shift] = out.get((k, p + shift), Fraction(0)) + scale * c
    return out


def _moment(a: int) -> dict:
    """I_a = contour of x^a y dx, by (b/2 + 3) I_(b+3) = 2 b h I_(b-1) + (b+3) I_(b+1),
    which is the integral of d(x^b y^3) = 0 with y^2 = 2h + x^2 - x^4/2; so
    I_3 = I_1 and I_4 = (4h/7) I_0 + (8/7) I_2."""
    if a < 3:
        return {(a, 0): Fraction(1)}
    b = a - 3
    out = _add_to({}, _moment(b + 1), Fraction(2 * (b + 3), b + 6))
    return _add_to(out, _moment(b - 1), Fraction(4 * b, b + 6), 1) if b else out


def _contour_dx(i: int, j: int) -> dict:
    """Contour of x^i y^j dx: zero for even j, where y^j is a polynomial in x on
    the oval; for odd j, y^j = y (2h + x^2 - x^4/2)^((j-1)/2) expanded in moments."""
    if j % 2 == 0:
        return {}
    poly = {(0, 0): Fraction(1)}  # {(power of x, power of h): c}
    for _ in range(j // 2):
        step: dict = {}
        for (xp, hp), c in poly.items():
            for (dx, dh), d in (((0, 1), 2), ((2, 0), 1), ((4, 0), Fraction(-1, 2))):
                step[xp + dx, hp + dh] = step.get((xp + dx, hp + dh), 0) + c * d
        poly = step
    out: dict = {}
    for (xp, hp), c in poly.items():
        _add_to(out, _moment(i + xp), c, hp)
    return out


def _exact_m1(lam, gam) -> dict:
    """Contour of g dx - f dy, with the contour of x^i y^j dy = -i/(j+1) times
    that of x^(i-1) y^(j+1) dx."""
    out: dict = {}
    for (i, j), l, g in zip(MONOMIALS, lam, gam):
        _add_to(out, _contour_dx(i, j), Fraction(g))
        if i:
            _add_to(out, _contour_dx(i - 1, j + 1), Fraction(l) * Fraction(i, j + 1))
    return out


def _assert_form_is(form, exact: dict, label: str, factor=(1,)):
    """form's polynomials against exact times the polynomial factor, to rounding;
    on the exterior annulus I_1 vanishes identically and form drops it."""
    for k, got in enumerate((form.poly0, form.poly1, form.poly2)):
        if k == 1 and form.annulus is Annulus.EXTERIOR:
            assert got == ()
            continue
        coeffs = [exact.get((k, p), 0) for p in range(max((p for _, p in exact), default=0) + 1)]
        want = [float(sum(coeffs[p - s] * f for s, f in enumerate(factor) if 0 <= p - s < len(coeffs)))
                for p in range(len(coeffs) + len(factor) - 1)]
        width = max(len(got), len(want))
        assert list(got) + [0.0] * (width - len(got)) == pytest.approx(
            want + [0.0] * (width - len(want)), rel=1e-14, abs=1e-15), f"{label}, I_{k}"


@pytest.mark.parametrize("annulus", list(Annulus))
@pytest.mark.parametrize("which", ["lambda1", "gamma1"])
def test_m1_form_equals_the_exact_reduction(annulus, which):
    for k in range(_N):
        params = _single(which, k)
        _assert_form_is(m1_form(params, annulus), _exact_m1(params.lambda1, params.gamma1),
                        f"{which}[{k}]")


@pytest.mark.parametrize("annulus", list(Annulus))
@pytest.mark.parametrize("which", ["lambda2", "gamma2"])
def test_m2_linear_part_equals_the_exact_m1_reduction(annulus, which):
    # with no first tier, M_2 is the first-order integral of the second tier,
    # over the common denominator 4h + 1 on the exterior annulus
    factor = (1, 4) if annulus is Annulus.EXTERIOR else (1,)
    for k in range(_N):
        params = _single(which, k)
        _assert_form_is(m2_form(params, annulus), _exact_m1(params.lambda2, params.gamma2),
                        f"{which}[{k}]", factor)


# ---------------------------------------------------------------------------
# the vanishing constraint
# ---------------------------------------------------------------------------


def test_residual_names_per_annulus():
    res = m1_vanishing_residuals(PerturbationParams.zero(), Annulus.INTERIOR_RIGHT)
    assert sorted(res) == ["i0-const", "i0-slope", "i1", "i2"]
    res = m1_vanishing_residuals(PerturbationParams.zero(), Annulus.EXTERIOR)
    assert sorted(res) == ["i0-const", "i0-slope", "i2"]


@pytest.mark.parametrize("annulus", list(Annulus))
def test_enforce_kills_residuals_and_is_idempotent(annulus, rng):
    params = PerturbationParams.random(rng)
    fixed = enforce_m1_zero(params, annulus)
    assert all(abs(v) < 1e-15
               for v in m1_vanishing_residuals(fixed, annulus).values())
    assert enforce_m1_zero(fixed, annulus) == fixed
    # only gamma1 is touched
    assert fixed.lambda1 == params.lambda1
    assert fixed.lambda2 == params.lambda2
    assert fixed.gamma2 == params.gamma2


def test_enforce_keeps_odd_moment_slot_on_exterior(rng, monkeypatch):
    params = PerturbationParams.random(rng)
    fixed = enforce_m1_zero(params, Annulus.EXTERIOR)
    assert fixed.gamma1[3] == params.gamma1[3]
    # the quadrature of an identically-zero integral cannot hit a relative
    # target, and its rounding noise at h = 5 can stay above the default
    # absolute one, so loosen that to 1e-10
    monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-10)
    for h in (0.1, 1.0, 5.0):
        assert abs(m1_quadrature(fixed, h, Annulus.EXTERIOR)) < 1e-10


def test_constrained_draw_vanishes_pointwise_interior(rng):
    fixed = enforce_m1_zero(PerturbationParams.random(rng), Annulus.INTERIOR_RIGHT)
    for h in (-0.2, -0.1, -0.03):
        assert abs(m1_quadrature(fixed, h, Annulus.INTERIOR_RIGHT)) < 1e-11


def test_second_order_form_requires_constraint(rng):
    params = PerturbationParams.random(rng)
    with pytest.raises(ConstraintError):
        m2_form(params, Annulus.INTERIOR_RIGHT)


# ---------------------------------------------------------------------------
# order two against quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("annulus,levels", [
    (Annulus.INTERIOR_RIGHT, (-0.2, -0.06)),
    (Annulus.EXTERIOR, (0.3, 1.7)),
])
def test_m2_against_iliev_quadrature(annulus, levels):
    for seed in (5, 6):
        rng = np.random.default_rng(seed)
        params = enforce_m1_zero(PerturbationParams.random(rng), annulus)
        for h in levels:
            closed = _closed_m2(params, h, annulus)
            quad = m2_iliev_quadrature(params, h, annulus)
            assert closed == pytest.approx(quad, rel=1e-9, abs=1e-11)


# ---------------------------------------------------------------------------
# the quadrature oracles against a term-by-term reference, bit for bit
# ---------------------------------------------------------------------------

# The reference integrates each term in a one-row loop of its own, with
# numpy.polynomial evaluating and building the coefficient grids on each
# branch separately; the library runs the terms as rows of one loop and
# evaluates both branches as one stacked array.


def _reference_integral(phi, h, annulus):
    # y^2 = t sigma(x) with the smooth factor sigma of the unsplit oval
    geom = branch_points(h, annulus)

    def integrand(x, t):
        sigma = (0.5 * (x * x + math.sqrt(1.0 + 4.0 * h) - 1.0) if annulus is Annulus.EXTERIOR
                 else 0.5 * (x + geom.x_lo) * (x + geom.x_hi))
        y = np.maximum(np.sqrt(t * sigma), 1e-300)
        return phi(x, y) - phi(x, -y)

    return integrate_endpoint_sqrt(integrand, geom.x_lo, geom.x_hi)[0]


def _reference_tier(cf, cg):
    return lambda x, y: npoly.polyval2d(x, y, cg) - npoly.polyval2d(x, y, cf) * (x - x ** 3) / y


def _reference_pieces(params):
    cf, cg = params.coeff_grid("lambda1"), params.coeff_grid("gamma1")
    g_on_axis = np.zeros_like(cg)
    g_on_axis[:, 0] = cg[:, 0]
    F = np.zeros((5, 5))
    F[:4, :5] += npoly.polyint(cf, axis=1)
    F[:5, :4] -= npoly.polyint(g_on_axis, axis=0)
    div = np.zeros((4, 4))
    div[:3, :4] += npoly.polyder(cf, axis=0)
    div[:4, :3] += npoly.polyder(cg, axis=1)
    return F, div


def _reference_m2_terms(params, h):
    F, div = _reference_pieces(params)
    _, _, (A, B, C, D), (E, W) = _iliev_pieces(params)

    def phi_g1(x, y):
        p2 = (E * (2.0 * h * x + x ** 3 / 3.0 - x ** 5 / 10.0)
              + W * (h * x * x + x ** 4 / 4.0 - x ** 6 / 12.0))
        g1y = A + B * x + C * x * x + 3.0 * D * y * y
        g1 = y * (A + B * x + C * x * x + D * y * y)
        return g1y * p2 / y - g1 * (2.0 * E * x + W * x * x)

    def phi_div(x, y):
        return -npoly.polyval2d(x, y, F) / y * npoly.polyval2d(x, y, div)

    return (phi_g1, phi_div,
            _reference_tier(params.coeff_grid("lambda2"), params.coeff_grid("gamma2")))


def _reference_m2(params, h, annulus):
    total = 0.0
    for phi in _reference_m2_terms(params, h):
        total += _reference_integral(phi, h, annulus)
    return total


def _bits(values):
    return np.array(values, dtype=float).view(np.int64)


_EDGE_LEVELS = {Annulus.INTERIOR_LEFT: (-0.2499, -0.18, -0.07, -0.001),
                Annulus.INTERIOR_RIGHT: (-0.2499, -0.125, -0.02, -0.001),
                Annulus.EXTERIOR: (0.05, 0.3, 1.0, 20.0)}  # unsplit levels only


@pytest.mark.parametrize("annulus", list(Annulus))
def test_quadratures_equal_the_term_by_term_reference_bit_for_bit(annulus):
    got, want = [], []
    for k in range(3):
        raw = PerturbationParams.random(np.random.default_rng([15, k]))
        constrained = enforce_m1_zero(raw, annulus)
        ref_m1 = _reference_tier(raw.coeff_grid("lambda1"), raw.coeff_grid("gamma1"))
        for h in _EDGE_LEVELS[annulus]:
            got += [m1_quadrature(raw, h, annulus), m2_iliev_quadrature(constrained, h, annulus)]
            want += [_reference_integral(ref_m1, h, annulus),
                     _reference_m2(constrained, h, annulus)]
    assert (_bits(got) == _bits(want)).all()


def _oval_nodes(h, annulus):
    """Every (x, y) the oval rule hands a term at level h, all pieces and rounds."""
    seen = []
    _oval_rows([lambda x, y: seen.append((x, y)) or y], [h], annulus)
    return seen


@pytest.mark.parametrize("annulus,h", [(Annulus.INTERIOR_RIGHT, -0.2499),
                                       (Annulus.INTERIOR_LEFT, -0.001),
                                       (Annulus.EXTERIOR, 0.001), (Annulus.EXTERIOR, 0.01),
                                       (Annulus.EXTERIOR, 50.0)])
def test_stacked_branches_equal_polyval2d_on_each_branch_bit_for_bit(annulus, h):
    # _on_branches and _across run both branches as one stacked array; each
    # element must be npoly.polyval2d's float on its own branch, signed zeros
    # included.  The split exterior levels pass the left, neck and right nodes.
    rng = np.random.default_rng(17)
    grids = rng.standard_normal((3, 4, 4))
    grids[1] = np.where(np.abs(grids[1]) > 0.7, grids[1], np.copysign(0.0, grids[1]))
    grids[2] = -0.0
    nodes = _oval_nodes(h, annulus)
    # at least the 16-, 32- and 64-node rules on each piece
    pieces = 3 if annulus is Annulus.EXTERIOR and h < 0.05 else 1
    assert sum(x.size for x, _ in nodes) >= pieces * (16 + 32 + 64)
    for x, y in nodes:
        ys = np.array((y, -y))
        stack = _on_branches(grids, x, ys)
        for k, c in enumerate(grids):
            want = [npoly.polyval2d(x, b, c) for b in (y, -y)]
            assert (_bits(_on_branches(c, x, ys)) == _bits(want)).all()
            assert (_bits(stack[k]) == _bits(want)).all()
            across = _across(lambda x, ys, c=c: _on_branches(c, x, ys))(x, y)
            assert (_bits(across) == _bits(want[0] - want[1])).all()
        for cf, cg in ((grids[0], grids[1]), (grids[2], grids[2])):
            reference = _reference_tier(cf, cg)
            assert (_bits(_tier_term(cf, cg)(x, y))
                    == _bits(reference(x, y) - reference(x, -y))).all()


@pytest.mark.parametrize("h", [1e-5, 1e-4, 1e-3, 0.01, 0.0499])
def test_oracles_match_the_closed_form_at_pinched_exterior_levels(h):
    # below h = 0.05 the oval rule splits the exterior oval at its neck, so the
    # oracles converge where the unsplit rule ran out of nodes
    annulus = Annulus.EXTERIOR
    i0, i1, i2, _, _ = closed_form(h, annulus)
    for seed in range(4):
        raw = PerturbationParams.random(np.random.default_rng([16, seed]))
        constrained = enforce_m1_zero(raw, annulus)
        assert m1_quadrature(raw, h, annulus) == pytest.approx(
            float(m_eval(m1_form(raw, annulus), h, (i0, i1, i2))), rel=1e-13, abs=0.0)
        assert m2_iliev_quadrature(constrained, h, annulus) == pytest.approx(
            float(m_eval(m2_form(constrained, annulus), h, (i0, i1, i2))), rel=1e-13, abs=0.0)


def test_iliev_pieces_equal_polyint_and_polyder_bit_for_bit():
    rng = np.random.default_rng(16)
    for k in range(200):
        params = PerturbationParams.random(rng)
        if k % 2:  # signed zeros among the coefficients
            params = PerturbationParams(*(tuple(v if abs(v) > 0.5 else np.copysign(0.0, v)
                                                for v in tier)
                                          for tier in (params.lambda1, params.gamma1,
                                                       params.lambda2, params.gamma2)))
        F, div, _, _ = _iliev_pieces(params)
        ref_F, ref_div = _reference_pieces(params)
        assert (_bits(F) == _bits(ref_F)).all() and (_bits(div) == _bits(ref_div)).all()


def test_m2_rows_take_as_many_rounds_as_the_slowest_term(monkeypatch):
    # the three terms are rows of one doubling loop, not three loops in turn,
    # and that loop evaluates as many Gauss-Legendre rules as the slowest term
    sizes, loops = [], []
    rule, doubling = quadrature._gl_rule, quadrature._doubling
    monkeypatch.setattr(quadrature, "_gl_rule", lambda n: sizes.append(n) or rule(n))
    monkeypatch.setattr(quadrature, "_doubling", lambda *a: loops.append(1) or doubling(*a))
    for annulus, h in ((Annulus.INTERIOR_RIGHT, -0.2499), (Annulus.EXTERIOR, 0.3)):
        params = enforce_m1_zero(PerturbationParams.random(np.random.default_rng(3)), annulus)
        alone = []
        loops.clear()
        for phi in _reference_m2_terms(params, h):
            sizes.clear()
            _reference_integral(phi, h, annulus)
            alone.append(len(sizes))
        assert len(loops) == 3
        sizes.clear()
        loops.clear()
        m2_iliev_quadrature(params, h, annulus)
        assert len(loops) == 1
        assert len(sizes) == max(alone) < sum(alone)


@pytest.mark.parametrize("annulus,hs", [(Annulus.INTERIOR_RIGHT, (-0.2, -0.05)),
                                        (Annulus.INTERIOR_RIGHT, (-0.2, -0.15, -0.1, -0.05)),
                                        (Annulus.EXTERIOR, (0.3, 1.0, 4.0, 20.0))])
def test_oracle_terms_on_several_levels_equal_each_level_alone_bit_for_bit(annulus, hs):
    # Terms are elementwise over levels: the grid's power of y must not land on
    # a level axis of x (4 levels against 4 powers of y once broadcast silently).
    params = PerturbationParams.random(np.random.default_rng(3))
    F, div, _, _ = _iliev_pieces(params)
    terms = [_tier_term(params.coeff_grid("lambda1"), params.coeff_grid("gamma1")),
             _across(lambda x, ys: -_on_branches(F, x, ys) / ys * _on_branches(div, x, ys))]
    grid = _oval_rows(terms, hs, annulus)
    alone = np.array([_oval_rows(terms, [h], annulus)[:, 0] for h in hs]).T
    assert (_bits(grid) == _bits(alone)).all()
    assert (_bits(grid[0]) == _bits([m1_quadrature(params, h, annulus) for h in hs])).all()


def test_crosscheck_loop_makes_no_polyval_call(monkeypatch):
    calls = []
    polyval = npoly.polyval
    monkeypatch.setattr(npoly, "polyval", lambda *a, **k: calls.append(1) or polyval(*a, **k))
    raw = PerturbationParams.random(np.random.default_rng(20260815))
    for annulus, levels in ((Annulus.INTERIOR_RIGHT, (-0.23, -0.02)),
                            (Annulus.EXTERIOR, (0.05, 9.0))):
        constrained = enforce_m1_zero(raw, annulus)
        for h in levels:
            pv = period_vector(h, annulus)
            m_eval(m1_form(raw, annulus), h, pv)
            m_eval(m2_form(constrained, annulus), h, pv)
            m1_quadrature(raw, h, annulus)
            m2_iliev_quadrature(constrained, h, annulus)
    assert calls == []


@pytest.mark.parametrize("seed,draw,levels", [(20, 1, (0.01, 0.3, 2.0, 5.0)),
                                              (30, 2, (0.05, 0.2, 2.0, 5.0))])
def test_m1_quadrature_changes_sign_between_certified_real_roots(seed, draw, levels):
    # Two exterior order-1 census draws whose certificates count three real
    # zeros of M1 on h > 0.  Direct quadrature, which does not use the closed
    # form the certificate evaluates, changes sign between each pair of them.
    certs, _ = bound_census(1, Annulus.EXTERIOR, n_draws=draw + 1, seed=seed)
    roots = [r for r, _ in certs[draw].real_roots]
    assert len(roots) == 3
    assert levels[0] < roots[0] < levels[1] < roots[1] < levels[2] < roots[2] < levels[3]
    rng = np.random.default_rng(seed)
    params = [PerturbationParams.uniform(rng) for _ in range(draw + 1)][draw]
    values = [m1_quadrature(params, h, Annulus.EXTERIOR) for h in levels]
    assert all(a * b < 0.0 for a, b in zip(values, values[1:]))


def test_m2_splits_into_quadratic_and_linear_parts():
    rng = np.random.default_rng(11)
    base = enforce_m1_zero(PerturbationParams.random(rng), Annulus.INTERIOR_RIGHT)
    z = (0.0,) * _N
    tier1 = PerturbationParams(base.lambda1, base.gamma1, z, z)
    tier2 = PerturbationParams(z, z, base.lambda2, base.gamma2)
    s, t = 0.7, -1.3
    scaled = PerturbationParams(
        tuple(s * v for v in base.lambda1), tuple(s * v for v in base.gamma1),
        tuple(t * v for v in base.lambda2), tuple(t * v for v in base.gamma2))
    annulus = Annulus.INTERIOR_RIGHT
    f1 = m2_form(tier1, annulus)
    f2 = m2_form(tier2, annulus)
    fs = m2_form(scaled, annulus)
    for slot in ("poly0", "poly1", "poly2"):
        lhs = np.asarray(getattr(fs, slot))
        rhs = (s * s * np.asarray(getattr(f1, slot))
               + t * np.asarray(getattr(f2, slot)))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_m2_derived_table_matches_quadrature_on_a_generic_draw():
    rng = np.random.default_rng(21)
    annulus = Annulus.EXTERIOR
    params = enforce_m1_zero(PerturbationParams.random(rng), annulus)
    h = 0.9
    quad = m2_iliev_quadrature(params, h, annulus)
    assert _closed_m2(params, h, annulus) == pytest.approx(quad, rel=1e-9)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_exterior_m2_pole_handling(rng):
    params = enforce_m1_zero(PerturbationParams.random(rng), Annulus.EXTERIOR)
    form = m2_form(params, Annulus.EXTERIOR)
    assert form.pole
    pv = period_vector(0.7, Annulus.EXTERIOR)
    full = m_eval(form, 0.7, pv)
    cleared = pole_cleared_eval(form, 0.7, pv)
    assert (4.0 * 0.7 + 1.0) * full == pytest.approx(complex(cleared).real, rel=1e-12)
    with pytest.raises(PoleError):
        m_eval(form, -0.25, (1.0, 0.0, 1.0))


def test_pole_free_eval_agrees(rng):
    params = PerturbationParams.random(rng)
    form = m1_form(params, Annulus.INTERIOR_RIGHT)
    pv = period_vector(-0.1, Annulus.INTERIOR_RIGHT)
    assert m_eval(form, -0.1, pv) == pytest.approx(pole_cleared_eval(form, -0.1, pv))


def test_eval_accepts_arrays():
    params = _single("lambda1", 1)
    form = m1_form(params, Annulus.EXTERIOR)
    h = np.array([0.5, 1.0, 2.0])
    i0 = np.array([period_vector(x, Annulus.EXTERIOR)[0] for x in h])
    vals = m_eval(form, h, (i0, np.zeros(3), np.zeros(3)))
    assert np.allclose(vals, i0)


# ---------------------------------------------------------------------------
# parameter container
# ---------------------------------------------------------------------------


def test_params_json_roundtrip(rng):
    params = PerturbationParams.random(rng)
    again = PerturbationParams.from_json(params.to_json())
    assert again == params


def test_params_from_dict_fills_missing_with_zeros():
    p = PerturbationParams.from_dict({"lambda1": [1.0] + [0.0] * (_N - 1)})
    assert p.lambda1[0] == 1.0
    assert p.gamma1 == (0.0,) * _N
    assert PerturbationParams.from_dict({}) == PerturbationParams.zero()


def test_params_from_dict_rejects_extras_and_bad_length():
    with pytest.raises(ValueError):
        PerturbationParams.from_dict({"lambda3": [0.0] * _N})
    with pytest.raises(ValueError):
        PerturbationParams.from_dict({"gamma1": [0.0] * (_N - 1)})
    with pytest.raises(ValueError):
        PerturbationParams.from_json("[1, 2, 3]")
    zero = (0.0,) * _N
    with pytest.raises(ValueError, match="lambda1 needs 10 coefficients, got 9"):
        PerturbationParams(zero[:-1], zero, zero, zero)


def test_uniform_draw_stays_in_box(rng):
    params = PerturbationParams.uniform(rng)
    for field in (params.lambda1, params.gamma1, params.lambda2, params.gamma2):
        assert len(field) == _N
        assert all(-1.0 <= v <= 1.0 for v in field)


def test_coeff_grid_layout():
    params = _single("gamma1", 8, 2.5)  # monomial x^3
    grid = params.coeff_grid("gamma1")
    assert grid.shape == (4, 4)
    assert grid[3, 0] == 2.5
    assert grid.sum() == 2.5
    for idx, (i, j) in enumerate(MONOMIALS):
        single = _single("lambda1", idx, 1.0).coeff_grid("lambda1")
        assert single[i, j] == 1.0
