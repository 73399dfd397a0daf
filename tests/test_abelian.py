"""Tests for the oval integrals, their linear relations, and continuation.

Everything here is cross-checked against an independent route: the period
system, the moment reductions, the closed form, the transported complex
values and the asymptotic constants against direct quadrature, and the
closed form at complex levels against Picard-Fuchs transport.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duffing_melnikov import quadrature
from duffing_melnikov.abelian import (
    BASE_POINTS,
    MIN_CLEARANCE,
    SADDLE_LOG_I0,
    SADDLE_LOG_I2,
    PathError,
    RealPeriodTable,
    _check_path,
    _pf_matrix,
    _rf_rd,
    closed_form,
    continue_paths,
    cut_values,
    derivative_pair,
    exterior_slope,
    i1_slope,
    nonvanishing_grid,
    orbit_period,
    oval_integral,
    oval_integrals,
    period_vector,
    reduce_moment,
    saddle_constants,
    saddle_log_fit,
    transport_table,
    wronskian_cut,
)
from duffing_melnikov.geometry import Annulus, DomainError
from duffing_melnikov.quadrature import AccuracyError
from duffing_melnikov.zeros import contour_table, keyhole_vertices

INTERIOR_LEVELS = (-0.23, -0.18, -0.125, -0.07, -0.02)
EXTERIOR_LEVELS = (0.02, 0.2, 1.0, 3.0, 9.0)


def _levels(annulus):
    return EXTERIOR_LEVELS if annulus is Annulus.EXTERIOR else INTERIOR_LEVELS


# ---------------------------------------------------------------------------
# real-annulus basics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("annulus", list(Annulus))
def test_area_and_period_positive(annulus):
    for h in _levels(annulus):
        assert oval_integral(0, h, annulus) > 0.0
        assert orbit_period(h, annulus) > 0.0


def test_interior_lobes_mirror():
    # x -> -x maps one lobe onto the other: even moments agree, odd flip sign.
    for h in INTERIOR_LEVELS:
        r0, r1, r2 = period_vector(h, Annulus.INTERIOR_RIGHT)
        l0, l1, l2 = period_vector(h, Annulus.INTERIOR_LEFT)
        assert r0 == pytest.approx(l0, rel=1e-12)
        assert r2 == pytest.approx(l2, rel=1e-12)
        assert r1 == pytest.approx(-l1, rel=1e-12)


def test_first_moment_is_exactly_linear():
    # On an interior lobe I_1(h) = c (4h + 1) with c = +-pi / (2 sqrt 2): with
    # u = x^2, 2 int x y dx = int y du and y^2 = ((4h + 1) - (u - 1)^2) / 2, a
    # half-ellipse over u in [1 - s, 1 + s], s = sqrt(4h + 1), of area
    # pi s^2 / (2 sqrt 2).  i1_slope is that constant; the quadrature meets it.
    slope = i1_slope(Annulus.INTERIOR_RIGHT)
    assert slope == math.pi / (2 * math.sqrt(2))
    assert i1_slope(Annulus.INTERIOR_LEFT) == -slope
    for h in INTERIOR_LEVELS:
        i1 = oval_integral(1, h, Annulus.INTERIOR_RIGHT)
        assert i1 == pytest.approx(slope * (4.0 * h + 1.0), rel=1e-11, abs=1e-13)


def test_first_moment_vanishes_on_exterior():
    assert i1_slope(Annulus.EXTERIOR) == 0.0
    for h in EXTERIOR_LEVELS:
        assert abs(oval_integral(1, h, Annulus.EXTERIOR)) < 1e-13


@pytest.mark.parametrize("annulus", list(Annulus))
def test_level_grid_is_bit_for_bit_the_one_level_calls(annulus):
    # Each (moment, level) row of the batch stops at its own node count and is
    # summed by its own ddot, so it is the float of the level's own call.
    rng = np.random.default_rng(14)
    if annulus is Annulus.EXTERIOR:  # pinched (neck) levels below h = 0.05, then the rest
        hs = np.concatenate([rng.uniform(1e-3, 0.05, 8), rng.uniform(0.05, 50.0, 12)])
    else:
        hs = rng.uniform(-0.2499, -1e-3, 16)
    pairs = [(k, power) for k in range(7) for power in (1, -1)]
    grid = oval_integrals(pairs, hs, annulus)
    one = np.array([[oval_integrals([(k, power)], [h], annulus)[0, 0] for h in hs]
                    for k, power in pairs])
    assert grid.shape == (len(pairs), len(hs))
    assert np.array_equal(grid.view(np.int64), one.view(np.int64))


def test_period_vector_runs_a_levels_quadrature_once(monkeypatch):
    # The memo's entry is the uncached call's (I_0, I_1, I_2) floats, bit for
    # bit; a float and an np.float64 level share it; a repeated level runs no
    # Gauss-Legendre round.
    sizes = []
    rule = quadrature._gl_rule
    monkeypatch.setattr(quadrature, "_gl_rule", lambda n: sizes.append(n) or rule(n))
    period_vector.cache_clear()
    for annulus, h in ((Annulus.INTERIOR_LEFT, -0.0917), (Annulus.EXTERIOR, 0.0123),
                       (Annulus.EXTERIOR, 7.5)):
        ref = period_vector.__wrapped__(h, annulus)
        first = period_vector(np.float64(h), annulus)
        sizes.clear()
        again = period_vector(h, annulus)
        assert again is first and sizes == []
        assert [type(x) for x in first] == [float] * 3
        assert np.array_equal(np.array(first).view(np.int64), np.array(ref).view(np.int64))
    assert period_vector.cache_info().currsize == 3


def test_level_grid_fails_on_a_level_as_that_level_alone():
    # I_3 vanishes on the exterior annulus; at h = 1e4 its rounding noise stays
    # above the absolute tolerance, so its row never stops.
    with pytest.raises(AccuracyError) as alone:
        oval_integral(3, 1e4, Annulus.EXTERIOR)
    with pytest.raises(AccuracyError) as batch:
        oval_integrals([(0, 1), (3, 1), (2, -1)], [0.02, 1.0, 1e4, 3.0], Annulus.EXTERIOR)
    assert "no convergence with 4096 nodes" in str(alone.value)
    assert str(batch.value) == str(alone.value)
    assert (batch.value.value, batch.value.err_est) == (alone.value.value, alone.value.err_est)


# ---------------------------------------------------------------------------
# the period system and moment reductions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("annulus", list(Annulus))
def test_period_system_matches_quadrature_derivatives(annulus):
    # derivative_pair reconstructs I_0', I_2' from (I_0, I_2) alone; both
    # derivatives are also directly computable as integrals of x^k / y.
    for h in _levels(annulus):
        i0, _, i2 = period_vector(h, annulus)
        d0, d2 = derivative_pair(h, i0, i2)
        q0, q2 = oval_integrals([(0, -1), (2, -1)], [h], annulus)[:, 0]
        assert complex(d0).imag == 0.0
        assert d0.real == pytest.approx(q0, rel=1e-10)
        assert d2.real == pytest.approx(q2, rel=1e-10)


@pytest.mark.parametrize("annulus", list(Annulus))
def test_period_system_matches_finite_differences(annulus):
    h = -0.11 if annulus is not Annulus.EXTERIOR else 0.9
    delta = 1e-5
    i0, _, i2 = period_vector(h, annulus)
    d0, d2 = derivative_pair(h, i0, i2)
    fd0 = (oval_integral(0, h + delta, annulus) - oval_integral(0, h - delta, annulus)) / (2 * delta)
    fd2 = (oval_integral(2, h + delta, annulus) - oval_integral(2, h - delta, annulus)) / (2 * delta)
    assert d0.real == pytest.approx(fd0, rel=1e-6)
    assert d2.real == pytest.approx(fd2, rel=1e-6)


@pytest.mark.parametrize("annulus", list(Annulus))
@pytest.mark.parametrize("k", [3, 4, 6])
def test_moment_reductions(annulus, k):
    for h in _levels(annulus)[::2]:
        pv = period_vector(h, annulus)
        direct = oval_integral(k, h, annulus)
        assert complex(reduce_moment(k, h, pv)).real == pytest.approx(
            direct, rel=1e-10, abs=1e-12)


def test_moment_reduction_unknown_k():
    pv = period_vector(-0.125, Annulus.INTERIOR_RIGHT)
    with pytest.raises(ValueError):
        reduce_moment(5, -0.125, pv)


@pytest.mark.parametrize("annulus", [Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR])
def test_y_cubed_reduction(annulus):
    # contour integral of y^3 dx by quadrature: y^3 dx = y^2 * y dx, and
    # y^2 = 2(h + x^2/2 - x^4/4) on the level set, so it reduces to moments.
    for h in _levels(annulus)[1::2]:
        i0, _, i2 = period_vector(h, annulus)
        direct = (2.0 * h * oval_integral(0, h, annulus)
                  + oval_integral(2, h, annulus)
                  - 0.5 * oval_integral(4, h, annulus))
        # the same integral reduced to the basis: (12h/7) I_0 + (3/7) I_2
        reduced = (12.0 * h / 7.0) * i0 + (3.0 / 7.0) * i2
        assert complex(reduced).real == pytest.approx(direct, rel=1e-10)


@settings(max_examples=10)
@given(h=st.floats(-0.24, -0.01))
def test_moment_reduction_property_interior(h):
    pv = period_vector(h, Annulus.INTERIOR_RIGHT)
    direct = oval_integral(4, h, Annulus.INTERIOR_RIGHT)
    assert complex(reduce_moment(4, h, pv)).real == pytest.approx(direct, rel=1e-9)


def test_system_matrix_entries():
    # the columns of the system matrix at h = 1 act on the unit vectors
    a00, a10 = derivative_pair(1.0, 1.0, 0.0)
    a01, a11 = derivative_pair(1.0, 0.0, 1.0)
    assert a00 == pytest.approx((12.0 + 4.0) / 20.0)
    assert a01 == pytest.approx(-5.0 / 20.0)
    assert a10 == pytest.approx(-1.0 / 5.0)
    assert a11 == pytest.approx(1.0)


@pytest.mark.parametrize("annulus", list(Annulus))
def test_system_matrix_matches_closed_form_on_the_keyhole(annulus):
    # two independent routes to (I_0', I_2'): the matrix on the closed form's
    # (I_0, I_2), and the closed form's own derivatives; at the keyhole loop's
    # vertices and seeded levels between them, down to the puncture |h| = 1e-3
    v = contour_table(annulus).vertices
    s = np.random.default_rng(20261018).uniform(0.0, len(v) - 1, 200)
    hs = np.concatenate([v, np.interp(s, np.arange(len(v)), v)])
    i0, _, i2, d0, d2 = closed_form(hs, annulus)
    got = np.array([derivative_pair(*x) for x in zip(hs.tolist(), i0.tolist(), i2.tolist())])
    assert np.all(np.abs(got - np.column_stack([d0, d2])) <= 1e-12 * np.abs([d0, d2]).T)


def _exterior_w3(h):
    """Wronskian W_3 of {I_0, h I_0, I_2} at real exterior levels h, from exact
    derivatives: v = (I_0, I_2), v' = A v and v'' = (A' + A^2) v."""
    i0, _, i2, _, _ = closed_form(h, Annulus.EXTERIOR)
    a00, a01, a10, a11 = _pf_matrix(h)
    g, f, df = 4.0 * h + 1.0, 4.0 * h * (4.0 * h + 1.0), 32.0 * h + 4.0
    da = ((12.0 * f - (12.0 * h + 4.0) * df) / f ** 2, 5.0 * df / f ** 2, 4.0 / g ** 2,
          -20.0 / g ** 2)
    b00, b01 = da[0] + a00 * a00 + a01 * a10, da[1] + a00 * a01 + a01 * a11
    b10, b11 = da[2] + a10 * a00 + a11 * a10, da[3] + a10 * a01 + a11 * a11
    d0, d2 = a00 * i0 + a01 * i2, a10 * i0 + a11 * i2
    e0, e2 = b00 * i0 + b01 * i2, b10 * i0 + b11 * i2
    rows = [[i0, h * i0, i2], [d0, i0 + h * d0, d2], [e0, 2.0 * d0 + h * e0, e2]]
    return np.linalg.det(np.moveaxis(np.array(rows), (0, 1), (-2, -1))), da


def test_exterior_order1_span_is_chebyshev_on_each_side_of_h_star():
    # {I_0, h I_0, I_2} spans the exterior order-1 forms.  W_3 changes sign
    # exactly once on (1e-4, 10), at h* ~ 0.4238: the span is an ECT-system on
    # each side of h* (at most 2 zeros each) but not across it, which is how
    # a form can have three real zeros.
    hs = np.geomspace(1e-4, 10.0, 2001)
    w, da = _exterior_w3(hs)
    step = 1e-6 * hs  # A' is exact: compare it with a central difference
    fd = (np.array(_pf_matrix(hs + step)) - np.array(_pf_matrix(hs - step))) / (2.0 * step)
    assert np.allclose(da, fd, rtol=1e-6)
    change = np.flatnonzero(np.signbit(w[:-1]) != np.signbit(w[1:]))
    assert change.size == 1
    lo, hi = hs[change[0]], hs[change[0] + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.signbit(_exterior_w3(mid)[0]) == np.signbit(w[0]) else (lo, mid)
    assert 0.4229 <= lo <= 0.4242
    assert w[0] > 0.0 > w[-1]


# ---------------------------------------------------------------------------
# poles and path validation
# ---------------------------------------------------------------------------


def test_path_through_pole_rejected():
    with pytest.raises(PathError):
        _check_path([complex(-0.125), complex(0.5)])
    with pytest.raises(PathError):
        _check_path([complex(-0.25, 0.3), complex(-0.25, -0.3)])


def test_path_at_exact_clearance_allowed():
    # A segment passing at exactly the minimum clearance must not raise:
    # the comparison has a one-sided tolerance for this boundary case.
    _check_path([complex(-0.125, MIN_CLEARANCE), complex(0.5, MIN_CLEARANCE)])


def test_transport_needs_real_start_inside_annulus():
    with pytest.raises(PathError):
        transport_table([0.5 + 0.1j, 1.0], Annulus.EXTERIOR)
    with pytest.raises(PathError):
        transport_table([-0.125, 1.0 + 1.0j], Annulus.EXTERIOR)  # wrong annulus interval


def test_transport_needs_two_vertices():
    with pytest.raises(ValueError):
        transport_table([1.0], Annulus.EXTERIOR)


# ---------------------------------------------------------------------------
# complex continuation
# ---------------------------------------------------------------------------


def test_continuation_at_base_point_is_quadrature():
    # a path that never leaves its start keeps its start values, the closed
    # form's, which are the quadrature's to rounding
    base = BASE_POINTS[Annulus.EXTERIOR]
    ((t0, _, t2),) = continue_paths([[base, base]], [Annulus.EXTERIOR])
    i0, _, i2, _, _ = closed_form(base, Annulus.EXTERIOR)
    assert (t0, t2) == (i0, i2)
    r0, _, r2 = period_vector(base, Annulus.EXTERIOR)
    assert t0 == pytest.approx(r0, rel=1e-12)
    assert t2 == pytest.approx(r2, rel=1e-12)


def test_continuation_reaches_real_levels():
    # Transporting along the real axis must agree with direct quadrature.
    singles, paths, annuli = [], [], []
    for h in (0.3, 2.0, 8.0):
        (pv,) = continue_paths([[BASE_POINTS[Annulus.EXTERIOR], h]], [Annulus.EXTERIOR])
        r0, _, r2 = period_vector(h, Annulus.EXTERIOR)
        assert abs(pv[0] - r0) < 1e-9 * abs(r0)
        assert abs(pv[2] - r2) < 1e-9 * abs(r2)
        singles.append(pv)
        paths.append([BASE_POINTS[Annulus.EXTERIOR], h])
        annuli.append(Annulus.EXTERIOR)
    for h in (-0.2, -0.05):
        (pv,) = continue_paths([[BASE_POINTS[Annulus.INTERIOR_RIGHT], h]],
                               [Annulus.INTERIOR_RIGHT])
        r0, _, _ = period_vector(h, Annulus.INTERIOR_RIGHT)
        assert abs(pv[0] - r0) < 1e-9 * abs(r0)
        singles.append(pv)
        paths.append([BASE_POINTS[Annulus.INTERIOR_RIGHT], h])
        annuli.append(Annulus.INTERIOR_RIGHT)
    # one lock-step batch that mixes annuli and path lengths gives every
    # lane the floats of its one-lane run
    paths.append([1.0, 3.0, 3.0 + 2.0j, 2.0 + 1.0j])
    singles += continue_paths([paths[-1]], [Annulus.EXTERIOR])
    assert continue_paths(paths, annuli + [Annulus.EXTERIOR]) == singles


def test_continuation_is_path_independent():
    target = 2.0 + 1.0j
    direct, detour = continue_paths([[1.0, target], [1.0, 3.0, 3.0 + 2.0j, target]],
                                    [Annulus.EXTERIOR] * 2)
    assert abs(direct[0] - detour[0]) < 1e-9 * abs(direct[0])
    assert abs(direct[2] - detour[2]) < 1e-9 * abs(direct[2])


_SADDLE_LOOP = ([-0.125] + [0.125 * cmath.exp(1j * (math.pi + 2.0 * math.pi * j / 64))
                            for j in range(1, 64)] + [-0.125])


@pytest.mark.parametrize("annulus,loop,gain", [
    # encloses neither singular level: the loop is trivial
    (Annulus.EXTERIOR, [1.0, 2.0 + 0.5j, 3.0, 2.0 - 0.5j, 1.0], 0.0),
    # once around the saddle level h = 0: I_0 gains 2 pi i times its log series
    (Annulus.INTERIOR_RIGHT, _SADDLE_LOOP,
     sum(c * (-0.125) ** k for k, c in enumerate(SADDLE_LOG_I0))),
], ids=["no-pole", "saddle"])
def test_continuation_round_trip(annulus, loop, gain):
    ((i0, i1, i2),) = continue_paths([loop], [annulus])
    table = transport_table(loop, annulus)
    assert [i0, i1, i2] == [x[0] for x in table.values_at(len(table.solutions))[1:]]
    r0, _, r2 = period_vector(loop[0], annulus)
    assert abs(i0 - r0 - 2j * math.pi * gain) < 1e-3 * abs(r0)
    if not gain:
        assert abs(i0 - r0) < 1e-9 * abs(r0)
        assert abs(i2 - r2) < 1e-9 * abs(r2)


def test_transport_table_dense_values():
    # the dense table at every vertex against continuation to that vertex;
    # the vertices are dyadic, so each level z0 + (z1 - z0) is exact
    path = [1.0, 3.0, 3.0 + 2.0j, 2.0 + 1.0j]
    table = transport_table(path, Annulus.EXTERIOR)
    h, i0, i1, i2 = table.values_at(np.arange(len(path)))
    assert np.all(h == path)
    assert np.all(i1 == 0.0)  # exterior first moment
    start = closed_form(path[0], Annulus.EXTERIOR)  # the transport's start state
    assert (i0[0], i2[0]) == (start[0], start[2])
    for k in range(1, len(path)):
        (end,) = continue_paths([path[:k + 1]], [Annulus.EXTERIOR])
        assert end == (i0[k], i1[k], i2[k])


# ---------------------------------------------------------------------------
# monodromy and cut structure
# ---------------------------------------------------------------------------


def _monodromy_around_saddle(radius: float):
    """(Delta I_0, Delta I_2) / (2 pi i) for one positive loop around h = 0.

    The loop is a 64-gon of the given radius traversed counterclockwise,
    entered from the base point along the negative real axis.
    """
    annulus = Annulus.INTERIOR_RIGHT
    n = 64
    entry = -radius
    loop = [radius * cmath.exp(1j * (math.pi + 2.0 * math.pi * j / n)) for j in range(n + 1)]
    before, after = continue_paths([[BASE_POINTS[annulus], entry], [BASE_POINTS[annulus]] + loop],
                                   [annulus] * 2)
    two_pi_i = 2j * math.pi
    return ((after[0] - before[0]) / two_pi_i, (after[2] - before[2]) / two_pi_i)


def test_saddle_monodromy_matches_log_series():
    # the increment should match the logarithmic coefficients SADDLE_LOG_*
    # evaluated at the loop's entry level -radius
    radius = 0.02
    d0, d2 = _monodromy_around_saddle(radius)
    h = -radius

    def series(coeffs):
        return sum(c * h ** k for k, c in enumerate(coeffs))

    assert d0.real == pytest.approx(series(SADDLE_LOG_I0), abs=3e-9)
    # the stored I_2 series is shorter, so its truncation dominates here
    assert d2.real == pytest.approx(series(SADDLE_LOG_I2), abs=5e-6)
    assert abs(d0.imag) < 1e-9
    assert abs(d2.imag) < 1e-9


@pytest.mark.parametrize("annulus,h", [
    (Annulus.INTERIOR_RIGHT, 0.5),
    (Annulus.EXTERIOR, -0.6),
])
def test_cut_boundary_values_are_conjugate(annulus, h):
    # Real coefficients force the two boundary values to be conjugates;
    # both sides are computed independently, so this is a real check.
    (p0, _, p2), (m0, _, m2) = cut_values(h, annulus)
    assert abs(p0 - np.conj(m0)) < 1e-8 * abs(p0)
    assert abs(p2 - np.conj(m2)) < 1e-8 * max(abs(p2), 1.0)


def test_cut_values_reject_off_cut_levels():
    with pytest.raises(DomainError):
        cut_values(-0.5, Annulus.INTERIOR_RIGHT)
    with pytest.raises(DomainError):
        cut_values(0.5, Annulus.EXTERIOR)
    # an array of levels is checked level by level
    with pytest.raises(DomainError, match="got h=0.5"):
        wronskian_cut([-0.5, 0.5])
    with pytest.raises(PathError, match="h=-0.2502"):
        wronskian_cut([-0.5, -0.2502, -0.1])


def test_wronskian_cut_takes_each_level_as_cut_values_alone():
    # one closed_form call for the array; each level's W is the Python complex
    # product of its own two cut sides
    hs = np.concatenate((np.linspace(-2.0, -0.35, 8), np.linspace(-0.2, -0.05, 8)))
    ws = wronskian_cut(hs)
    assert len(ws) == len(hs)
    for h, w in zip(hs, ws):
        (p0, _, p2), (m0, _, m2) = cut_values(h, Annulus.EXTERIOR)
        alone = p2 * m0 - m2 * p0
        assert type(w) is complex and (w.real.hex(), w.imag.hex()) == (alone.real.hex(),
                                                                      alone.imag.hex())


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("annulus", list(Annulus))
def test_closed_form_matches_quadrature(annulus):
    # includes a level 1e-6 above the centre, where I_0 and I_2 vanish like
    # (h + 1/4) and only a cancellation-free formula keeps relative accuracy
    levels = _levels(annulus)
    if annulus is not Annulus.EXTERIOR:
        levels = (-0.25 + 1e-6,) + levels
    for h in levels:
        i0, i1, i2, d0, d2 = (float(v) for v in closed_form(h, annulus))
        r0, r1, r2 = period_vector(h, annulus)
        q0, q2 = oval_integrals([(0, -1), (2, -1)], [h], annulus)[:, 0]
        assert i0 == pytest.approx(r0, rel=1e-12, abs=0.0)
        assert i1 == pytest.approx(r1, rel=1e-12, abs=1e-13)
        assert i2 == pytest.approx(r2, rel=1e-12, abs=0.0)
        assert d0 == pytest.approx(q0, rel=1e-12, abs=0.0)
        assert d2 == pytest.approx(q2, rel=1e-12, abs=0.0)


def test_closed_form_is_vectorized_and_real_on_real_levels():
    # every level gets the same floats alone, in a slice of 8 and among 40
    for annulus in Annulus:
        if annulus is Annulus.EXTERIOR:
            hs = np.geomspace(1e-7, 1e3, 40)
        else:
            hs = np.linspace(-0.25 + 1e-9, -1e-7, 40)
        values = closed_form(hs, annulus)
        for k, h in enumerate(hs):
            single = closed_form(h, annulus)
            for vec, one in zip(values, single):
                assert vec.dtype == np.float64
                assert vec[k] == one
        for lo in range(0, hs.size, 8):
            for vec, part in zip(values, closed_form(hs[lo:lo + 8], annulus)):
                assert np.array_equal(vec[lo:lo + 8], part)


@pytest.mark.parametrize("annulus", [Annulus.INTERIOR_LEFT, Annulus.INTERIOR_RIGHT,
                                     Annulus.EXTERIOR])
def test_closed_form_on_a_few_scan_levels_equals_the_scan_table(annulus):
    # the root polish evaluates 1 to 9 real levels at a time, brackets from
    # the table's scan values, and must read the same floats there
    points, cached = contour_table(annulus).scan
    rng = np.random.default_rng(7)
    for size in range(1, 10):
        idx = rng.choice(points.size, size=size, replace=False)
        for fresh, table in zip(closed_form(points[idx], annulus)[:3], cached):
            assert fresh.dtype == np.float64
            assert np.array_equal(fresh, table[idx])


@pytest.mark.parametrize("annulus", [Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR])
def test_closed_form_is_batch_independent_on_the_keyhole(annulus):
    # the AGM stops each level on its own, so a level's floats do not depend
    # on the array it is evaluated in
    h = contour_table(annulus).init_values[0]
    values = closed_form(h, annulus)
    for k in range(h.size):
        for vec, one in zip(values, closed_form(h[k:k + 1], annulus)):
            assert vec[k] == one[0]


def test_closed_form_ends_on_extreme_levels():
    # 1e-300 from a singular level, the lobe centre itself (y = z, no AGM
    # round needed) and a level far out on the exterior
    for h, annulus in ((1e-300, Annulus.EXTERIOR), (1e150, Annulus.EXTERIOR),
                       (-1e-300, Annulus.INTERIOR_RIGHT), (-0.25, Annulus.INTERIOR_RIGHT)):
        i0, _, i2, d0, d2 = closed_form(h, annulus)
        assert all(math.isfinite(v) for v in (i0, i2, d0, d2))
        assert d0 > 0.0 and i0 >= 0.0
    i0, _, i2, d0, _ = closed_form(-0.25, Annulus.INTERIOR_RIGHT)
    assert i0 == 0.0 and i2 == 0.0 and d0 == pytest.approx(math.sqrt(2.0) * math.pi)


# ---------------------------------------------------------------------------
# closed form against 40-digit references
# ---------------------------------------------------------------------------

_ULPS = 16 * np.finfo(float).eps  # next to the saddle F and D cancel by about log(1/|h|)


def _scipy_closed_form(h, annulus):
    """(I_0, I_2, I_0', I_2') by the earlier form: b = 1 - s and scipy's R_F, R_D."""
    from scipy.special import elliprd, elliprf

    h = np.asarray(h)
    s = np.sqrt(1.0 + 4.0 * h)
    a, b = 1.0 + s, 1.0 - s
    if annulus is Annulus.EXTERIOR:
        y, z, c = -b, a - b, 2.0 * math.sqrt(2.0)
    else:
        y, z, c = b, a, math.sqrt(2.0)
    f, d = elliprf(0.0, y, z), elliprd(0.0, y, z)
    g = f - (2.0 / 3.0) * d
    return ((2.0 / 3.0) * c * a * s * g,
            (2.0 / 15.0) * c * a * s * (g + s * (3.0 * f - 2.0 * s * d)),
            2.0 * c * f, 2.0 * c * a * (f - (2.0 / 3.0) * s * d))


def _mpmath_closed_form(mpmath, h, annulus):
    """The same formulas at 40 digits, from the level's exact binary value."""
    with mpmath.workdps(40):
        s = mpmath.sqrt(1 + 4 * mpmath.mpmathify(h))
        a, b = 1 + s, 1 - s
        if annulus is Annulus.EXTERIOR:
            y, z, c = -b, a - b, 2 * mpmath.sqrt(2)
        else:
            y, z, c = b, a, mpmath.sqrt(2)
        f, d = mpmath.elliprf(0, y, z), mpmath.elliprd(0, y, z)
        g = f - 2 * d / 3
        return (2 * c * a * s * g / 3, 2 * c * a * s * (g + s * (3 * f - 2 * s * d)) / 15,
                2 * c * f, 2 * c * a * (f - 2 * s * d / 3))


def _real_reference_levels(annulus):
    """Next to the saddle, and on a lobe next to its centre too."""
    if annulus is Annulus.EXTERIOR:
        return [1e-7, 1e-6, 1e-4, 1e3]
    return [-0.25 + 1e-12, -0.25 + 1e-9, -0.25 + 1e-6, -1e-7, -1e-6, -1e-4]


def _complex_reference_levels(annulus, stride=1):
    """Keyhole vertices for R = 10 and 1e6, and the cut sides cut_values reads."""
    loops = [keyhole_vertices(annulus, R)[::stride] for R in (10.0, 1e6)]
    cut = (-0.1, -0.24, -0.26, -0.6, -5.0) if annulus is Annulus.EXTERIOR else (0.5, 3.0, 100.0)
    sides = [h + side for h in cut for side in (1e-15j, -1e-15j)]
    return [complex(h) for loop in loops for h in loop] + sides


@pytest.mark.parametrize("annulus", list(Annulus))
def test_closed_form_matches_40_digit_references(annulus):
    # Every eighth keyhole vertex for R = 10 and 1e6, the cut sides of
    # cut_values and real levels next to both singular levels: within 16 ulps
    # of mpmath, so at least as close as the scipy-based form with b = 1 - s
    # wherever that is off by more, as it is next to a singular level (up to
    # 3.4e-11 next to the centre and 2.4e-11 next to the saddle).
    mpmath = pytest.importorskip("mpmath")
    levels = _real_reference_levels(annulus) + _complex_reference_levels(annulus, 8)
    worst_scipy = 0.0
    for h in levels:
        i0, _, i2, d0, d2 = closed_form(np.array([h]), annulus)
        old = _scipy_closed_form(h, annulus)
        for got, was, ref in zip((i0[0], i2[0], d0[0], d2[0]), old,
                                 _mpmath_closed_form(mpmath, h, annulus)):
            assert float(abs(got - ref) / abs(ref)) <= _ULPS, h
            worst_scipy = max(worst_scipy, float(abs(was - ref) / abs(ref)))
    assert worst_scipy > 1e3 * _ULPS


@pytest.mark.parametrize("annulus", [Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR])
def test_agm_matches_scipys_carlson_integrals_on_complex_levels(annulus):
    from scipy.special import elliprd, elliprf

    h = np.array(_complex_reference_levels(annulus))
    s = np.sqrt(1.0 + 4.0 * h)
    b = -4.0 * h / (1.0 + s)  # closed_form's arguments of R_F and R_D
    y, z = (-b, 2.0 * s) if annulus is Annulus.EXTERIOR else (b, 1.0 + s)
    f, d, _ = _rf_rd(y, z)
    assert np.all(np.abs(f - elliprf(0.0, y, z)) <= _ULPS * np.abs(f))
    assert np.all(np.abs(d - elliprd(0.0, y, z)) <= _ULPS * np.abs(d))


def test_agm_matches_scipys_carlson_integrals_on_all_of_carlsons_domain():
    # principal roots are Gauss's right choice for any y, z off (-inf, 0], not
    # only at closed_form's arguments (scipy returns nan on that axis itself)
    from scipy.special import elliprd, elliprf

    rng = np.random.default_rng(40)
    y, z = 10.0 ** rng.uniform(-6.0, 6.0, (2, 20000)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, (2, 20000)))
    f, d, _ = _rf_rd(y, z)
    assert np.all(np.abs(f - elliprf(0.0, y, z)) <= 1e-13 * np.abs(f))
    assert np.all(np.abs(d - elliprd(0.0, y, z)) <= 1e-13 * np.abs(d))


@pytest.mark.parametrize("annulus", [Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR])
def test_closed_form_matches_continuation(annulus):
    # complex levels in both half planes, reached by transport along
    # straight paths from the base point
    hs = [-h.conjugate() if annulus is not Annulus.EXTERIOR and h.real > 0 else h
          for h in (0.5 + 2j, -3.0 + 0.5j, -0.1 - 0.3j, 4.0 - 6j)]
    ends = continue_paths([[BASE_POINTS[annulus], h] for h in hs], [annulus] * len(hs))
    for h, (t0, t1, t2) in zip(hs, ends):
        i0, i1, i2, d0, d2 = closed_form(h, annulus)
        e0, e2 = derivative_pair(h, t0, t2)
        for got, ref in ((i0, t0), (i1, t1), (i2, t2), (d0, e0), (d2, e2)):
            assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))


def test_cut_wronskian_constants_are_exact():
    # W / (h (4h+1)) across the exterior cut is 128 pi/15 i on (-1/4, 0)
    # and half of that below -1/4: constant on each interval, purely
    # imaginary, and doubling when h crosses -1/4
    for hs, const in (((-0.24, -0.2, -0.1, -0.06, -0.01, -0.002), 128j * math.pi / 15.0),
                      ((-0.26, -0.4, -0.6, -0.8, -1.5, -2.0, -8.0, -50.0),
                       64j * math.pi / 15.0)):
        for h, w in zip(hs, wronskian_cut(hs)):
            w /= h * (4.0 * h + 1.0)
            assert abs(w - const) <= 1e-10 * abs(const)


# Petrov's inputs for exterior order 1.  Up to a nonvanishing factor the
# form is F = a + b h + c w with w = I_2 / I_0 and real a, b, c.  Im F+ on
# the cut is c Im w+, and the growth of w sets the big circle's turns.


def test_im_w_on_the_exterior_cut_changes_sign_once():
    # Im w+ = W / (2i |I_0+|^2) with W a constant times h (4h + 1): negative
    # on (-1/4, 0) and positive below -1/4, on ~4000 cut levels
    h = -np.geomspace(1.1e-3, 1e4, 4000)
    h = h[np.abs(h + 0.25) > MIN_CLEARANCE]
    (p0, _, p2), _ = cut_values(h, Annulus.EXTERIOR)
    im = (np.array(p2) / np.array(p0)).imag
    inner = h > -0.25
    assert np.count_nonzero(inner) > 1000 and np.count_nonzero(~inner) > 1000
    # measured: -0.428 to -0.0021 on (-1/4, 0), 0.0032 to 54.8 below -1/4
    assert -0.43 < im[inner].min() and im[inner].max() < -2e-3
    assert 3e-3 < im[~inner].min() and im[~inner].max() < 55.0
    assert np.count_nonzero(np.diff(np.sign(im))) == 1


@pytest.mark.parametrize("r", [1e4, 1e6, 1e8])
def test_w_grows_like_the_root_of_h_on_the_exterior(r):
    # |I_2 / I_0| / |h|^(1/2) within 1% of 0.5483 on rays away from the cut
    # (-inf, 0]: for b != 0 the big circle adds one turn.  With the one sign
    # change above, Petrov's count gives at most 1 + 2 = 3 zeros on the cut
    # plane, against the bound 2 that acceptance 7 states
    h = r * np.exp(1j * np.linspace(-0.75 * math.pi, 0.75 * math.pi, 7))
    i0, _, i2, _, _ = closed_form(h, Annulus.EXTERIOR)
    ratio = np.abs(i2 / i0) / math.sqrt(r)
    assert np.all(np.abs(ratio / 0.5483 - 1.0) < 0.01), ratio


# ---------------------------------------------------------------------------
# real-axis table of the root scans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("annulus", [Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR])
def test_real_table_matches_quadrature(annulus):
    table = RealPeriodTable(annulus)
    for h in _levels(annulus):
        i0, i1, i2 = (float(v[0]) for v in table.values(h))
        r0, r1, r2 = period_vector(h, annulus)
        assert i0 == pytest.approx(r0, rel=1e-9)
        assert i1 == pytest.approx(r1, rel=1e-9, abs=1e-12)
        assert i2 == pytest.approx(r2, rel=1e-9)


@pytest.mark.parametrize("annulus,offsets", [
    (Annulus.INTERIOR_RIGHT, (1e-6, 1e-5, 1e-4)),
    (Annulus.EXTERIOR, (1e-5, 1e-4)),
])
def test_real_table_matches_quadrature_inside_clearance(annulus, offsets):
    # The root scan reads the table closer to the singular levels than
    # MIN_CLEARANCE, where no complex path may go; the values must keep
    # quadrature accuracy there too.
    table = RealPeriodTable(annulus)
    edge = -0.25 if annulus is not Annulus.EXTERIOR else 0.0
    for offset in offsets:
        h = edge + offset
        assert offset < MIN_CLEARANCE
        got = (float(v[0]) for v in table.values(h))
        for value, ref in zip(got, period_vector(h, annulus)):
            assert abs(value - ref) <= 1e-10 * (1.0 + abs(ref))


def test_real_table_rejects_outside_range():
    # the exterior table covers the whole ray h > 1e-7, an interior one its lobe
    # up to 1e-7 from both singular levels
    assert RealPeriodTable(Annulus.EXTERIOR).h_max == math.inf
    for annulus, h in ((Annulus.EXTERIOR, 0.0), (Annulus.INTERIOR_RIGHT, -0.25),
                       (Annulus.INTERIOR_RIGHT, 0.0)):
        with pytest.raises(DomainError):
            RealPeriodTable(annulus).values(h)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_saddle_constants():
    i0c, i2c = saddle_constants()
    assert i0c == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert i2c == pytest.approx(16.0 / 15.0, abs=1e-6)


def test_saddle_log_coefficients():
    a1, a2 = saddle_log_fit()
    assert a1 == pytest.approx(-1.0, abs=1e-6)
    assert a2 == pytest.approx(0.375, abs=1e-4)


def test_exterior_growth_exponent():
    slope, amp = exterior_slope()
    assert slope == pytest.approx(0.75, abs=1e-3)
    assert amp > 0.0


def test_nonvanishing_survey():
    min_i0, min_d0, rows = nonvanishing_grid()
    assert min_i0 > 1e-6
    assert min_d0 > 1e-6
    assert len(rows) == 20 * 20
    assert max(abs(h) for h, _, _ in rows) == pytest.approx(10.0)
