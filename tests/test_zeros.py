"""Tests for the argument-principle zero counter and its certificates.

Crafted coefficient forms with known zero locations pin the winding count
exactly; random draws then exercise the certification pipeline end to end
(integrality, closure, real-root consistency, serialization).
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from duffing_melnikov import abelian, zeros
from duffing_melnikov.abelian import BASE_POINTS, closed_form, cut_values, transport_table
from duffing_melnikov.geometry import Annulus
from duffing_melnikov.melnikov import (
    MONOMIALS,
    MelnikovForm,
    PerturbationParams,
    enforce_m1_zero,
    m1_form,
    m_eval,
)
from duffing_melnikov.zeros import (
    BOUNDS,
    DegenerateFormError,
    Status,
    _real_table,
    _suspect_positions,
    bound_census,
    certify,
    contour_table,
    keyhole_vertices,
    real_zeros,
    winding_count,
)


def _form(annulus, poly0, poly1=(), poly2=(), order=1):
    return MelnikovForm(order=order, annulus=annulus, poly0=poly0,
                        poly1=poly1, poly2=poly2)


def _single_param(**entries) -> PerturbationParams:
    z = [0.0] * 10
    fields = {"lambda1": list(z), "gamma1": list(z),
              "lambda2": list(z), "gamma2": list(z)}
    for key, val in entries.items():
        name, idx = key.rsplit("_", 1)
        fields[name][int(idx)] = val
    return PerturbationParams(**{k: tuple(v) for k, v in fields.items()})


def _json(cert) -> str:
    return json.dumps(cert.as_record(), sort_keys=True)


# ---------------------------------------------------------------------------
# contour construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("annulus", [Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR])
def test_keyhole_is_closed_and_clear_of_poles(annulus):
    loop = keyhole_vertices(annulus, R=10.0, eta=1e-3, rho=1e-3)
    assert loop[0] == loop[-1]
    # every vertex stays at least the puncture radius from both poles
    verts = np.asarray(loop)
    assert np.min(np.abs(verts)) >= 1e-3 * (1.0 - 1e-12)
    assert np.min(np.abs(verts + 0.25)) >= 1e-3
    # the cut never separates the loop: all vertices stay off the cut ray
    if annulus is Annulus.EXTERIOR:
        on_cut = (verts.real < 0) & (np.abs(verts.imag) < 1e-3 * (1 - 1e-12))
    else:
        on_cut = (verts.real > 0) & (np.abs(verts.imag) < 1e-3 * (1 - 1e-12))
    assert not np.any(on_cut)
    # the exterior loop is the interior one turned by pi, float for float
    for kw in ({}, {"R": 1e6, "eta": 2e-3, "rho": 5e-3}):
        interior = keyhole_vertices(Annulus.INTERIOR_RIGHT, **kw)
        assert keyhole_vertices(Annulus.EXTERIOR, **kw) == [-z for z in interior]


def test_contour_table_is_cached():
    a = contour_table(Annulus.EXTERIOR, 10.0, 1e-3, 1e-3)
    b = contour_table(Annulus.EXTERIOR, 10.0, 1e-3, 1e-3)
    assert a is b


@pytest.mark.parametrize("annulus", [Annulus.INTERIOR_LEFT, Annulus.INTERIOR_RIGHT,
                                     Annulus.EXTERIOR])
def test_loop_values_match_a_transport_of_the_keyhole(annulus):
    # the closed form on the loop against Picard-Fuchs transport from the
    # base point: an entry leg to the loop's start, then once around it.
    # Transport returns to its start only up to its own error, so this is
    # the independent check that the loop's periods close up.
    ct = contour_table(annulus)
    start = complex(ct.vertices[0])
    entry = [BASE_POINTS[annulus], complex(start.real, 3.0 * start.imag)]
    table = transport_table(entry + list(ct.vertices), annulus)
    transported = table.values_at(ct.s_init + len(entry))
    for got, ref in zip(ct.init_values, transported):
        assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 1e-9


@pytest.mark.parametrize("bad", [
    {"R": 1.0},                 # circle must enclose the annulus range
    {"rho": 5e-4},              # below the transport clearance
    {"rho": 0.5},               # puncture so big it eats the physical interval
    {"eta": 5e-3, "rho": 2e-3},  # slit wider than the puncture
])
def test_contour_validation(bad):
    kw = {"R": 10.0, "eta": 1e-3, "rho": 1e-3}
    kw.update(bad)
    with pytest.raises(ValueError):
        keyhole_vertices(Annulus.EXTERIOR, **kw)


# ---------------------------------------------------------------------------
# winding on crafted forms with known zeros
# ---------------------------------------------------------------------------


def test_winding_counts_polynomial_zero_plus_center_zero():
    # (h + 0.1) I_0 on an interior lobe: one zero from the linear factor,
    # one from I_0 itself vanishing with the oval at h = -1/4.
    cert = winding_count(_form(Annulus.INTERIOR_RIGHT, (0.1, 1.0)))
    assert cert.winding == 2
    assert cert.status is Status.WITHIN_BOUND
    assert cert.phase_defect < 1e-9
    assert cert.closure_error < 1e-12


def test_winding_counts_double_zero():
    # (h + 0.1)^2 I_0: the double zero counts twice, plus the center zero.
    cert = winding_count(_form(Annulus.INTERIOR_RIGHT, (0.01, 0.2, 1.0)))
    assert cert.winding == 3
    assert cert.status is Status.WITHIN_BOUND


def test_winding_exterior_linear_factor():
    cert = winding_count(_form(Annulus.EXTERIOR, (-1.0, 1.0)))
    assert cert.winding == 1


def test_winding_exterior_nonvanishing_form():
    # plain I_0 never vanishes on the exterior cut disc
    cert = winding_count(_form(Annulus.EXTERIOR, (1.0,)))
    assert cert.winding == 0
    assert cert.phase_defect < 1e-12


@pytest.mark.parametrize("annulus,zero,n_samples", [
    (Annulus.INTERIOR_RIGHT, -10.0, 1077), (Annulus.EXTERIOR, 10.0, 1071)])
def test_zero_on_the_contour_is_inconclusive(annulus, zero, n_samples):
    # the big circle meets the real axis at a vertex: a zero there keeps the
    # adjacent phase steps failing until refinement runs out; the sample
    # count is the one the form-by-form refinement reached
    with np.errstate(divide="ignore", invalid="ignore"):
        cert = winding_count(_form(annulus, (-zero, 1.0)))
    assert cert.status is Status.INCONCLUSIVE
    assert cert.n_samples == n_samples


def test_degenerate_form_raises():
    with pytest.raises(DegenerateFormError):
        winding_count(_form(Annulus.EXTERIOR, (0.0,)))


# ---------------------------------------------------------------------------
# certification on parameter draws
# ---------------------------------------------------------------------------


def test_certificate_with_real_exterior_zero():
    # M1 = I_2 - 2 I_0 crosses zero once where the period ratio passes 2
    params = _single_param(lambda1_1=-2.0, gamma1_6=1.0)
    cert = certify(params, 1, Annulus.EXTERIOR)
    assert cert.status is Status.WITHIN_BOUND
    assert cert.winding == 1
    assert len(cert.real_roots) == 1
    root = cert.real_roots[0][0]
    assert 9.0 < root < 9.2
    assert cert.suspect_roots == ()


def test_certificate_stable_under_contour_changes():
    params = _single_param(lambda1_1=-2.0, gamma1_6=1.0)
    base = certify(params, 1, Annulus.EXTERIOR, R=10.0)
    for kw in ({"R": 15.0}, {"R": 20.0}, {"eta": 2e-3, "rho": 2e-3}):
        cert = certify(params, 1, Annulus.EXTERIOR, **{"R": 10.0, **kw})
        assert cert.winding == base.winding
        assert cert.status is Status.WITHIN_BOUND
    # shrinking the disc below the root must drop both counts together
    small = certify(params, 1, Annulus.EXTERIOR, R=5.0)
    assert small.winding == 0
    assert small.real_roots == ()


def test_real_scan_reaches_the_rim_of_a_large_contour():
    # (h - 20) I_0 has its one zero at h = 20: on R = 40 the real scan must
    # reach past it, as the winding does, whatever the default radius
    cert = zeros._certify_block([_form(Annulus.EXTERIOR, (-20.0, 1.0))], 40.0, 1e-3, 1e-3)[0]
    assert cert.winding == 1
    assert cert.real_roots == ((20.0, 1e-12),)
    assert cert.status is Status.WITHIN_BOUND


def test_certify_zero_params_is_degenerate():
    cert = certify(PerturbationParams.zero(), 1, Annulus.INTERIOR_RIGHT)
    assert cert.status is Status.DEGENERATE
    assert cert.winding == 0


def test_a_huge_exterior_contour_is_not_degenerate():
    # I_0 grows like R^(3/4), but the exterior counting function of
    # M1 = I_0 + I_2 is divided by it, so its degeneracy threshold does not
    # grow with R: on R = 1e100 the refinement runs and gives up
    cert = certify(_single_param(lambda1_1=1.0, gamma1_6=1.0), 1, Annulus.EXTERIOR, R=1e100)
    assert cert.status is Status.INCONCLUSIVE
    assert cert.n_samples > 0


@pytest.mark.parametrize("R", [1e20, 1e25])
def test_a_large_exterior_contour_refines_next_to_the_puncture(R):
    # the upper cut side runs from -R to the puncture; bisecting its levels
    # splits the step next to the puncture, which one ulp of the loop
    # parameter (about 5.7e-14 R of h there) could not
    cert = certify(_single_param(lambda1_1=1.0, gamma1_6=1.0), 1, Annulus.EXTERIOR, R=R)
    assert cert.status is Status.WITHIN_BOUND
    assert cert.winding == 0


@pytest.mark.parametrize("annulus", list(Annulus))
def test_zero_and_projected_first_order_forms_stay_degenerate(annulus):
    draw = enforce_m1_zero(PerturbationParams.uniform(np.random.default_rng(5)), annulus)
    for params in (PerturbationParams.zero(), draw):
        assert certify(params, 1, annulus).status is Status.DEGENERATE


def test_certify_rejects_bad_order(rng):
    with pytest.raises(ValueError):
        certify(PerturbationParams.random(rng), 3, Annulus.EXTERIOR)


def test_random_draws_stay_consistent(rng):
    # winding bounds real roots; interior forms carry the forced center zero
    for _ in range(10):
        params = PerturbationParams.uniform(rng)
        for annulus in (Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR):
            cert = certify(params, 1, annulus)
            assert cert.status in (Status.WITHIN_BOUND, Status.BOUND_VIOLATED)
            assert len(cert.real_roots) <= cert.winding
            assert cert.phase_defect < 0.01
            if annulus is Annulus.INTERIOR_RIGHT:
                assert cert.winding >= 1


def test_second_order_certificates(rng):
    params = enforce_m1_zero(PerturbationParams.uniform(rng), Annulus.INTERIOR_RIGHT)
    cert = certify(params, 2, Annulus.INTERIOR_RIGHT)
    assert cert.order == 2
    assert cert.bound == BOUNDS[(2, Annulus.INTERIOR_RIGHT)]
    assert cert.status in (Status.WITHIN_BOUND, Status.BOUND_VIOLATED)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_certificate_record_roundtrip():
    params = _single_param(lambda1_1=-2.0, gamma1_6=1.0)
    cert = certify(params, 1, Annulus.EXTERIOR)
    rec = cert.as_record()
    assert rec["contour"] == {"R": 10.0, "eta": 1e-3, "rho": 1e-3}
    assert rec["tolerances"]["closure"] == 1e-8
    # the JSON form parses back to the same record
    assert json.loads(_json(cert)) == rec


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_summary_fields():
    certs, summary = bound_census(1, Annulus.EXTERIOR, n_draws=5, seed=3)
    assert len(certs) == 5
    assert summary["draws"] == 5
    assert summary["bound"] == BOUNDS[(1, Annulus.EXTERIOR)]
    assert summary["max_winding"] == max(c.winding for c in certs)
    counted = sum(summary["status_counts"].values())
    assert counted == 5


@pytest.mark.parametrize("order,annulus", [
    (1, Annulus.INTERIOR_LEFT), (1, Annulus.INTERIOR_RIGHT), (1, Annulus.EXTERIOR),
    (2, Annulus.INTERIOR_RIGHT), (2, Annulus.EXTERIOR)])
def test_certificates_run_without_transport(monkeypatch, order, annulus):
    # every period of a certificate is the closed form: with the transport
    # right-hand side disabled and the period caches empty, certify and
    # bound_census (which certifies each draw) still runs from scratch
    def no_transport(*args):
        raise AssertionError("Picard-Fuchs transport in a certificate")

    monkeypatch.setattr(abelian, "_pf_rhs", no_transport)
    monkeypatch.setattr(zeros, "_CONTOUR_CACHE", {})
    certs, _ = bound_census(order, annulus, n_draws=3, seed=1)
    assert all(c.status is not Status.INCONCLUSIVE for c in certs)


def test_census_rejects_a_negative_draw_count():
    with pytest.raises(ValueError, match="non-negative"):
        bound_census(1, Annulus.EXTERIOR, n_draws=-3)
    certs, summary = bound_census(1, Annulus.EXTERIOR, n_draws=0)
    assert certs == [] and summary["draws"] == 0


@pytest.mark.parametrize("n_draws", [0, 1])
def test_census_rejects_an_unknown_order(n_draws):
    # with or without draws, before the bound lookup
    with pytest.raises(ValueError, match="order must be 1 or 2, got 3"):
        bound_census(3, Annulus.EXTERIOR, n_draws=n_draws)


@pytest.mark.parametrize("order,annulus", [
    (1, Annulus.INTERIOR_LEFT), (1, Annulus.EXTERIOR), (2, Annulus.INTERIOR_RIGHT),
    (2, Annulus.EXTERIOR)])
def test_census_certificates_equal_certify_alone(order, annulus):
    # the block engine gives every draw the certificate it gets in a block of one
    certs, _ = bound_census(order, annulus, n_draws=50, seed=4)
    # some draw of every class refines (the first at draw 38 to 43 on the
    # interior and order-1 exterior), so the halvings' phase sums are covered
    assert any(c.n_samples > contour_table(annulus).s_init.size for c in certs)
    rng = np.random.default_rng(4)
    for cert in certs:
        params = PerturbationParams.uniform(rng)
        if order == 2:
            params = enforce_m1_zero(params, annulus)
        assert _json(cert) == _json(certify(params, order, annulus))


@pytest.mark.parametrize("annulus", [Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR])
def test_block_mixing_degenerate_and_live_draws(annulus):
    rng = np.random.default_rng(8)
    zero = PerturbationParams.zero()
    draws = [zero, PerturbationParams.uniform(rng), zero, zero,
             PerturbationParams.uniform(rng), PerturbationParams.uniform(rng), zero]
    block = zeros._certify_block([m1_form(p, annulus) for p in draws], 10.0, 1e-3, 1e-3)
    assert [c.status is Status.DEGENERATE for c in block] == [p == zero for p in draws]
    for cert, params in zip(block, draws):
        assert _json(cert) == _json(certify(params, 1, annulus))
    all_zero = zeros._certify_block([m1_form(zero, annulus)] * 3, 10.0, 1e-3, 1e-3)
    assert all(c.status is Status.DEGENERATE for c in all_zero)


def test_census_is_deterministic():
    _, s1 = bound_census(1, Annulus.EXTERIOR, n_draws=4, seed=9)
    _, s2 = bound_census(1, Annulus.EXTERIOR, n_draws=4, seed=9)
    assert s1 == s2


def _fibonacci_sphere(n):
    """n nearly uniform unit vectors in R^3, the Fibonacci lattice on S^2."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r, phi = np.sqrt(1.0 - z * z), math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def test_exterior_order1_class_over_its_whole_sphere():
    # every exterior order-1 form is (a + b h) I_0 + c I_2 up to scale, so
    # directions on S^2 cover the class, not only the census draws: its
    # windings run up to 3 (the span's dimension), and never further
    forms = [_form(Annulus.EXTERIOR, (a, b), (), (c,))
             for a, b, c in _fibonacci_sphere(2000).tolist()]
    certs = zeros._certify_block(forms, 10.0, 1e-3, 1e-3)
    assert max(c.winding for c in certs) == 3
    assert all(c.status in (Status.WITHIN_BOUND, Status.BOUND_VIOLATED) for c in certs)
    assert all(c.status is Status.BOUND_VIOLATED for c in certs if c.winding == 3)


def test_interior_right_order1_class_over_its_whole_sphere():
    # (a + b h) I_0 + c I_1 + d I_2 over directions of its 4-dimensional span
    g = np.random.default_rng(0).standard_normal((1000, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    forms = [_form(Annulus.INTERIOR_RIGHT, (a, b), (c,), (d,)) for a, b, c, d in g.tolist()]
    certs = zeros._certify_block(forms, 10.0, 1e-3, 1e-3)
    assert max(c.winding for c in certs) == 3
    assert all(c.status is Status.WITHIN_BOUND for c in certs)


def test_three_real_exterior_roots_straddle_h_star():
    # the exterior order-1 span is Chebyshev on each side of h* in
    # [0.4229, 0.4242] (test_abelian), so at most two roots lie on each side,
    # and a draw with three real roots has roots on both sides
    found = []
    for seed in range(32):
        certs, _ = bound_census(1, Annulus.EXTERIOR, 10, seed=seed)
        for draw, cert in enumerate(certs):
            roots = [r for r, _ in cert.real_roots]
            if len(roots) == 3:
                found.append((seed, draw))
                below = sum(r < 0.4229 for r in roots)
                above = sum(r > 0.4242 for r in roots)
                assert 1 <= below <= 2 and 1 <= above <= 2, roots
    assert found == [(20, 1), (30, 2)]


# ---------------------------------------------------------------------------
# symmetries of the certificate
# ---------------------------------------------------------------------------


def _mapped(params, factor):
    """params with the coefficient of x^i y^j multiplied by factor(i, j) in every tier."""
    scale = [factor(i, j) for i, j in MONOMIALS]
    return PerturbationParams(*(tuple(c * v for c, v in zip(scale, tier))
                                for tier in (params.lambda1, params.gamma1,
                                             params.lambda2, params.gamma2)))


@pytest.mark.parametrize("order", [1, 2])
def test_rotation_maps_the_left_lobe_certificate_to_the_right(order):
    # (x, y) -> (-x, -y) maps the unperturbed flow and the left lobe to the
    # right one; f and g go to -f(-x, -y) and -g(-x, -y), which multiplies the
    # coefficient of x^i y^j by -(-1)^(i+j)
    left, right = Annulus.INTERIOR_LEFT, Annulus.INTERIOR_RIGHT
    for seed in range(25):
        params = PerturbationParams.uniform(np.random.default_rng(seed))
        rotated = _mapped(params, lambda i, j: -(-1.0) ** (i + j))
        if order == 2:
            params, rotated = enforce_m1_zero(params, left), enforce_m1_zero(rotated, right)
        mine, theirs = (certify(params, order, left).as_record(),
                        certify(rotated, order, right).as_record())
        assert mine.pop("annulus") == left.value and theirs.pop("annulus") == right.value
        assert mine == theirs


@pytest.mark.parametrize("annulus", [Annulus.EXTERIOR, Annulus.INTERIOR_RIGHT])
def test_certificate_ignores_a_power_of_two_scale_and_the_sign(annulus):
    # M1 is linear in the first tier; 8 and -1/4 scale every float exactly
    for seed in range(25):
        params = PerturbationParams.uniform(np.random.default_rng(seed))
        records = {_json(certify(_mapped(params, lambda i, j: c), 1, annulus))
                   for c in (1.0, 8.0, -0.25)}
        assert len(records) == 1


@pytest.mark.parametrize("order,annulus", [(1, Annulus.EXTERIOR), (1, Annulus.INTERIOR_RIGHT),
                                           (2, Annulus.EXTERIOR)])
def test_winding_never_falls_as_the_contour_grows(order, annulus):
    # the cut disc of radius R holds the one of every smaller radius, so a
    # draw's zero count cannot fall as R grows
    for seed in range(8):
        windings = [[c.winding for c in bound_census(order, annulus, n_draws=10,
                                                     seed=seed, R=R)[0]]
                    for R in (2.0, 5.0, 10.0, 20.0)]
        for draw, by_radius in enumerate(zip(*windings)):
            assert list(by_radius) == sorted(by_radius), (seed, draw, by_radius)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_imaginary_part_on_cut_is_real_for_real_coefficients():
    # (value+ - value-) / (2i) across the cut: the two boundary values of a
    # real-coefficient form are conjugates, so this jump is real
    form = m1_form(_single_param(lambda1_1=1.0, gamma1_6=0.5), Annulus.EXTERIOR)
    plus, minus = cut_values(-0.6, Annulus.EXTERIOR)
    val = (m_eval(form, -0.6, plus) - m_eval(form, -0.6, minus)) / 2j
    assert abs(complex(val).imag) < 1e-6 * abs(complex(val).real)


def test_circle_argument_tracks_growth(circle_argument):
    # I_0 alone grows like h^(3/4) on the big circle: about 1.5 pi of phase
    arg = circle_argument(_form(Annulus.INTERIOR_RIGHT, (1.0,)))
    assert arg / math.pi == pytest.approx(1.5, abs=0.15)
    # the normalized exterior counting function for I_0 is constant
    arg = circle_argument(_form(Annulus.EXTERIOR, (1.0,)))
    assert abs(arg) < 1e-9


# ---------------------------------------------------------------------------
# real-axis scan
# ---------------------------------------------------------------------------


def test_real_zeros_bracketing():
    roots, suspects = real_zeros(lambda h: (h - 0.3) * (h - 0.7), (0.0, 1.0))
    assert len(roots) == 2
    assert roots[0][0] == pytest.approx(0.3, abs=1e-10)
    assert roots[1][0] == pytest.approx(0.7, abs=1e-10)
    assert suspects == []


def test_real_zeros_flags_tangency_as_suspect():
    roots, suspects = real_zeros(lambda h: (h - 0.5) ** 2 + 1e-15, (0.0, 1.0))
    assert roots == []
    assert len(suspects) >= 1
    assert suspects[0] == pytest.approx(0.5, abs=1e-2)


def test_real_zeros_rejects_empty_interval():
    with pytest.raises(ValueError):
        real_zeros(lambda h: h, (1.0, 1.0))


def _cubics(coeffs):
    """f(x, k): the cubic of bracket k at x, by Horner in float arithmetic."""
    c = np.array(coeffs, dtype=float).reshape(-1, 4)

    def f(x, k):
        ck = c[k]
        return ((ck[:, 3] * x + ck[:, 2]) * x + ck[:, 1]) * x + ck[:, 0]

    return f


def _one(f, i):
    # bracket i alone, as a scalar function for scipy and a block of one
    return (lambda x: float(f(np.array([x]), np.array([i]))[0]),
            lambda x, k: f(x, np.full(len(k), i)))


_SIGNED = st.sampled_from([0.0, -0.0])
_ENDS = st.floats(-4.0, 4.0) | _SIGNED
_WIDTHS = st.floats(1e-9, 8.0) | st.sampled_from([1e-13, 4e-13, 1e-12, 3e-12])


@st.composite
def _brackets(draw):
    """A cubic with a root r in [a, b]: (x - r)(x^2 + p x + q) scaled, expanded."""
    a = draw(_ENDS)
    b = a + draw(_WIDTHS)
    r = draw(st.floats(a, b) | st.sampled_from([a, b]))
    p, q, s = draw(st.floats(-3, 3)), draw(st.floats(0, 3)), draw(st.floats(0.1, 10))
    coeffs = (-q * r * s, (q - p * r) * s, (p - r) * s, s)
    c0 = draw(st.sampled_from([coeffs[0], 0.0, -0.0]))
    return (c0,) + coeffs[1:], a, b


@given(st.lists(_brackets(), min_size=1, max_size=10))
def test_block_brentq_matches_scipy(brackets):
    # every bracket scipy solves gets the same float (to the sign of zero)
    # in one lock-step call; every bracket scipy rejects raises the same error
    from scipy.optimize import brentq

    f = _cubics([c for c, _, _ in brackets])
    a = np.array([x for _, x, _ in brackets])
    b = np.array([x for _, _, x in brackets])
    k = np.arange(len(brackets))
    fa, fb = f(a, k), f(b, k)
    solved, expected = [], []
    for i in range(len(brackets)):
        scalar, block = _one(f, i)
        try:
            expected.append(brentq(scalar, a[i], b[i], xtol=1e-12).hex())
        except (ValueError, RuntimeError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                zeros._brentq(block, a[i:i + 1], b[i:i + 1], fa[i:i + 1], fb[i:i + 1])
        else:
            solved.append(i)
    idx = np.array(solved, dtype=int)
    got = zeros._brentq(lambda x, j: f(x, idx[j]), a[idx], b[idx], fa[idx], fb[idx])
    assert [x.hex() for x in got.tolist()] == expected


def test_block_brentq_edge_brackets():
    from scipy.optimize import brentq

    # f(a) = -0.0, f(b) = 0.0, a bracket narrower than xtol, a plain root
    f = _cubics([(-0.0, 1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                 (-0.3, 1.0, 0.0, 0.0), (-2.0, 0.0, 1.0, 0.0)])
    a = np.array([-0.0, -1.0, 0.3 - 2e-13, 0.0])
    b = np.array([1.0, 0.0, 0.3 + 2e-13, 2.0])
    k = np.arange(4)
    got = zeros._brentq(f, a, b, f(a, k), f(b, k))
    expected = [brentq(_one(f, i)[0], a[i], b[i], xtol=1e-12) for i in k]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in expected]
    assert got[0].hex() == (-0.0).hex()
    # no sign change, a NaN value, and a step across a bracket too wide for
    # 100 iterations: scipy's errors
    with pytest.raises(ValueError, match="must have different signs"):
        zeros._brentq(f, np.array([1.0]), np.array([2.0]), np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError, match="is NaN"):
        zeros._brentq(lambda x, j: np.full(x.shape, np.nan), np.array([-1.0]),
                      np.array([2.0]), np.array([-1.0]), np.array([2.0]))
    step = lambda x, j: np.where(x < 0.3, -1.0, 1.0)
    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        brentq(lambda x: float(step(x, 0)), -1e300, 1e300)
    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        zeros._brentq(step, np.array([-1e300]), np.array([1e300]), np.array([-1.0]),
                      np.array([1.0]))


def _reference_suspects(h, mag, sign, scale):
    # reference: the suspect conditions checked one index at a time
    out = []
    for i in range(1, len(h) - 1):
        if (mag[i] < 1e-6 * scale and mag[i] <= mag[i - 1] and mag[i] <= mag[i + 1]
                and sign[i - 1] == sign[i + 1] and sign[i] == sign[i - 1]):
            out.append(float(h[i]))
    return out


# few distinct magnitudes, so draws are full of ties, plateaus and exact zeros
_SCAN_VALUES = st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 3e-8, -3e-8, 2e-7, 0.4, -0.4, 1.0])


@given(st.lists(st.lists(_SCAN_VALUES, min_size=0, max_size=40), min_size=1, max_size=4))
def test_suspect_scan_matches_reference_loop(scans):
    # several scans end to end: each finds the suspects of the reference
    # loop on its own values, none across a boundary between scans
    rows = np.concatenate([np.full(len(v), r) for r, v in enumerate(scans)]).astype(int)
    v = np.concatenate([np.array(v, dtype=float) for v in scans])
    h = np.concatenate([np.linspace(0.0, 1.0, len(v)) for v in scans])
    mag, sign = np.abs(v), np.sign(v)
    scale = np.array([float(np.max(np.abs(s), initial=0.0)) or 1.0 for s in scans])
    found = _suspect_positions(rows, mag, sign, scale)
    for r, values in enumerate(scans):
        part = rows == r
        expected = _reference_suspects(h[part], mag[part], sign[part], scale[r])
        assert h[found[rows[found] == r]].tolist() == expected


def test_scan_windows_match_per_sample_linspace():
    points, on_grid, in_windows = zeros._scan_levels(-0.2, 0.3, 64)
    h = points[on_grid]
    assert np.array_equal(h, np.linspace(-0.2, 0.3, 64))
    for i in range(64):
        assert np.array_equal(points[in_windows[i]],
                              np.linspace(h[max(i - 1, 0)], h[min(i + 1, 63)], 9))
    # the levels are the grid and the windows, each level once
    assert np.array_equal(points, np.unique(np.concatenate([h, points[in_windows].ravel()])))


# ---------------------------------------------------------------------------
# the cached contour tables
# ---------------------------------------------------------------------------

_CENSUS_ANNULI = (Annulus.INTERIOR_LEFT, Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR)


def _default_scan_interval(annulus):
    """The real interval certify scans on the default contour."""
    rho_arc = 1e-3 / math.cos(math.pi / zeros._N_PUNCT)
    if annulus is Annulus.EXTERIOR:
        return 1.01 * rho_arc, 10.0 * (1.0 - 1e-9)
    return -0.25 + 1e-6, -1.01 * rho_arc


def _scanned_table(annulus):
    """The default contour's table, once a certification has built its scan."""
    certify(_single_param(lambda1_1=-2.0, gamma1_6=1.0), 1, annulus)
    ct = contour_table(annulus)
    assert "scan" in vars(ct)  # certify built it
    return ct


def _assert_subset_matches(evaluate, points, seed):
    # each value depends on its own point only: a random subset, in random
    # or sorted order, reproduces the same rows of the full evaluation
    full = evaluate(points)
    rng = np.random.default_rng(seed)
    idx = rng.choice(points.size, size=rng.integers(1, points.size), replace=False)
    if rng.random() < 0.5:
        idx = np.sort(idx)
    for part, whole in zip(evaluate(points[idx]), full):
        assert np.array_equal(part, whole[idx])


@pytest.mark.parametrize("annulus", [Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_contour_values_on_a_subset_equal_the_full_evaluation(annulus, seed):
    _assert_subset_matches(lambda h: closed_form(h, annulus),
                           contour_table(annulus).init_values[0], seed)


@pytest.mark.parametrize("annulus", [Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_real_values_on_a_subset_equal_the_full_evaluation(annulus, seed):
    (points, _, _), _ = _scanned_table(annulus).scan
    _assert_subset_matches(_real_table(annulus).values, points, seed)


@pytest.mark.parametrize("annulus", _CENSUS_ANNULI)
def test_cached_periods_equal_a_fresh_evaluation(annulus):
    ct = _scanned_table(annulus)
    for cached, fresh in zip(ct.init_values[1:], closed_form(ct.init_values[0], annulus)):
        assert np.array_equal(cached, fresh)
    levels, cached = ct.scan
    for c, fresh in zip(cached, _real_table(annulus).values(levels[0])):
        assert np.array_equal(c, fresh)
    # the table holds the whole grid and every densification window of the
    # interval certify scans
    fresh = zeros._scan_levels(*_default_scan_interval(annulus), zeros._N_SCAN)
    for c, f in zip(levels, fresh):
        assert np.array_equal(c, f)


def test_cached_arrays_are_read_only():
    ct = _scanned_table(Annulus.EXTERIOR)
    levels, periods = ct.scan
    for arr in (ct.vertices, ct.s_init, *ct.init_values, *levels, *periods):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_caches_do_not_grow_over_a_census():
    tables = {a: _scanned_table(a) for a in (Annulus.INTERIOR_RIGHT, Annulus.EXTERIOR)}
    scans = {a: ct.scan for a, ct in tables.items()}
    before = dict(zeros._CONTOUR_CACHE)
    bound_census(2, Annulus.EXTERIOR, n_draws=20, seed=5)
    bound_census(1, Annulus.INTERIOR_RIGHT, n_draws=20, seed=5)
    assert zeros._CONTOUR_CACHE.keys() == before.keys()
    assert all(zeros._CONTOUR_CACHE[key] is ct for key, ct in before.items())
    assert all(ct.scan is scans[a] for a, ct in tables.items())


def test_certify_reads_the_table_the_benchmark_set_up_builds(monkeypatch):
    # the benchmark's set-up calls contour_table(annulus) with its defaults
    # and certify passes R, eta and rho by position: both reach one table,
    # whose scan the first certification builds and every later one reads
    monkeypatch.setattr(zeros, "_CONTOUR_CACHE", {})
    ct = contour_table(Annulus.EXTERIOR)
    assert "scan" not in vars(ct)
    builds = []
    scan_levels = zeros._scan_levels

    def counted(*args):
        builds.append(args)
        return scan_levels(*args)

    monkeypatch.setattr(zeros, "_scan_levels", counted)
    bound_census(2, Annulus.EXTERIOR, n_draws=6, seed=5)
    certify(_single_param(lambda1_1=-2.0, gamma1_6=1.0), 1, Annulus.EXTERIOR)
    bound_census(1, Annulus.EXTERIOR, n_draws=6, seed=6)
    assert "scan" in vars(ct) and len(builds) == 1
    assert len(zeros._CONTOUR_CACHE) == 1 and contour_table(Annulus.EXTERIOR, 10, 1e-3) is ct
