"""Level-oval geometry: branch points, the level-set identity, domains."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from duffing_melnikov.geometry import (
    Annulus,
    DomainError,
    branch_points,
    hamiltonian,
    section_point,
)

INTERIOR_H = st.floats(-0.249, -0.002)
EXTERIOR_H = st.floats(0.01, 50.0)
FRACTION = st.floats(0.001, 0.999)


def test_critical_values():
    # H at the centers (+-1, 0) and at the saddle (0, 0)
    assert hamiltonian(1.0, 0.0) == -0.25
    assert hamiltonian(-1.0, 0.0) == -0.25
    assert hamiltonian(0.0, 0.0) == 0.0


def test_hamiltonian_symmetry():
    xs = np.linspace(-1.7, 1.7, 23)
    assert np.array_equal(hamiltonian(xs, 0.4), hamiltonian(-xs, 0.4))
    assert hamiltonian(0.3, 1.5) - hamiltonian(0.3, 0.0) == pytest.approx(1.125)


@pytest.mark.parametrize("annulus", list(Annulus))
@pytest.mark.parametrize("frac", [0.05, 0.5, 0.95])
def test_branch_points_are_level_roots(annulus, frac):
    h = frac * 4.0 if annulus is Annulus.EXTERIOR else -0.25 + 0.248 * frac
    geom = branch_points(h, annulus)
    assert hamiltonian(geom.x_lo, 0.0) == pytest.approx(h, abs=1e-13)
    assert hamiltonian(geom.x_hi, 0.0) == pytest.approx(h, abs=1e-13)
    assert geom.x_lo < geom.x_hi
    if annulus is Annulus.INTERIOR_RIGHT:
        assert 0.0 < geom.x_lo
    elif annulus is Annulus.INTERIOR_LEFT:
        assert geom.x_hi < 0.0
    else:
        assert geom.x_lo == -geom.x_hi


def test_interior_lobes_mirror_each_other():
    right = branch_points(-0.1, Annulus.INTERIOR_RIGHT)
    left = branch_points(-0.1, Annulus.INTERIOR_LEFT)
    assert left.x_lo == -right.x_hi
    assert left.x_hi == -right.x_lo


@given(h=INTERIOR_H, t=FRACTION)
def test_level_set_identity_interior(h, t):
    geom = branch_points(h, Annulus.INTERIOR_RIGHT)
    x = geom.x_lo + t * (geom.x_hi - geom.x_lo)
    y = np.sqrt(max(2.0 * h + x * x - 0.5 * x ** 4, 0.0))
    assert hamiltonian(x, y) == pytest.approx(h, abs=1e-10)


@given(h=EXTERIOR_H, t=FRACTION)
def test_level_set_identity_exterior(h, t):
    geom = branch_points(h, Annulus.EXTERIOR)
    x = geom.x_lo + t * (geom.x_hi - geom.x_lo)
    y = np.sqrt(max(2.0 * h + x * x - 0.5 * x ** 4, 0.0))
    assert hamiltonian(x, y) == pytest.approx(h, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("annulus,h", [
    (Annulus.INTERIOR_RIGHT, 0.0),
    (Annulus.INTERIOR_RIGHT, -0.25),
    (Annulus.INTERIOR_RIGHT, 0.3),
    (Annulus.INTERIOR_LEFT, -0.3),
    (Annulus.EXTERIOR, -0.1),
    (Annulus.EXTERIOR, 0.0),
])
def test_levels_outside_annulus_rejected(annulus, h):
    with pytest.raises(DomainError):
        branch_points(h, annulus)


def test_annulus_labels_roundtrip():
    for annulus in Annulus:
        assert Annulus.from_label(annulus.value) is annulus
    with pytest.raises(ValueError):
        Annulus.from_label("outer")


@pytest.mark.parametrize("annulus,h", [
    (Annulus.INTERIOR_RIGHT, -0.15),
    (Annulus.INTERIOR_LEFT, -0.15),
    (Annulus.EXTERIOR, 2.0),
])
def test_section_point_sits_on_level(annulus, h):
    x, y = section_point(h, annulus)
    assert hamiltonian(x, y) == pytest.approx(h, abs=1e-13)
    if annulus is Annulus.EXTERIOR:
        assert x == 0.0 and y > 0.0
    elif annulus is Annulus.INTERIOR_RIGHT:
        assert x > 1.0 and y == 0.0
    else:
        assert x < -1.0 and y == 0.0


def test_interior_oval_shrinks_at_center_level():
    # near h = -1/4 the lobe width scales like sqrt(h + 1/4)
    widths = [branch_points(h, Annulus.INTERIOR_RIGHT).x_hi
              - branch_points(h, Annulus.INTERIOR_RIGHT).x_lo
              for h in (-0.2499, -0.249999)]
    assert widths[1] < widths[0] < 0.05
    assert widths[1] == pytest.approx(widths[0] / 10.0, rel=1e-2)
