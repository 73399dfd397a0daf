import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from duffing_melnikov.abelian import closed_form
from duffing_melnikov.geometry import Annulus
from duffing_melnikov.melnikov import pole_cleared_eval

# numerics are slow per example; keep example counts modest and drop deadlines
settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("numeric")


def pytest_configure(config):
    # any warning fails its test: a numpy overflow, invalid operation or division
    # by zero, a deprecation, an unraisable exception
    config.addinivalue_line("filterwarnings", "error")
    # except one raised by Hypothesis's own reporting of a failing @given test
    # (it imports libcst, which imports mypy_extensions.TypedDict): as an
    # error it aborts the session with INTERNALERROR and hides the failure
    config.addinivalue_line(
        "filterwarnings", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _circle_argument(form) -> float:
    """Argument (radians) the form's counting function gains along |h| = 10.

    The arc is the default keyhole's big circle, from the cut at height 1e-3
    round to its other side, cut into 4096 equal edges.  Interior forms are
    read raw; exterior ones pole-cleared and divided by I_0, as the winding
    counts them.  Every phase step must stay below pi/2, so the steps add up
    to the continuous argument.
    """
    exterior = form.annulus is Annulus.EXTERIOR
    th = math.asin(1e-3 / 10.0)
    theta = np.linspace(th, 2.0 * math.pi - th, 4097) - (math.pi if exterior else 0.0)
    h = 10.0 * np.exp(1j * theta)
    i0, i1, i2, _, _ = closed_form(h, form.annulus)
    v = pole_cleared_eval(form, h, (i0, i1, i2))
    if exterior:
        v = v / i0
    steps = np.angle(v[1:] / v[:-1])
    assert np.all(np.abs(steps) < 0.5 * math.pi)
    return float(np.sum(steps))


@pytest.fixture
def circle_argument():
    """The growth diagnostic: see _circle_argument."""
    return _circle_argument
