"""The lock-step DOP853 engine's tableau and first step against scipy's DOP853.

The engine reads scipy's coefficient file by its location and copies
scipy's first-step rule instead of importing scipy.integrate; these tests
hold both to scipy.integrate.DOP853 float for float.
"""

import numpy as np
import pytest
from scipy.integrate import DOP853

from duffing_melnikov import _dop853
from duffing_melnikov._dop853 import Lane
from duffing_melnikov.abelian import _TRANSPORT_ATOL, _TRANSPORT_RTOL, _pf_rhs
from duffing_melnikov.melnikov import PerturbationParams
from duffing_melnikov.oracle import _FLOW_ATOL, _FLOW_RTOL, _TIME_BUDGET, _perturbed_rhs


def test_tableau_is_scipys():
    pairs = [(_dop853._A, DOP853.A), (_dop853._B, DOP853.B), (_dop853._C, DOP853.C),
             (_dop853._E3, DOP853.E3), (_dop853._E5, DOP853.E5), (_dop853._D, DOP853.D),
             (_dop853._A_EXTRA, DOP853.A_EXTRA), (_dop853._C_EXTRA, DOP853.C_EXTRA)]
    for ours, scipys in pairs:
        assert np.array_equal(ours, scipys)
    assert _dop853._STAGES == DOP853.n_stages
    assert _dop853._ERROR_ORDER == DOP853.error_estimator_order
    assert _dop853._TOO_SMALL_STEP == DOP853.TOO_SMALL_STEP


def _assert_start_is_scipys(rhs, state, t_end, rtol, atol):
    lane = Lane(rhs, state, t_end, rtol, atol, "lane")
    solver = DOP853(rhs, 0.0, state, t_end, rtol=rtol, atol=atol)
    assert lane.h_abs == solver.h_abs
    assert lane.f0.tolist() == solver.f.tolist()
    assert lane.y0.tolist() == solver.y.tolist()


@pytest.mark.parametrize("seed", range(6))
def test_first_step_is_scipys_on_the_flow(seed):
    rng = np.random.default_rng(seed)
    params = PerturbationParams.random(rng, scale=0.5)
    state = rng.uniform(-1.5, 1.5, 2).tolist()
    for epsilon in (0.0, 1e-2, -2.5e-3):
        for t_end in (_TIME_BUDGET, 1e-7):  # 1e-7 caps the step at the interval
            _assert_start_is_scipys(_perturbed_rhs(params, epsilon), state, t_end,
                                    _FLOW_RTOL, _FLOW_ATOL)


@pytest.mark.parametrize("seed", range(6))
def test_first_step_is_scipys_on_the_transport(seed):
    rng = np.random.default_rng(seed)
    z0 = complex(*rng.uniform(0.2, 3.0, 2))
    dz = complex(*rng.uniform(-1.0, 1.0, 2))
    state = rng.uniform(-5.0, 5.0, 4).tolist()
    _assert_start_is_scipys(_pf_rhs(z0, dz), state, 1.0, _TRANSPORT_RTOL, _TRANSPORT_ATOL)


def test_first_step_is_scipys_at_a_zero_state_and_a_zero_field():
    # the zero state takes the h0 = 1e-6 branch; a zero field also takes the
    # branch for vanishing derivatives, d1 and d2 <= 1e-15
    params = PerturbationParams.random(np.random.default_rng(0), scale=0.5)
    _assert_start_is_scipys(_perturbed_rhs(params, 1e-2), [0.0, 0.0], _TIME_BUDGET,
                            _FLOW_RTOL, _FLOW_ATOL)
    _assert_start_is_scipys(lambda t, z: (0.0, 0.0), [0.5, -0.25], _TIME_BUDGET,
                            _FLOW_RTOL, _FLOW_ATOL)
    _assert_start_is_scipys(lambda t, z: (0.0, 0.0), [0.0, 0.0], 1.0,
                            _FLOW_RTOL, _FLOW_ATOL)
