import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# numerics are slow per example; keep example counts modest and drop deadlines
settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("numeric")


def pytest_configure(config):
    # an overflow, invalid operation or division by zero in the numerics fails its test
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
