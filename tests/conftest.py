import pytest

from deltaprime import builtin_profile
from deltaprime.convergence import _default_battery


@pytest.fixture(scope="session")
def seba():
    return builtin_profile("seba-quadratic")


@pytest.fixture(scope="session")
def step():
    return builtin_profile("step")


@pytest.fixture(scope="session")
def zero():
    return builtin_profile("zero")


@pytest.fixture(autouse=True)
def _fresh_battery_memo():
    """Each test starts and ends with an empty study memo, so a test that spies
    on or perturbs the exterior solves neither sees nor leaves a kept entry."""
    _default_battery.cache_clear()
    yield
    _default_battery.cache_clear()
