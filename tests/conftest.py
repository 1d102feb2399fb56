import pytest

from dynoscale.systems.intervals import doubling_grid
from dynoscale.systems.shifts import binary_exp_shift


@pytest.fixture(scope="session")
def shift12():
    return binary_exp_shift(depth=12)


@pytest.fixture(scope="session")
def shift6():
    return binary_exp_shift(depth=6, horizon_cap=5)


@pytest.fixture(scope="session")
def doubling64():
    return doubling_grid(64, horizon_cap=8)
