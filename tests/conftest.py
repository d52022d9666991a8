import pytest

from reference import haar_unitary
from supneg import library


@pytest.fixture
def ghz():
    return library.ghz(2)


@pytest.fixture
def w():
    return library.w_state()


def haar(dims, seed):
    return library.haar_random(dims, seed)


def random_product_unitaries(dims, seed):
    return [haar_unitary(d, seed + 1000 * k) for k, d in enumerate(dims)]
