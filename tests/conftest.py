import pytest

from supneg import library


@pytest.fixture
def ghz():
    return library.ghz(2)


@pytest.fixture
def w():
    return library.w_state()
