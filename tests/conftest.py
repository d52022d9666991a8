import pytest

from supneg import bounds, library


@pytest.fixture(autouse=True)
def _empty_pair_memo():
    """Each test starts with an empty bounds pair memo: a test that swaps a
    kernel function must not read component sums an earlier test memoized."""
    bounds._pair_memo.clear()


@pytest.fixture
def ghz():
    return library.ghz(2)


@pytest.fixture
def w():
    return library.w_state()
