import pytest

from supneg import bounds, library, states


@pytest.fixture(autouse=True)
def _empty_memos():
    """Each test starts with an empty bounds pair memo and state-file memo: a
    test that swaps a kernel or parsing function must not read component sums
    or states an earlier test memoized."""
    bounds._pair_memo.clear()
    states._state_memo.clear()


@pytest.fixture
def ghz():
    return library.ghz(2)


@pytest.fixture
def w():
    return library.w_state()
