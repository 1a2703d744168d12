import pytest

from dt4vertex import signsearch


@pytest.fixture(autouse=True)
def fresh_dtpt_memo():
    """Every test starts and ends with no memoized DT/PT solve: a test that
    patches a root function or counts solver calls needs a solve of its
    own, and must not leave a solve built under its patch behind."""
    signsearch._DTPT_MEMO.clear()
    yield
    signsearch._DTPT_MEMO.clear()
