import pytest

from dt4vertex.vertexcalc import MEMORY


@pytest.fixture(autouse=True)
def fresh_dtpt_solves():
    """Every test starts and ends with no DT/PT solve kept in the in-process
    root store: a test that patches a root function or counts solver calls
    needs a solve of its own, and must not leave a solve built under its
    patch behind."""
    MEMORY.solves.clear()
    yield
    MEMORY.solves.clear()
