import pytest

from graphcoupling import linalg


@pytest.fixture(params=[1, 100, linalg.ROW_BLOCK_CELLS])
def block_cells(request, monkeypatch):
    """Run a test under the row-block budget ``request.param``.

    The default budgets are one row per block, a few rows per block and
    the package default.  A test that needs other budgets parametrizes
    ``block_cells`` with ``indirect=True``.
    """
    monkeypatch.setattr(linalg, "ROW_BLOCK_CELLS", request.param)
    return request.param


@pytest.fixture
def blas_at_two_threads():
    """Every loaded OpenBLAS at two threads for a test, put back after it.

    Yields a function that reads the thread count of each OpenBLAS.
    """
    controls = linalg._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")

    def counts():
        return [get() for get, _ in controls]

    saved = counts()
    for _, set_ in controls:
        set_(2)
    yield counts
    for (_, set_), count in zip(controls, saved):
        set_(count)
