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
    """numpy's OpenBLAS, the library every solver comes from, at two
    threads for a test, put back after it.

    Yields a function that reads its thread count.
    """
    controls = linalg._blas_functions(linalg._THREAD_CONTROLS)
    if controls is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS")
    get, set_ = controls
    saved = get()
    set_(2)
    yield get
    set_(saved)


@pytest.fixture
def without_numpys_blas(monkeypatch):
    """Yields a function that, called, makes numpy's linear-algebra module
    fail to reopen for the rest of the test, as on a platform without
    ``RTLD_NOLOAD``: every foreign lookup then finds nothing."""
    def drop():
        linalg._blas_function.cache_clear()
        monkeypatch.setattr(linalg, "_blas_library", lambda: None)
    yield drop
    linalg._blas_function.cache_clear()
