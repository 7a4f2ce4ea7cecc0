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
