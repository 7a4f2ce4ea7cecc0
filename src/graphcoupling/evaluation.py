"""Neighborhood-preservation scores between a dataset and its embedding.

For neighborhood size k, the agreement q is the average fraction of the
k nearest input-space neighbors that are also among the k nearest
embedding-space neighbors.  The adjusted score

    r = ((n - 1) q - k) / (n - 1 - k)

rescales it so a random embedding scores 0 in expectation and a perfect
one scores 1, making values comparable across k and n.

:func:`evaluate_embedding` walks the rows of both spaces one block at a
time: each block's distances to every point, one ``np.partition`` per
space for the neighbor sets of every k, and the count of neighbors the
two sets share.  No full sort and no n x n array is formed.  The blocks
run on the usable cores through :func:`linalg.map_blocks`, which share
one ``linalg.ROW_BLOCK_CELLS`` budget among them; the counts are
integers, so their sum, and every score, is the same under any blocking
and at any core count.
:func:`neighbor_indices` ranks a whole distance matrix by a stable
argsort and is kept as the oracle the tests compare those sets against.
"""

from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractViolationError, ParameterError
from . import linalg
from .linalg import as_float_matrix, block_sq_dists, map_blocks, row_blocks


class NeighborhoodScore(NamedTuple):
    k: int
    q: float
    r: float


def neighbor_indices(D: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbors per row of a distance matrix.

    Ranks follow strictly increasing distance with ties broken in favor
    of the smaller index; the point itself is excluded.  Implemented by
    a stable argsort after forcing the diagonal below every distance; the
    oracle the partitioned sets of :func:`evaluate_embedding` are tested
    against.
    """
    D = D.copy()
    np.fill_diagonal(D, -1.0)
    order = np.argsort(D, axis=1, kind="stable")
    return order[:, 1:k + 1]


def _neighbor_sets(D: np.ndarray, rows: slice, ks) -> list:
    """Boolean k-nearest-neighbor sets of a block of rows, one per k in ``ks``.

    ``D`` holds the squared distances from the points ``rows`` to every
    point.  The same sets as :func:`neighbor_indices`: with each point's
    own entry forced below every distance, the first k + 1 entries of a
    row's stable ranking are the entries below its (k+1)-th smallest
    value t, then the lowest-indexed entries equal to t; the point itself
    is dropped from them.  Overwrites D.
    """
    own = (np.arange(D.shape[0]), np.arange(D.shape[1])[rows])
    D[own] = -1.0
    thresholds = np.partition(D, ks, axis=1)[:, ks]
    masks = []
    for k, t in zip(ks, thresholds.T):
        t = t[:, None]
        chosen = D <= t
        # Rows with more than k + 1 entries <= t keep the lowest-indexed ties.
        over = np.nonzero(chosen.sum(axis=1) > k + 1)[0]
        if over.size:
            sub, t_sub = D[over], t[over]
            below, tied = sub < t_sub, sub == t_sub
            room = k + 1 - below.sum(axis=1)
            chosen[over] = below | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
        chosen[own] = False
        masks.append(chosen)
    return masks


def check_ks(ks: Sequence[int], n: int) -> list:
    """The distinct neighborhood sizes ``ks`` ascending; each must lie in [1, n - 2]."""
    ks = sorted(set(int(k) for k in ks))
    for k in ks:
        if not (1 <= k <= n - 2):
            raise ParameterError(f"k must lie in [1, n - 2 = {n - 2}], got {k}")
    return ks


def evaluate_embedding(X, Z, ks: Sequence[int]) -> list:
    """Agreement scores at several neighborhood sizes, ascending in k."""
    X = as_float_matrix(X, "X")
    Z = as_float_matrix(Z, "Z")
    n = X.shape[0]
    if Z.shape[0] != n:
        raise ContractViolationError(
            f"X and Z must have the same number of rows, got {n} and {Z.shape[0]}")
    ks = check_ks(ks, n)
    if not ks:
        return []
    x_dists, z_dists = block_sq_dists(X), block_sq_dists(Z)

    def count(rows):
        in_x = _neighbor_sets(x_dists(rows), rows, ks)
        in_z = _neighbor_sets(z_dists(rows), rows, ks)
        return [np.count_nonzero(mx & mz) for mx, mz in zip(in_x, in_z)]

    # The workers share one block budget, so scoring holds no more than
    # a serial walk would.
    blocks = row_blocks(n, cells=linalg.ROW_BLOCK_CELLS // linalg.usable_cores())
    shared = np.sum(map_blocks(count, blocks), axis=0, dtype=np.int64)
    scores = []
    for k, hits in zip(ks, shared):
        q = float(hits) / (k * n)
        r = ((n - 1) * q - k) / (n - 1 - k)
        scores.append(NeighborhoodScore(k, q, float(r)))
    return scores


def kary_agreement(X, Z, k: int) -> NeighborhoodScore:
    """Neighborhood agreement between rows of X and rows of Z at size k."""
    return evaluate_embedding(X, Z, [k])[0]
