"""Neighborhood-preservation scores between a dataset and its embedding.

For neighborhood size k, the agreement q is the average fraction of the
k nearest input-space neighbors that are also among the k nearest
embedding-space neighbors.  The adjusted score

    r = ((n - 1) q - k) / (n - 1 - k)

rescales it so a random embedding scores 0 in expectation and a perfect
one scores 1, making values comparable across k and n.

:func:`evaluate_embedding` builds each space's distance matrix once and
finds the neighbor sets of every k from one ``np.partition`` of each
block of its rows, with no full sort.  :func:`neighbor_indices` ranks
by a full stable argsort and is kept as the oracle the tests compare
those sets against.
"""

from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractViolationError, ParameterError
from .linalg import as_float_matrix, pairwise_sq_dists

#: Distance cells :func:`evaluate_embedding` partitions per block of rows;
#: bounds its temporaries.
NEIGHBOR_BLOCK_CELLS = 1 << 16


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


def _neighbor_masks(D: np.ndarray, ks) -> list:
    """Boolean k-nearest-neighbor sets per row of D, one per k in ``ks``.

    The same sets as :func:`neighbor_indices`.  With the diagonal forced
    below every distance, the first k + 1 entries of a row's stable
    ranking are the entries below its (k+1)-th smallest value t, then
    the lowest-indexed entries equal to t; the diagonal is dropped from
    them.  Rows are partitioned a block at a time, so the temporaries
    stay O(block * n).  Overwrites D.
    """
    n = D.shape[0]
    np.fill_diagonal(D, -1.0)
    masks = [np.empty((n, n), dtype=bool) for _ in ks]
    step = max(1, NEIGHBOR_BLOCK_CELLS // max(n, 1))
    for lo in range(0, n, step):
        block = D[lo:lo + step]
        thresholds = np.partition(block, ks, axis=1)[:, ks]
        for mask, k, t in zip(masks, ks, thresholds.T):
            t = t[:, None]
            chosen = block <= t
            # Rows with more than k + 1 entries <= t keep the lowest-indexed ties.
            over = np.nonzero(chosen.sum(axis=1) > k + 1)[0]
            if over.size:
                sub, t_sub = block[over], t[over]
                below, tied = sub < t_sub, sub == t_sub
                room = k + 1 - below.sum(axis=1)
                chosen[over] = below | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
            mask[lo:lo + step] = chosen
    for mask in masks:
        np.fill_diagonal(mask, False)
    return masks


def evaluate_embedding(X, Z, ks: Sequence[int]) -> list:
    """Agreement scores at several neighborhood sizes, ascending in k."""
    X = as_float_matrix(X, "X")
    Z = as_float_matrix(Z, "Z")
    n = X.shape[0]
    if Z.shape[0] != n:
        raise ContractViolationError(
            f"X and Z must have the same number of rows, got {n} and {Z.shape[0]}")
    ks = sorted(set(int(k) for k in ks))
    for k in ks:
        if not (1 <= k <= n - 2):
            raise ParameterError(f"k must lie in [1, n - 2 = {n - 2}], got {k}")
    if not ks:
        return []
    in_x = _neighbor_masks(pairwise_sq_dists(X), ks)
    in_z = _neighbor_masks(pairwise_sq_dists(Z), ks)
    scores = []
    for k, mask_x, mask_z in zip(ks, in_x, in_z):
        q = float((mask_x & mask_z).sum()) / (k * n)
        r = ((n - 1) * q - k) / (n - 1 - k)
        scores.append(NeighborhoodScore(k, q, float(r)))
    return scores


def kary_agreement(X, Z, k: int) -> NeighborhoodScore:
    """Neighborhood agreement between rows of X and rows of Z at size k."""
    return evaluate_embedding(X, Z, [k])[0]
