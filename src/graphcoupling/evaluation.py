"""Neighborhood-preservation scores between a dataset and its embedding.

For neighborhood size k, the agreement q is the average fraction of the
k nearest input-space neighbors that are also among the k nearest
embedding-space neighbors.  The adjusted score

    r = ((n - 1) q - k) / (n - 1 - k)

rescales it so a random embedding scores 0 in expectation and a perfect
one scores 1, making values comparable across k and n.

:func:`evaluate_embedding` walks the rows of both spaces one block at a
time: each block's distances to every point, the neighbor sets of every
k from one selection per k, and the count of neighbors the two sets
share.  No full sort and no n x n array is formed.  The blocks run on
the usable cores through :func:`linalg.map_blocks`, which share one
``linalg.ROW_BLOCK_CELLS`` budget among them, so the core count sets the
block height.  A block's distances come from ``linalg._sq_dists``, whose
Gram products for a space wider than ``linalg.DIRECT_DIFFERENCE_COLS``
columns cover fixed, aligned chunks of rows, so every row's distances
are the same bits under any block layout, and those of calibration and
:func:`linalg.pairwise_sq_dists`; :func:`linalg.gram_row_blocks` makes
the blocks whole chunks.  The counts are integers, so their sum, and
every score, is the same under any blocking and at any core count.
A fit does not form the input's distances a second time:
``kernels.calibrated_kernel`` runs the same selection on the distance
rows of its own blocks and keeps the sets packed, and
:func:`evaluate_embedding` given them walks only the embedding's
distances, with the same scores.  ``tests/oracles.py`` ranks a whole
distance matrix by a stable argsort (``neighbor_indices``), the oracle
the tests compare those sets against.
"""

from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractViolationError, ParameterError
from . import linalg
from .linalg import _sq_dists, as_float_matrix, gram_row_blocks, map_blocks


class NeighborhoodScore(NamedTuple):
    k: int
    q: float
    r: float


def _neighbor_sets(D: np.ndarray, rows: slice, ks) -> list:
    """Boolean k-nearest-neighbor sets of a block of rows, one per k in ``ks``.

    ``D`` holds the squared distances from the points ``rows`` to every
    point.  The same sets as a stable argsort ranking
    (``neighbor_indices`` in ``tests/oracles.py``): with each point's
    own entry forced below every distance, the first k + 1 entries of a
    row's stable ranking are the entries below its (k+1)-th smallest
    value t, then the lowest-indexed entries equal to t; the point itself
    is dropped from them.  ``ks`` ascend.  Overwrites D.
    """
    own = (np.arange(D.shape[0]), np.arange(D.shape[1])[rows])
    D[own] = -1.0
    # One kth per partition, largest first, each on the leading k entries
    # of the last: numpy's list-of-kth partition is several times slower.
    selected = D.copy()
    thresholds = np.empty((D.shape[0], len(ks)))
    for i in reversed(range(len(ks))):
        selected.partition(ks[i], axis=1)
        thresholds[:, i] = selected[:, ks[i]]
        selected = selected[:, :ks[i]]
    del selected
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


def evaluate_embedding(X, Z, ks: Sequence[int], x_neighbors=None) -> list:
    """Agreement scores at several neighborhood sizes, ascending in k.

    ``x_neighbors`` may hold X's packed neighbor sets at ``check_ks(ks)``,
    the ``neighbors`` of ``kernels.calibrated_kernel(X, perplexity, ks)``;
    then only Z's distances are formed.
    """
    X = as_float_matrix(X, "X")
    Z = as_float_matrix(Z, "Z")
    n = X.shape[0]
    if Z.shape[0] != n:
        raise ContractViolationError(
            f"X and Z must have the same number of rows, got {n} and {Z.shape[0]}")
    ks = check_ks(ks, n)
    if not ks:
        return []
    if x_neighbors is None:
        x_dists = _sq_dists(X)
    elif np.shape(x_neighbors) != (len(ks), n, -(-n // 8)):
        raise ContractViolationError(
            f"x_neighbors must have shape {(len(ks), n, -(-n // 8))}, "
            f"got {np.shape(x_neighbors)}")
    z_dists = _sq_dists(Z)

    def count(rows):
        if x_neighbors is None:
            in_x = _neighbor_sets(x_dists(rows), rows, ks)
        else:
            in_x = [np.unpackbits(sets[rows], axis=1, count=n).view(bool)
                    for sets in x_neighbors]
        in_z = _neighbor_sets(z_dists(rows), rows, ks)
        return [np.count_nonzero(mx & mz) for mx, mz in zip(in_x, in_z)]

    # The workers share one block budget, so scoring holds no more than
    # a serial walk would, give or take the rounding up to whole chunks.
    blocks = gram_row_blocks(n, linalg.ROW_BLOCK_CELLS // linalg.usable_cores())
    shared = np.sum(map_blocks(count, blocks), axis=0, dtype=np.int64)
    scores = []
    for k, hits in zip(ks, shared):
        q = float(hits) / (k * n)
        r = ((n - 1) * q - k) / (n - 1 - k)
        scores.append(NeighborhoodScore(k, q, float(r)))
    return scores
