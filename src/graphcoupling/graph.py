"""Latent graphs, their Laplacians, and the pairwise MRF density.

A latent graph W is an integer matrix with zero diagonal, nonnegative
entries, and no entry exceeding n.  Directed multiplicities are allowed;
undirected structure always goes through the symmetrization W + W^T.
A sparse latent graph travels as an :class:`EdgeList`; connected
components are found over edges, so no dense matrix is needed for them,
and ``_component_means`` applies a partition's component projector
without forming it (``tests/oracles.py`` keeps the dense ``cc_projector``
and ``split_mean_centered``).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError
from .kernels import log_kernel
from . import linalg
from .linalg import as_float_matrix, pairwise_sq_dists, row_blocks


@dataclass(frozen=True)
class Partition:
    """Connected-component assignment; component ids ordered by smallest member."""

    assignment: np.ndarray  # shape (n,), values in [0, n_components)
    sizes: np.ndarray       # shape (n_components,)

    @property
    def n_components(self) -> int:
        return int(self.sizes.shape[0])


class EdgeList(NamedTuple):
    """Latent graph on n nodes as row-major edges.

    ``W[rows[e], cols[e]] == counts[e] > 0`` and every other entry is 0;
    edges are sorted by row, then column, as ``np.nonzero`` lists them.
    """

    n: int
    rows: np.ndarray    # int64
    cols: np.ndarray    # int64
    counts: np.ndarray  # int64, positive

    def dense(self) -> np.ndarray:
        W = np.zeros((self.n, self.n), dtype=np.int64)
        W[self.rows, self.cols] = self.counts
        return W


def validate_latent_graph(W) -> np.ndarray:
    """Check membership in the latent graph space and return an int64 copy."""
    A = np.asarray(W)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolationError(f"latent graph must be square, got shape {A.shape}")
    n = A.shape[0]
    if not np.issubdtype(A.dtype, np.integer):
        F = np.asarray(A, dtype=np.float64)
        if not np.isfinite(F).all() or not (F == np.round(F)).all():
            raise ContractViolationError("latent graph entries must be integers")
        A = F.astype(np.int64)
    else:
        A = A.astype(np.int64)
    if n and np.diag(A).any():
        raise ContractViolationError("latent graph diagonal must be zero")
    if n and int(A.min()) < 0:
        raise ContractViolationError("latent graph entries must be nonnegative")
    if n and int(A.max()) > n:
        raise ContractViolationError(f"latent graph entries must not exceed n={n}")
    return A


def laplacian(W) -> np.ndarray:
    """Graph Laplacian of the symmetrized graph W + W^T, in float64.

    W + W^T is summed in integers and handed to :func:`weighted_laplacian`.
    Its entries and row sums are integers below 2**53 (a row sums to at
    most 2 n**2), so every float sum is exact and rows sum to zero exactly.
    """
    A = validate_latent_graph(W)
    return weighted_laplacian(A + A.T)


def weighted_laplacian(A) -> np.ndarray:
    """Laplacian diag(row sums) - A of a nonnegative weight matrix.

    Callers that start from a directed weight matrix should pass A + A^T;
    no symmetrization is applied here.
    """
    A = as_float_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ContractViolationError(f"weight matrix must be square, got {A.shape}")
    if A.size and float(A.min()) < 0.0:
        raise ContractViolationError("weight matrix has negative entries")
    # 0 - A rather than -A, so a zero weight gives the +0.0 of diag(row sums) - A.
    L = np.subtract(0.0, A)
    L[np.diag_indices_from(L)] += A.sum(axis=1)
    return L


def _component_roots(n: int, rows, cols, parent=None) -> np.ndarray:
    """Smallest member of each node's component under edges {rows[e], cols[e]}.

    Hooking with pointer jumping, from ``parent`` (overwritten), the
    roots of earlier edges, or else every node on its own.  Every node
    points at a node of no larger index in its component; each round
    hooks the larger root of every edge that joins two trees onto the
    smaller, then jumps every pointer to its root.  Each round merges at
    least one pair of trees, so the loop ends; a shuffled path of 2000
    nodes takes 7 rounds and one of 200000 nodes 11.  When no edge joins
    two trees, each root is its component's smallest member, whichever
    hook won a round.
    """
    if parent is None:
        parent = np.arange(n, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    while True:
        a, b = parent[rows], parent[cols]
        joins = a != b
        if not joins.any():
            return parent
        a, b = a[joins], b[joins]
        parent[np.maximum(a, b)] = np.minimum(a, b)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def _partition_from_roots(roots: np.ndarray) -> Partition:
    """Partition labelled in the order of each component's smallest member."""
    is_root = roots == np.arange(roots.shape[0])
    assignment = (np.cumsum(is_root) - 1)[roots]
    return Partition(assignment, np.bincount(assignment, minlength=int(is_root.sum())))


def components_from_edges(n: int, rows, cols) -> Partition:
    """Connected components of n nodes joined by undirected edges {rows[e], cols[e]}.

    Component labels increase with the smallest member of each
    component, which fixes the labeling deterministically.
    """
    return _partition_from_roots(_component_roots(n, rows, cols))


def components_from_support(adjacent: np.ndarray) -> Partition:
    """Connected components of a symmetric adjacency matrix's nonzero entries.

    The support is read one block of rows at a time, so a dense support
    never becomes an n^2 edge list.  A block's edges are int64 pairs, 16
    bytes and more for each nonzero cell of the block, so this walk takes
    an eighth of the row-block budget per block.  Consecutive blocks' edges
    fill one block's worth of edges before they are hooked, in one call,
    onto the component roots of the edges before them: each call jumps
    pointers over all n nodes, so a call per block would cost O(n^3) on a
    sparse support.  A block with a row whose support covers every other
    node ends the walk: that row's node joins all of them into one component.
    """
    n = adjacent.shape[0]
    budget = linalg.ROW_BLOCK_CELLS // 8
    roots = np.arange(n, dtype=np.int64)
    # A block has at most max(budget, n) cells, and the support n^2.
    rows, cols = np.empty((2, min(n * n, max(budget, n))), dtype=np.int64)
    edges = 0
    for block in row_blocks(n, cells=budget):
        support = adjacent[block] != 0
        own = np.arange(block.start, block.stop)
        degrees = np.count_nonzero(support, axis=1)
        if (degrees + ~support[own - block.start, own] == n).any():
            return _partition_from_roots(np.zeros(n, dtype=np.int64))
        stop = edges + int(degrees.sum())
        if stop > rows.shape[0]:
            roots = _component_roots(n, rows[:edges], cols[:edges], roots)
            edges, stop = 0, stop - edges
        rows[edges:stop], cols[edges:stop] = np.nonzero(support)
        rows[edges:stop] += block.start
        edges = stop
    return _partition_from_roots(_component_roots(n, rows[:edges], cols[:edges], roots))


def _component_means(X: np.ndarray, partition: Partition) -> np.ndarray:
    """Row i of the result is the mean of the rows of the validated X in i's component.

    The sums are taken over the flattened arrays, entry by entry in row
    order, as the 2-D ``np.add.at(sums, assignment, X)`` adds them, but
    without its slow path for a row index into a 2-D array.
    """
    assign = partition.assignment
    p = X.shape[1]
    sums = np.zeros((partition.n_components, p), dtype=np.float64)
    np.add.at(sums.ravel(), (assign[:, None] * p + np.arange(p)).ravel(), X.ravel())
    return (sums / partition.sizes[:, None])[assign]


def log_mrf_density(X, W, kind: str, bandwidths=None) -> float:
    """Log of the pairwise Markov random field density of (X, W).

    Sum over ordered pairs of W_ij * log k((X_i - X_j) / tau_i).  Pairs
    with zero weight contribute exactly zero, the empty-product
    convention, even where the kernel vanishes; any positively weighted
    pair with k = 0 yields the -inf sentinel.
    """
    A = validate_latent_graph(W)
    X = as_float_matrix(X, "X")
    if X.shape[0] != A.shape[0]:
        raise ContractViolationError(
            f"X has {X.shape[0]} rows but W is {A.shape[0]}x{A.shape[0]}")
    logk = log_kernel(pairwise_sq_dists(X), kind, bandwidths)
    terms = np.where(A > 0, A * logk, 0.0)
    return float(terms.sum())
