"""Latent graphs, their Laplacians, and the pairwise MRF density.

A latent graph W is an integer matrix with zero diagonal, nonnegative
entries, and no entry exceeding n.  Directed multiplicities are allowed;
undirected structure always goes through the symmetrization W + W^T.
A sparse latent graph travels as an :class:`EdgeList`; connected
components are found over edges, so no dense matrix is needed for them.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError
from .kernels import log_kernel
from .linalg import as_float_matrix, pairwise_sq_dists

#: Adjacency cells :func:`components_from_support` reads per block; bounds
#: the edges it holds at once.
SUPPORT_BLOCK_CELLS = 1 << 17


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
    """Graph Laplacian of the symmetrized graph W + W^T.

    Degrees and off-diagonal terms are accumulated in integer arithmetic,
    so rows sum to zero exactly; the result is cast to float64 at the end.
    """
    A = validate_latent_graph(W)
    B = A + A.T
    L = np.diag(B.sum(axis=1)) - B
    return L.astype(np.float64)


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
    return np.diag(A.sum(axis=1)) - A


def _component_roots(n: int, rows, cols) -> np.ndarray:
    """Smallest member of each node's component under edges {rows[e], cols[e]}.

    Hooking with pointer jumping.  Every node points at a node of no
    larger index in its component; each round hooks the larger root of
    every edge that joins two trees onto the smaller, then jumps every
    pointer to its root.  Each round merges at least one pair of trees,
    so the loop ends; a shuffled path of 2000 nodes takes 7 rounds and
    one of 200000 nodes 11.  When no edge joins two trees, each root is
    its component's smallest member, whichever hook won a round.
    """
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
    """Connected components of a boolean symmetric adjacency matrix.

    The support is read one block of rows at a time, so a dense support
    never becomes an n^2 edge list.  Each block's edges are joined with
    one edge from every node to the smallest member of its component so
    far, which carries the connectivity of the earlier blocks.
    """
    n = adjacent.shape[0]
    nodes = np.arange(n, dtype=np.int64)
    roots = nodes
    step = max(1, SUPPORT_BLOCK_CELLS // max(n, 1))
    for lo in range(0, n, step):
        rows, cols = np.nonzero(adjacent[lo:lo + step])
        roots = _component_roots(n, np.concatenate([nodes, rows + lo]),
                                 np.concatenate([roots, cols]))
    return _partition_from_roots(roots)


def connected_components(W) -> Partition:
    """Connected components of the positive support of W + W^T."""
    A = validate_latent_graph(W)
    return components_from_edges(A.shape[0], *np.nonzero(A))


def cc_projector(partition: Partition) -> np.ndarray:
    """Orthogonal projector onto component-wise constant vectors.

    Block-constant matrix with 1/n_r inside component r and zeros across
    components; equals U U^T for the normalized component indicators U.
    """
    assign = partition.assignment
    sizes = partition.sizes
    M = (assign[:, None] == assign[None, :]).astype(np.float64)
    M /= sizes[assign][:, None].astype(np.float64)
    return M


def split_mean_centered(X, partition: Partition):
    """Split X into component-wise means and the centered remainder.

    Returns ``(X_M, X_C)`` whose sum reconstructs X up to one unit of
    roundoff per entry; row i of X_M repeats the mean of the component
    containing i, so each component's rows of X_C sum to zero.
    """
    X = as_float_matrix(X, "X")
    assign = partition.assignment
    if X.shape[0] != assign.shape[0]:
        raise ContractViolationError(
            f"X has {X.shape[0]} rows but partition covers {assign.shape[0]}")
    sums = np.zeros((partition.n_components, X.shape[1]), dtype=np.float64)
    np.add.at(sums, assign, X)
    X_M = (sums / partition.sizes[:, None])[assign]
    return X_M, X - X_M


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
