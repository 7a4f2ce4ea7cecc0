"""Dense oracles and copy wrappers that the tests compare the library against.

The library computes each of these one row block or one edge list at a
time; here they are the plain whole-matrix forms, or the single-case
wrappers of a library function:

averaged_projector       the n x n Monte-Carlo projector M; ``ccpca`` of
                         the same K, samples, prior and seed is
                         ``pca(M @ X, q)`` to roundoff
cc_projector             one sample's orthogonal component projector
sample_posterior_graph   one posterior draw as a dense latent graph
neighbor_indices         a stable argsort ranking, the oracle of the
                         partitioned neighbor sets of ``evaluate_embedding``
kary_agreement           ``evaluate_embedding`` at a single k
symmetrize_row_affinity  ``symmetrized_in_place`` of a copy of a row affinity
umap_threshold_prob      ``symmetrized_in_place`` of a copy of a bernoulli one
sym_eig                  the full eigendecomposition of a symmetric matrix,
                         the oracle of Laplacian eigenmaps' solvers
"""

from dataclasses import replace

import numpy as np

from graphcoupling.errors import ContractViolationError
from graphcoupling.evaluation import NeighborhoodScore, evaluate_embedding
from graphcoupling.graph import Partition, connected_components
from graphcoupling.linalg import as_float_matrix, leading_signs
from graphcoupling.posterior import (
    BERNOULLI,
    ROW,
    AffinityMatrix,
    PosteriorSampler,
    symmetrized_in_place,
)


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


def sample_posterior_graph(K, prior: str, rng: np.random.Generator) -> np.ndarray:
    """Draw one latent graph from the limiting posterior.

    Returns an int64 matrix in the latent graph space: zero diagonal, at
    most one edge per row for D, exactly n edges in total for E, and
    independent 0/1 entries for B.  All randomness comes from ``rng``;
    it is the dense form of ``PosteriorSampler(K, prior).draws([rng])[0]``.
    """
    return PosteriorSampler(K, prior).draws([rng])[0].dense()


def averaged_projector(K, samples: int, prior: str, seed: int) -> np.ndarray:
    """Monte-Carlo average of component projectors of posterior graphs.

    The dense oracle of ``ccpca``: sample i is drawn from
    ``np.random.default_rng([seed, i])``, as ``ccpca`` draws it, and goes
    through the n x n latent graph and projector.  The average of
    orthogonal projectors is symmetric and doubly stochastic.
    """
    values = getattr(K, "values", K)
    n = np.asarray(values).shape[0]
    M = np.zeros((n, n), dtype=np.float64)
    for index in range(samples):
        W = sample_posterior_graph(K, prior, np.random.default_rng([seed, index]))
        M += cc_projector(connected_components(W))
    M /= float(samples)
    return M


def neighbor_indices(D: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbors per row of a distance matrix.

    Ranks follow strictly increasing distance with ties broken in favor
    of the smaller index; the point itself is excluded.  Implemented by
    a stable argsort after forcing the diagonal below every distance; the
    oracle the partitioned sets of ``evaluate_embedding`` are tested
    against.
    """
    D = D.copy()
    np.fill_diagonal(D, -1.0)
    order = np.argsort(D, axis=1, kind="stable")
    return order[:, 1:k + 1]


def kary_agreement(X, Z, k: int) -> NeighborhoodScore:
    """Neighborhood agreement between rows of X and rows of Z at size k."""
    return evaluate_embedding(X, Z, [k])[0]


def symmetrize_row_affinity(P: AffinityMatrix) -> AffinityMatrix:
    """P + P^T of a row-normalized affinity; total mass becomes 2n.

    Exactly symmetric: P_ij + P_ji and P_ji + P_ij are the same float.

    Kept unnormalized on purpose; ``classic_scale`` of
    ``coupling.CouplingProblem`` divides it by 2n.
    """
    if P.normalization != ROW:
        raise ContractViolationError(
            f"expected a row-normalized affinity, got {P.normalization!r}")
    return symmetrized_in_place(replace(P, values=P.values.copy()))


def umap_threshold_prob(P: AffinityMatrix) -> AffinityMatrix:
    """Probability that edge {i, j} exists in at least one direction.

    The probabilistic-OR P_ij + P_ji - P_ij P_ji of an elementwise
    Bernoulli affinity; exactly symmetric, because sums and products
    commute, with entries in [0, 1].  The copy of P's values is the only
    n x n array made.
    """
    if P.normalization != BERNOULLI:
        raise ContractViolationError(
            f"expected an elementwise bernoulli affinity, got {P.normalization!r}")
    return symmetrized_in_place(replace(P, values=P.values.copy()))


def sym_eig(A):
    """``(eigenvalues, eigenvectors)`` of a symmetric matrix, eigenvalues descending.

    numpy's ``eigh`` of (A + A^T) / 2, which for an exactly symmetric A
    holds A's own values; column j pairs with eigenvalue j and is signed
    by ``leading_signs``, so repeated calls give the same bytes.  An A
    that is not square, holds a non-finite entry or deviates from
    symmetry by more than 1e-10 of its largest magnitude (or of 1) is
    rejected.
    """
    A = as_float_matrix(A, "A")
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    if A.shape[0] != A.shape[1] or np.abs(A - A.T).max(initial=0.0) > 1e-10 * scale:
        raise ContractViolationError("A must be square and symmetric within 1e-10")
    w, V = np.linalg.eigh((A + A.T) / 2.0)
    V = V[:, ::-1]
    V *= leading_signs(V)
    return w[::-1].copy(), V
