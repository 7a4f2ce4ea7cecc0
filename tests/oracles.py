"""Dense oracles and copy wrappers that the tests compare the library against.

The library computes each of these one row block or one edge list at a
time; here they are the plain whole-matrix forms, or the single-case
wrappers of a library function:

kernel_matrix            the kernel at given bandwidths, exp of ``log_kernel``
                         over all of ``pairwise_sq_dists``; ``calibrated_kernel``
                         has its values at the calibrated ones
posterior_expectation    ``_expectation_in_place`` on a validated copy of K,
                         the arithmetic ``input_affinity`` writes over K
connected_components     ``components_from_edges`` of a dense latent graph
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
split_mean_centered      X split into its component means, as ``ccpca``
                         adds them up, and the centered remainder
expected_graph           the mean latent graph a ``CouplingProblem`` pulls
                         toward, P times its per-direction edge scale

and the model of the paper's closing claim, that PCA is a non-degenerate
graph coupling (acceptance criterion 6), from X's thin SVD
X = U diag(s) V^T:

PrecisionCouplingProblem        J(Z) = tr(Z^T (I + X X^T)^{-1} Z)
                                       - gamma * log det(I + Z Z^T),
                                with (I + X X^T)^{-1} = I - U diag(s^2 / (1 + s^2)) U^T
                                and the gradient through
                                (I + Z Z^T)^{-1} Z = Z (I + Z^T Z)^{-1}
precision_coupling_closed_form  a global minimizer of J: the spectrum
                                max(0, gamma * (1 + s_i^2) - 1) on the u_i,
                                PCA's scores at gamma = 1

The pair runs its q x q ``slogdet`` and ``solve`` outside
``single_blas_thread``, so from q of about 150 its bits may depend on the
BLAS thread count.
"""

from dataclasses import replace

import numpy as np

from graphcoupling.coupling import CouplingProblem
from graphcoupling.errors import ContractViolationError, NumericalError, ParameterError
from graphcoupling.evaluation import NeighborhoodScore, evaluate_embedding
from graphcoupling.graph import (
    Partition,
    _component_means,
    components_from_edges,
    validate_latent_graph,
)
from graphcoupling.kernels import KernelMatrix, log_kernel
from graphcoupling.linalg import as_float_matrix, leading_signs, pairwise_sq_dists
from graphcoupling.optim import Evaluation
from graphcoupling.posterior import (
    BERNOULLI,
    ROW,
    AffinityMatrix,
    PosteriorSampler,
    _checked_kernel,
    _expectation_in_place,
    check_prior,
    symmetrized_in_place,
)
from graphcoupling.spectral import _left_singular


def kernel_matrix(X, kind: str, bandwidths=None) -> KernelMatrix:
    """Kernel matrix K_ij = k((X_i - X_j) / tau_i) over the rows of ``X``.

    The values are stored, so their exp takes no ``EXP_FLOOR``: a value
    below e^-700 is kept as it is, not raised to the floor.
    """
    values = np.exp(log_kernel(pairwise_sq_dists(X), kind, bandwidths))
    np.fill_diagonal(values, 0.0)
    tau = None if bandwidths is None else np.asarray(bandwidths, dtype=np.float64).copy()
    return KernelMatrix(values, kind, tau)


def posterior_expectation(K, prior: str) -> AffinityMatrix:
    """Expected latent graph under the limiting posterior of a prior family.

    B: independent edges with P_ij = K / (1 + K).
    D: each row is one draw over its off-diagonal cells, so the
       expectation is K row-normalized.
    E: n edges in total, so the per-draw cell distribution is K
       globally normalized; entries sum to 1.
    """
    check_prior(prior)
    return _expectation_in_place(_checked_kernel(K).copy(), prior)


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


def split_mean_centered(X, partition: Partition):
    """Split X into component-wise means and the centered remainder.

    Returns ``(X_M, X_C)`` whose sum reconstructs X up to one unit of
    roundoff per entry; row i of X_M repeats the mean of the component
    containing i, so each component's rows of X_C sum to zero.
    """
    X = as_float_matrix(X, "X")
    if X.shape[0] != partition.assignment.shape[0]:
        raise ContractViolationError(
            f"X has {X.shape[0]} rows but partition covers {partition.assignment.shape[0]}")
    X_M = _component_means(X, partition)
    return X_M, X - X_M


def expected_graph(problem: CouplingProblem) -> np.ndarray:
    """Mean latent graph the coupling pulls toward; drives attraction."""
    return problem.P * problem._edge_scale


class PrecisionCouplingProblem:
    """The precision-coupling objective for the optimizer, from X's thin SVD."""

    def __init__(self, X, gamma: float = 1.0):
        X = as_float_matrix(X, "X")
        if not (np.isfinite(gamma) and gamma > 0.0):
            raise ParameterError(f"gamma must be positive and finite, got {gamma}")
        self.gamma = float(gamma)
        self.n = X.shape[0]
        self._U, s = _left_singular(X, min(X.shape))
        self._shrink = s * s / (1.0 + s * s)

    def evaluate(self, Z, exaggeration: float = 1.0) -> Evaluation:
        """Objective and gradient; there is no exaggerated form, so only factor 1 is taken."""
        if exaggeration != 1.0:
            raise ParameterError(
                f"the precision coupling has no exaggerated form, got factor {exaggeration}")
        Z = as_float_matrix(Z, "Z")
        if Z.shape[0] != self.n:
            raise ContractViolationError(f"Z has {Z.shape[0]} rows but X has {self.n}")
        latent = np.eye(Z.shape[1]) + Z.T @ Z
        sign, logdet = np.linalg.slogdet(latent)
        if sign <= 0:
            raise NumericalError("latent Gram determinant is not positive")
        BinvZ = Z - self._U @ (self._shrink[:, None] * (self._U.T @ Z))
        loss = float((Z * BinvZ).sum()) - self.gamma * float(logdet)
        grad = 2.0 * BinvZ - 2.0 * self.gamma * np.linalg.solve(latent, Z.T).T
        return Evaluation(loss, loss, grad)


def precision_coupling_closed_form(X, q: int, gamma: float = 1.0) -> np.ndarray:
    """A global minimizer of the precision-coupling objective.

    Column i is sqrt(lambda_i) u_i, with X's left singular vectors u_i and
    lambda_i = max(0, gamma * s_i^2 + (gamma - 1)), s_i = 0 past min(n, p).
    Z Z^T is unique, and Z up to a right rotation, when lambda_q is 0 or
    exceeds lambda_{q+1}.  Otherwise any orthonormal basis of the tied
    eigenspace gives the same objective but another Z Z^T: within a tied
    spectrum, and whenever q > rank(X) and gamma > 1, where every null
    direction of X X^T carries gamma - 1 (numpy's SVD picks them here).
    X X^T is uncentered; center X beforehand to compare against :func:`pca`.
    """
    X = as_float_matrix(X, "X")
    n = X.shape[0]
    if not (1 <= q <= n):
        raise ParameterError(f"q must lie in [1, n={n}], got {q}")
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ParameterError(f"gamma must be positive and finite, got {gamma}")
    U, s = _left_singular(X, q)
    d = np.zeros(q)
    d[:min(q, s.size)] = s[:q] ** 2
    return U * np.sqrt(np.clip(gamma * d + (gamma - 1.0), 0.0, None))
