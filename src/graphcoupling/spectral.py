"""Spectral embeddings and the precision-coupled matrix-normal objective.

``pca`` takes a thin SVD of the centered n x p data, so no n x n
matrix is formed.  ``laplacian_eigenmaps`` embeds with the low-frequency
eigenvectors of a weighted graph Laplacian, skipping the null space
structurally (one direction per connected component) instead of
thresholding eigenvalues.

The precision-coupling objective scores a latent matrix Z against the
observed Gram precision (I + X X^T)^{-1}:

    J(Z) = tr(Z^T (I + X X^T)^{-1} Z) - gamma * log det(I + Z Z^T)

Its global minimizers have a closed form in the eigenbasis of X X^T
with spectrum max(0, gamma * (1 + d_i) - 1); at gamma = 1 the map
reproduces PCA scores exactly.
"""

from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ParameterError
from .graph import components_from_support, weighted_laplacian
from .linalg import as_float_matrix, center_columns, leading_signs, sym_eig
from .optim import Evaluation
from .posterior import AffinityMatrix


def pca(X, q: int) -> np.ndarray:
    """First q principal-component scores of the centered rows of X.

    Computed from a thin SVD of the centered n x p data: column k is the
    k-th left singular vector, signed by :func:`leading_signs` as
    :func:`sym_eig` signs the eigenvectors of the centered Gram matrix,
    and scaled to norm sqrt(lambda_k), the k-th singular value.  Pairwise
    distances of the full decomposition are preserved when q is the full
    rank.
    """
    X = as_float_matrix(X, "X")
    n, p = X.shape
    if not (1 <= q <= min(n, p)):
        raise ParameterError(f"q must lie in [1, min(n, p)={min(n, p)}], got {q}")
    try:
        U, s, _ = np.linalg.svd(center_columns(X), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value decomposition failed: {exc}") from None
    U = U[:, :q]
    return U * (leading_signs(U) * s[:q])[None, :]


class EigenmapsResult(NamedTuple):
    coords: np.ndarray   # shape (n, q)
    n_components: int    # connected components of the affinity support

    @property
    def degenerate(self) -> bool:
        """True when the graph is disconnected.

        The embedding still skips every null direction, but with R > 1
        components the R - 1 component indicators sit below the returned
        eigenvectors, so between-component geometry is arbitrary.
        """
        return self.n_components > 1


def laplacian_eigenmaps(P, q: int) -> EigenmapsResult:
    """Embedding from the low-frequency spectrum of an affinity graph.

    ``P`` may be an :class:`AffinityMatrix` or a plain nonnegative
    matrix; it is symmetrized to (P + P^T) / 2 first.  The coordinates
    are the unit-norm eigenvectors of the graph Laplacian belonging to
    the q smallest nonzero eigenvalues, identified structurally: with R
    connected components, exactly the R smallest eigenvalues are null.
    """
    values = P.values if isinstance(P, AffinityMatrix) else P
    A = as_float_matrix(values, "P")
    if A.shape[0] != A.shape[1]:
        raise ParameterError(f"affinity must be square, got {A.shape}")
    if A.size and float(A.min()) < 0.0:
        raise ParameterError("affinity entries must be nonnegative")
    A = A + A.T
    A /= 2.0
    n = A.shape[0]
    n_components = components_from_support(A > 0.0).n_components
    if not (1 <= q <= n - n_components):
        raise ParameterError(
            f"q must lie in [1, n - R = {n - n_components}] "
            f"for n={n} with {n_components} components, got {q}")
    L = weighted_laplacian(A)
    del A  # only L is needed at the eigensolver's peak
    w, V = sym_eig(L)
    # sym_eig sorts descending; the spectrum read backwards is ascending
    # with the null space in the last n_components columns.
    lo = n - n_components - q
    coords = V[:, lo:n - n_components][:, ::-1].copy()
    return EigenmapsResult(coords, n_components)


class PrecisionCouplingProblem:
    """Adapter exposing the precision-coupling objective to the optimizer."""

    def __init__(self, X, gamma: float = 1.0):
        X = as_float_matrix(X, "X")
        if not gamma > 0.0:
            raise ParameterError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)
        n = X.shape[0]
        self.B = np.eye(n) + X @ X.T

    def evaluate(self, Z, exaggeration: float = 1.0) -> Evaluation:
        """Objective and gradient, sharing one solve against B.

        The objective has no exaggerated form, so any factor but 1 is rejected.
        """
        if exaggeration != 1.0:
            raise ParameterError(
                f"the precision coupling has no exaggerated form, got factor {exaggeration}")
        Z = as_float_matrix(Z, "Z")
        n, q = Z.shape
        sign, logdet = np.linalg.slogdet(np.eye(q) + Z.T @ Z)
        if sign <= 0:
            raise NumericalError("latent Gram determinant is not positive")
        BinvZ = np.linalg.solve(self.B, Z)
        loss = float((Z * BinvZ).sum()) - self.gamma * float(logdet)
        latent = np.eye(n) + Z @ Z.T
        grad = 2.0 * BinvZ - 2.0 * self.gamma * np.linalg.solve(latent, Z)
        return Evaluation(loss, loss, grad)

    def loss(self, Z) -> float:
        return self.evaluate(Z).loss

    def grad(self, Z) -> np.ndarray:
        return self.evaluate(Z).grad


def precision_coupling_objective(Z, X, gamma: float = 1.0) -> float:
    return PrecisionCouplingProblem(X, gamma).loss(Z)


def precision_coupling_gradient(Z, X, gamma: float = 1.0) -> np.ndarray:
    return PrecisionCouplingProblem(X, gamma).grad(Z)


def precision_coupling_closed_form(X, q: int, gamma: float = 1.0) -> np.ndarray:
    """A global minimizer of the precision-coupling objective.

    In the eigenbasis (d_i, v_i) of X X^T, descending, the optimal
    latent spectrum is lambda_i = max(0, gamma * (1 + d_i) - 1); the
    minimizer is unique up to a right rotation of Z.  Note the Gram
    matrix here is uncentered; center X beforehand to compare against
    :func:`pca`.
    """
    X = as_float_matrix(X, "X")
    n = X.shape[0]
    if not (1 <= q <= n):
        raise ParameterError(f"q must lie in [1, n={n}], got {q}")
    if not gamma > 0.0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    d, V = sym_eig(X @ X.T)
    lam = np.clip(gamma * (1.0 + d[:q]) - 1.0, 0.0, None)
    return V[:, :q] * np.sqrt(lam)[None, :]
