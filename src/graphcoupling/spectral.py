"""Spectral embeddings and the precision-coupled matrix-normal objective.

``laplacian_eigenmaps`` embeds with the low-frequency eigenvectors of a
weighted graph Laplacian, skipping the null space structurally (one
direction per connected component) instead of thresholding eigenvalues;
a returned eigenvalue within roundoff of zero only marks the result
degenerate.  It asks :func:`linalg.sym_eig_lowest` for the R + q
smallest eigenpairs only, not the whole spectrum.

The PCA side takes one thin SVD X = U diag(s) V^T and forms no n x n
matrix: ``pca`` of the centered X, and the precision coupling, which
scores a latent Z against (I + X X^T)^{-1} = I - U diag(s^2 / (1 + s^2)) U^T:

    J(Z) = tr(Z^T (I + X X^T)^{-1} Z) - gamma * log det(I + Z Z^T)

and takes (I + Z Z^T)^{-1} Z = Z (I + Z^T Z)^{-1} for its gradient.

Its global minimizers have the spectrum max(0, gamma * (1 + s_i^2) - 1)
on the u_i; at gamma = 1 the map reproduces PCA scores exactly.
"""

from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, NumericalError, ParameterError
from .graph import components_from_support, weighted_laplacian
from .linalg import as_float_matrix, center_columns, leading_signs, row_blocks, sym_eig_lowest
from .optim import Evaluation
from .posterior import AffinityMatrix


def _left_singular(X: np.ndarray, q: int):
    """X's first q left singular vectors, signed by :func:`leading_signs`, and all s_i."""
    try:
        U, s, _ = np.linalg.svd(X, full_matrices=q > min(X.shape))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value decomposition failed: {exc}") from None
    U = U[:, :q]
    U *= leading_signs(U)
    return U, s


def pca(X, q: int) -> np.ndarray:
    """First q principal-component scores of the centered rows of X.

    Column k is the centered data's k-th left singular vector, signed as
    :func:`sym_eig` signs the centered Gram's eigenvectors, times the k-th
    singular value.  Pairwise distances are preserved when q is the full rank.
    """
    X = as_float_matrix(X, "X")
    n, p = X.shape
    if not (1 <= q <= min(n, p)):
        raise ParameterError(f"q must lie in [1, min(n, p)={min(n, p)}], got {q}")
    U, s = _left_singular(center_columns(X), q)
    return U * s[:q]


class EigenmapsResult(NamedTuple):
    coords: np.ndarray       # shape (n, q)
    n_components: int        # connected components of the affinity support
    eigenvalues: np.ndarray  # the Laplacian eigenvalues of the columns, ascending
    null_tol: float          # n * eps * ||L||_inf, an upper bound on n * eps * lambda_max

    @property
    def degenerate(self) -> bool:
        """True when the graph is disconnected, structurally or numerically.

        The embedding skips every structural null direction, but with
        R > 1 components the R - 1 component indicators sit below the
        returned eigenvectors, so between-component geometry is arbitrary.
        Components joined only by tiny weights (say 1e-90 beside weights
        near 1) make one support component whose near-null eigenvalues
        are roundoff: a returned eigenvalue at or below ``null_tol``
        means the column is an arbitrary direction of a numerical null
        space, and the layout between those parts is arbitrary too.
        """
        return self.n_components > 1 or bool((self.eigenvalues <= self.null_tol).any())


def laplacian_eigenmaps(P, q: int) -> EigenmapsResult:
    """Embedding from the low-frequency spectrum of an affinity graph.

    ``P`` may be an :class:`AffinityMatrix` or a plain nonnegative
    matrix; it is symmetrized to (P + P^T) / 2 first.  The coordinates
    are the unit-norm eigenvectors of the graph Laplacian belonging to
    the q smallest nonzero eigenvalues, identified structurally: with R
    connected components, exactly the R smallest eigenvalues are null.
    Parts of the support joined only by weights below roundoff of the
    rest are one component here, yet their Laplacian has a numerical
    null space, and the returned columns may be arbitrary directions
    within it; ``degenerate`` reports that case as well as R > 1.  The
    roundoff threshold ``null_tol`` is n * eps * ||L||_inf, where
    ||L||_inf = 2 * (largest degree) bounds the largest eigenvalue, which
    the subset solve does not compute.
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
    # ||L||_inf, the largest |L_ii| + sum_j |L_ij|, is twice the largest
    # degree (less self-loops) and bounds lambda_max (Gershgorin).  The
    # subset solve yields no lambda_max, and it overwrites L.
    norm = max(float(np.abs(L[rows]).sum(axis=1).max()) for rows in row_blocks(n))
    w, V = sym_eig_lowest(L, n_components + q)
    null_tol = n * np.finfo(np.float64).eps * norm
    return EigenmapsResult(V[:, n_components:].copy(), n_components,
                           w[n_components:].copy(), null_tol)


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

    def loss(self, Z) -> float:
        return self.evaluate(Z).loss

    def grad(self, Z) -> np.ndarray:
        return self.evaluate(Z).grad


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
