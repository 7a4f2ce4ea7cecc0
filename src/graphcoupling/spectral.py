"""Spectral embeddings and the precision-coupled matrix-normal objective.

``laplacian_eigenmaps`` embeds with the low-frequency eigenvectors of a
weighted graph Laplacian, skipping the null space structurally (one
direction per connected component) instead of thresholding eigenvalues;
a returned eigenvalue within roundoff of zero only marks the result
degenerate.  Its solvers read one triangle, so an exactly symmetric
affinity is borrowed: the Laplacian L is written over its upper
triangle and rebuilt from the lower one afterwards, and no n x n array
is allocated.  L's q lowest pairs past the null space come from a
shift-invert block iteration on the Cholesky factor of L + sigma I,
formed over the same triangle (:func:`linalg._cholesky_in_place`); the
component indicators are cleared from the block, and Rayleigh-Ritz on
L itself, with L times the block read from the untouched lower
triangle, gives the pairs.  That takes O(n^3 / 3) once and O(n^2) per
solve.  Where it does not converge (a spectrum with no gap past the
block) or the factor fails, L is written again and LAPACK's subset
solver (:func:`linalg._lowest_pairs`, ``dsyevr``, O(n^3)) takes the
R + q smallest pairs.

The PCA side takes one thin SVD X = U diag(s) V^T and forms no n x n
matrix: ``pca`` of the centered X, and the precision coupling, which
scores a latent Z against (I + X X^T)^{-1} = I - U diag(s^2 / (1 + s^2)) U^T:

    J(Z) = tr(Z^T (I + X X^T)^{-1} Z) - gamma * log det(I + Z Z^T)

and takes (I + Z Z^T)^{-1} Z = Z (I + Z^T Z)^{-1} for its gradient.

Its global minimizers have the spectrum max(0, gamma * (1 + s_i^2) - 1)
on the u_i; at gamma = 1 the map reproduces PCA scores exactly.
"""

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ContractViolationError, NumericalError, ParameterError
from .graph import components_from_support
from .linalg import (_asymmetry, _cholesky_in_place, _cholesky_solve, _lowest_pairs,
                     as_float_matrix, center_columns, leading_signs, row_blocks,
                     single_blas_thread)
from .optim import Evaluation
from .posterior import AffinityMatrix

#: The shift of L's Cholesky factorization, relative to ||L||_inf: far
#: above its roundoff, n eps ||L||_inf, far below the eigenvalues kept.
SHIFT_RTOL = 1e-10

#: Converged: every wanted pair's residual |L v - theta v| is at most this
#: times ||L||_inf, and no entry of V^T V - I exceeds ``ORTHONORMAL_TOL``.
RESIDUAL_RTOL = 1e-12
ORTHONORMAL_TOL = 1e-12

#: Vectors the shift-invert block carries past the q wanted ones.
GUARD_VECTORS = 8

#: Block solves before Laplacian eigenmaps gives up on the shift-invert
#: iteration and takes the full solver.
SHIFT_INVERT_SOLVES = 30

#: Seed of the shift-invert iteration's start block.
SHIFT_INVERT_SEED = 0


def _left_singular(X: np.ndarray, q: int):
    """X's first q left singular vectors, signed by :func:`leading_signs`, and all s_i."""
    try:
        U, s, _ = np.linalg.svd(X, full_matrices=q > min(X.shape))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value decomposition failed: {exc}") from None
    U = U[:, :q]
    U *= leading_signs(U)
    return U, s


def check_pca_q(q: int, n: int, p: int) -> None:
    """Raise :class:`ParameterError` unless :func:`pca` of n x p data can give q scores."""
    if not (1 <= q <= min(n, p)):
        raise ParameterError(f"q must lie in [1, min(n, p)={min(n, p)}], got {q}")


def pca(X, q: int) -> np.ndarray:
    """First q principal-component scores of the centered rows of X.

    Column k is the centered data's k-th left singular vector, the k-th
    eigenvector of its Gram, signed by :func:`leading_signs` and times
    the k-th singular value.  Pairwise distances are preserved when q is
    the full rank.
    """
    X = as_float_matrix(X, "X")
    check_pca_q(q, *X.shape)
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
    neither solver computes.  The pairs come from the shift-invert
    iteration of :func:`_shift_invert_pairs`, or, where it gives up,
    from LAPACK's subset solver; both are deterministic, and neither
    depends on the BLAS thread count.

    An exactly symmetric P whose values are a writeable row-major float64
    array is borrowed while the solver runs: the Laplacian is written
    over its upper triangle and diagonal, and on return, also when the
    solver raises, they are rebuilt from the strict lower triangle and a
    saved diagonal, so P's bytes are as they were.  Another thread must
    not read P meanwhile.  Any other P (a row affinity, a read-only
    array) is symmetrized into a new n x n buffer, and P is not written.
    """
    values = P.values if isinstance(P, AffinityMatrix) else P
    A = as_float_matrix(values, "P")
    if A.shape[0] != A.shape[1]:
        raise ParameterError(f"affinity must be square, got {A.shape}")
    if A.size and float(A.min()) < 0.0:
        raise ParameterError("affinity entries must be nonnegative")
    # The one n x n buffer: A itself if its upper triangle can be rebuilt
    # from its lower one, else (A + A^T) / 2.  A is row-major.
    borrowed = A.flags.writeable and _asymmetry(A) == 0.0
    if borrowed:
        S = A
    else:
        S = A + A.T
        S /= 2.0
    n = S.shape[0]
    partition = components_from_support(S)
    n_components = partition.n_components
    if not (1 <= q <= n - n_components):
        raise ParameterError(
            f"q must lie in [1, n - R = {n - n_components}] "
            f"for n={n} with {n_components} components, got {q}")
    degrees = S.sum(axis=1)
    if not np.isfinite(degrees).all():
        raise NumericalError("an affinity degree overflows a float")
    # ||L||_inf, the largest |L_ii| + sum_j |L_ij|, is twice the largest
    # degree (less self-loops) and bounds lambda_max (Gershgorin).  Neither
    # solver yields lambda_max, so it is read from L's full rows before
    # L's triangle is written.
    norm = max(_laplacian_row_norms(S, degrees, rows) for rows in row_blocks(n))
    null_tol = n * np.finfo(np.float64).eps * norm
    diagonal = S.diagonal().copy()
    _write_upper_laplacian(S, degrees)
    try:
        pairs = _shift_invert_pairs(S, degrees, diagonal, partition, q, norm, null_tol)
        if pairs is None:
            # L again over what the factorization left, for the full solver.
            _restore_upper(S, diagonal)
            _write_upper_laplacian(S, degrees)
            w, V = _lowest_pairs(S, n_components + q)
            pairs = w[n_components:].copy(), V[:, n_components:].copy()
    finally:
        if borrowed:
            _restore_upper(S, diagonal)
    return EigenmapsResult(pairs[1], n_components, pairs[0], null_tol)


def _shift_invert_pairs(S, degrees, diagonal, partition, q, norm, null_tol):
    """``(eigenvalues, eigenvectors)``: L's q lowest pairs past its null space, or None.

    L = diag(degrees) - S sits in S's upper triangle, and S in its strict
    lower one and ``diagonal``; ``norm`` is ||L||_inf.  The triangle is
    factored in place as L + sigma I, sigma = ``SHIFT_RTOL`` * ``norm``,
    and a block of ``q + GUARD_VECTORS`` vectors (at most n - R) from
    ``SHIFT_INVERT_SEED`` is iterated.  Each step solves the block
    against the factor, clears it of the R component indicators (L's
    exact null space, whose share the solve grows by 1 / sigma),
    orthonormalizes it, and rotates it by Rayleigh-Ritz on L itself: on
    the inverse, the 1 / sigma of the null space would blur the small
    eigenvalues.  It stops when every wanted Ritz pair's residual
    |L v - theta v| is at most ``RESIDUAL_RTOL`` * ``norm`` and the block
    is orthonormal to ``ORTHONORMAL_TOL``.  It returns None, the triangle
    partly overwritten, when a pivot is not positive, when the block
    loses a direction to Gram-Schmidt, when the largest residual stalls
    (its last reduction, kept up for the rest of the budget, would not
    reach the tolerance: a spectrum with no gap past the block), or
    after ``SHIFT_INVERT_SOLVES`` solves; and, the triangle as it was,
    where the Cholesky functions are missing.

    Ritz values at or below ``null_tol`` are roundoff, and Rayleigh-Ritz
    only sorts the roundoff there: on clustered data its Ritz vectors
    each pick out a cluster or two and stack the rest at zero.  So the
    leading converged Ritz vectors of that numerical null space are
    replaced, by :func:`_spread_null_rows`, by the start block's
    projection onto their span.
    """
    n = S.shape[0]
    if not _cholesky_in_place(S, SHIFT_RTOL * norm):
        return None
    block = min(n - partition.n_components, q + GUARD_VECTORS)
    start = np.random.default_rng(SHIFT_INVERT_SEED).standard_normal((block, n))
    _clear_indicators(start, partition)
    X = start.copy()
    last = math.inf
    with single_blas_thread():
        for solves in range(1, SHIFT_INVERT_SOLVES + 1):
            _cholesky_solve(S, X)
            X *= norm  # entries of 1 to 1 / SHIFT_RTOL, whatever P's scale
            _clear_indicators(X, partition)
            if not _orthonormalize_rows(X):
                return None
            LX = _laplacian_rows(S, degrees, diagonal, X)
            H = X @ LX.T
            theta, Y = np.linalg.eigh((H + H.T) / 2.0)
            X, LX = Y.T @ X, Y.T @ LX  # the Ritz vectors, ascending, and L times them
            residual = _relative_residuals(X, LX, theta, norm)
            worst = float(residual[:q].max())
            gram = X @ X.T
            gram[np.diag_indices(block)] -= 1.0
            if worst <= RESIDUAL_RTOL and np.abs(gram).max() <= ORTHONORMAL_TOL:
                null = np.logical_and.accumulate((theta <= null_tol) & (residual <= RESIDUAL_RTOL))
                _spread_null_rows(X, LX, theta, start[:np.count_nonzero(null)], norm)
                V = np.ascontiguousarray(X[:q].T)
                V *= leading_signs(V)
                return theta[:q].copy(), V
            # Stalled: the last solve's reduction, kept up to the budget,
            # would not reach the tolerance (nor would a NaN).
            if not worst * (worst / last) ** (SHIFT_INVERT_SOLVES - solves) <= RESIDUAL_RTOL:
                return None
            last = worst
    return None


def _relative_residuals(X: np.ndarray, LX: np.ndarray, theta: np.ndarray, norm: float):
    """|L x - theta x| / ``norm`` for each row x of X, given L x in ``LX``."""
    R = (LX - theta[:, None] * X) / norm
    return np.sqrt(np.einsum("ij,ij->i", R, R))


def _spread_null_rows(X, LX, theta, start, norm) -> None:
    """Turn X's leading k = len(start) rows, a numerical null space, toward ``start``.

    X's rows are orthonormal Ritz vectors, ``LX`` holds L times them and
    ``theta`` their Ritz values.  The first k rows of ``start`` are
    projected onto the span of X's first k rows and orthonormalized in
    order; those rows, their L products and Rayleigh quotients replace
    X's first k, in place, if each still has a relative residual within
    ``RESIDUAL_RTOL``.  Fewer than two rows are left as they are.
    """
    k = start.shape[0]
    if k < 2:
        return
    F = (start @ X[:k].T) @ X[:k]
    if not _orthonormalize_rows(F):
        return
    LF = (F @ X[:k].T) @ LX[:k]
    rayleigh = np.einsum("ij,ij->i", F, LF)
    if _relative_residuals(F, LF, rayleigh, norm).max() <= RESIDUAL_RTOL:
        X[:k], LX[:k], theta[:k] = F, LF, rayleigh


def _orthonormalize_rows(X: np.ndarray) -> bool:
    """Make X's rows orthonormal in order, in place, by Gram-Schmidt applied twice.

    False, X then partly overwritten, if a row has nothing left to
    normalize once the rows before it are taken out.
    """
    for j, row in enumerate(X):
        for _ in range(2):
            row -= (X[:j] @ row) @ X[:j]
        size = math.sqrt(row @ row)
        if not 0.0 < size < math.inf:
            return False
        row /= size
    return True


def _clear_indicators(X: np.ndarray, partition) -> None:
    """Subtract from each row of X its mean over every component, in place."""
    sums = np.stack([np.bincount(partition.assignment, weights=row,
                                 minlength=partition.n_components) for row in X])
    X -= (sums / partition.sizes)[:, partition.assignment]


def _laplacian_rows(S: np.ndarray, degrees: np.ndarray, diagonal: np.ndarray,
                    X: np.ndarray) -> np.ndarray:
    """X L for the rows of X, L = diag(degrees) - S, read from S's strict lower triangle.

    S's diagonal is ``diagonal``; its upper triangle is not read.  S is
    walked in squares of isqrt(``ROW_BLOCK_CELLS`` / 4) rows: a square's
    rows left of its diagonal block act on X as themselves and as their
    mirror images, and the block's strict lower triangle, copied into a
    buffer of a quarter of the row-block budget, as itself and as its
    transpose.
    """
    n = S.shape[0]
    step = max(1, math.isqrt(linalg.ROW_BLOCK_CELLS // 4))
    below = np.tri(step, k=-1, dtype=bool)
    buffer = np.empty((step, step))
    SX = X * diagonal
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        left = S[lo:hi, :lo]
        SX[:, :lo] += X[:, lo:hi] @ left
        SX[:, lo:hi] += X[:, :lo] @ left.T
        square = buffer[:hi - lo, :hi - lo]
        square.fill(0.0)
        np.copyto(square, S[lo:hi, lo:hi], where=below[:hi - lo, :hi - lo])
        SX[:, lo:hi] += X[:, lo:hi] @ square
        SX[:, lo:hi] += X[:, lo:hi] @ square.T
    return np.subtract(X * degrees, SX, out=SX)


def _laplacian_row_norms(S: np.ndarray, degrees: np.ndarray, rows: slice) -> float:
    """The largest sum_j |L_ij| over ``rows`` of L = diag(degrees) - S.

    The rows are formed in a copy, with :func:`graph.weighted_laplacian`'s
    entries, 0 - S_ij plus the degree on the diagonal, so the sums are
    those of its full rows.
    """
    L = np.subtract(0.0, S[rows])
    L.reshape(-1)[rows.start::S.shape[0] + 1] += degrees[rows]
    return float(np.abs(L, out=L).sum(axis=1).max())


def _upper_triangle(m: int) -> np.ndarray:
    """Mask of the cells j >= i of an m x m block."""
    return ~np.tri(m, k=-1, dtype=bool)


def _write_upper_laplacian(S: np.ndarray, degrees: np.ndarray) -> None:
    """Write L = diag(degrees) - S over S's row-major upper triangle and diagonal.

    The cells are :func:`graph.weighted_laplacian`'s, 0 - S_ij and then
    the degree added on the diagonal; the strict lower triangle is not
    touched.  Walks ``row_blocks(upper=True)``: a block's cells right of
    its diagonal square, then the square's upper triangle.
    """
    for rows in row_blocks(S.shape[0], upper=True):
        right = S[rows, rows.stop:]
        np.subtract(0.0, right, out=right)
        square = S[rows, rows]
        np.subtract(0.0, square, out=square, where=_upper_triangle(square.shape[0]))
    S.reshape(-1)[::S.shape[0] + 1] += degrees


def _restore_upper(S: np.ndarray, diagonal: np.ndarray) -> None:
    """Rebuild S's upper triangle as the mirror of its strict lower one, then its diagonal.

    The blocked walk of :func:`posterior.symmetrized_in_place`: a block's
    cells right of its diagonal square are copied from their mirror
    images below it, and the square's from its own lower triangle.
    """
    for rows in row_blocks(S.shape[0], upper=True):
        hi = rows.stop
        S[rows, hi:] = S[hi:, rows].T
        square = S[rows, rows]
        np.copyto(square, square.T, where=_upper_triangle(square.shape[0]))
    S.reshape(-1)[::S.shape[0] + 1] = diagonal


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
