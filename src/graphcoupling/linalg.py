"""Dense linear-algebra primitives used throughout the package.

All routines operate on float64 row-major arrays and are deterministic:
the same input bytes always produce the same output bytes.

Functions
---------
sym_eig            full symmetric eigendecomposition, eigenvalues descending
leading_signs      the sign convention shared by eigenvectors and PCA scores
center_columns     subtract the column mean from every column
pairwise_sq_dists  squared Euclidean distance matrix
"""

from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, NumericalError

#: Relative asymmetry tolerated by sym_eig before the input is rejected.
SYMMETRY_RTOL = 1e-10

#: Entries of a column whose magnitude lies within this relative distance
#: of the column's largest tie for the sign rule of :func:`leading_signs`.
#: Far above the roundoff of the eigen and SVD solvers, far below any
#: magnitude gap that real data produce.
SIGN_TIE_RTOL = 1e-10


class SymEigResult(NamedTuple):
    eigenvalues: np.ndarray   # shape (n,), descending
    eigenvectors: np.ndarray  # shape (n, n), column k pairs with eigenvalues[k]


def as_float_matrix(a, name: str = "array") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything non-finite."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ContractViolationError(f"{name} must be 2-D, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise ContractViolationError(f"{name} contains non-finite entries")
    return out


def sym_eig(A) -> SymEigResult:
    """Eigendecomposition of a symmetric matrix.

    Eigenvalues are returned in descending order.  Each eigenvector's
    sign is fixed by :func:`leading_signs`, which makes repeated calls
    bit-reproducible.

    Raises
    ------
    ContractViolationError
        If ``A`` is not square or deviates from symmetry by more than
        ``SYMMETRY_RTOL`` relative to its largest entry.
    NumericalError
        If the underlying eigensolver fails to converge.
    """
    A = as_float_matrix(A, "A")
    n, m = A.shape
    if n != m:
        raise ContractViolationError(f"A must be square, got shape {A.shape}")
    scale = max(1.0, float(np.abs(A).max())) if n else 1.0
    if n and float(np.abs(A - A.T).max()) > SYMMETRY_RTOL * scale:
        raise ContractViolationError("A is not symmetric within tolerance")
    try:
        w, V = np.linalg.eigh((A + A.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from None
    # eigh returns ascending order; flip to descending.
    V = V[:, ::-1]
    return SymEigResult(w[::-1].copy(), V * leading_signs(V))


def leading_signs(V) -> np.ndarray:
    """Per-column signs (+1.0 or -1.0) that make each column's largest entry positive.

    Magnitudes within ``SIGN_TIE_RTOL`` of a column's largest count as
    ties, and the tie goes to the lowest index, so two solvers that agree
    up to roundoff pick the same sign.  An all-zero column gets +1.  Only
    column reductions and boolean masks are formed, no float copy of V.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.size == 0:
        return np.ones(V.shape[1], dtype=np.float64)
    peak = (1.0 - SIGN_TIE_RTOL) * np.maximum(V.max(axis=0), -V.min(axis=0))
    lead = np.argmax((V >= peak) | (V <= -peak), axis=0)
    return np.where(V[lead, np.arange(V.shape[1])] < 0.0, -1.0, 1.0)


def center_columns(X) -> np.ndarray:
    """Return a copy of ``X`` with every column shifted to zero mean."""
    X = as_float_matrix(X, "X")
    return X - X.mean(axis=0, keepdims=True)


def pairwise_sq_dists(X) -> np.ndarray:
    """Matrix of squared Euclidean distances between the rows of ``X``.

    The result is exactly symmetric with an exactly zero diagonal and no
    negative entries.  Columns are centered before the Gram expansion, so
    adding a constant row vector to every row leaves the result unchanged
    up to roundoff.
    """
    Xc = center_columns(X)
    # Coordinates near the float range overflow the Gram expansion; the
    # resulting inf/nan entries are reported as inf so callers can treat
    # the configuration as out of range rather than invalid.
    with np.errstate(over="ignore", invalid="ignore"):
        G = Xc @ Xc.T
        sq = np.diag(G).copy()
        D = sq[:, None] + sq[None, :] - 2.0 * G
        D = (D + D.T) / 2.0
    D[np.isnan(D)] = np.inf
    np.clip(D, 0.0, None, out=D)
    np.fill_diagonal(D, 0.0)
    return D
