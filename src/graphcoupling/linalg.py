"""Linear-algebra primitives used throughout the package.

All routines operate on float64 row-major arrays and are deterministic:
the same input bytes always produce the same output bytes.  Loops that
would otherwise form an n x n matrix walk :func:`row_blocks` and get
each block's distances from :func:`pairwise_sq_dists` with a row and a
column range.  A walk over wide data, where each call would centre the
points and take their row norms again, uses :func:`block_sq_dists`
instead, which does that once per walk; both give the same numbers.  A
walk over a symmetric quantity can visit each unordered pair once: with
``upper=True`` a block of rows ``[lo, hi)`` pairs only with the columns
``[lo, n)``, and every block stays within the ``ROW_BLOCK_CELLS`` budget.
A walk whose blocks are independent can run them on every usable core
with :func:`map_blocks`, which keeps the results, and the exception
raised, those of the serial walk.  Its threads live for one call;
importing the package starts none.

Functions
---------
sym_eig            full symmetric eigendecomposition, eigenvalues descending
leading_signs      the sign convention shared by eigenvectors and PCA scores
center_columns     subtract the column mean from every column
row_blocks         row slices of at most ``ROW_BLOCK_CELLS`` (or a given number
                   of) matrix cells each, over full rows or over the upper triangle
block_sq_dists     squared Euclidean distances between blocks of rows, set up once
pairwise_sq_dists  one such block, or the whole matrix, exactly symmetric
                   without a symmetrisation pass
usable_cores       the cores this process may run on
map_blocks         fn over independent blocks on the usable cores, results in
                   block order
"""

import os
import threading
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

#: Matrix cells each blocked row loop (calibration, the component
#: support, the coupling pass, the neighbor sets, the symmetric
#: combination of an affinity with its transpose) handles at once;
#: bounds its temporaries.  Read at call time.
ROW_BLOCK_CELLS = 1 << 16

#: Data with at most this many columns get their distances from direct
#: coordinate differences, which cannot cancel; wider data use the Gram
#: expansion.
DIRECT_DIFFERENCE_COLS = 3


class SymEigResult(NamedTuple):
    eigenvalues: np.ndarray   # shape (n,), descending
    eigenvectors: np.ndarray  # shape (n, n), column k pairs with eigenvalues[k]


def as_float_matrix(a, name: str = "array") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything non-finite."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ContractViolationError(f"{name} must be 2-D, got ndim={out.ndim}")
    if not _all_finite(out):
        raise ContractViolationError(f"{name} contains non-finite entries")
    return out


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float array ``a`` is finite.

    Past one row block's cells a finite sum settles it without a mask of
    a's size; only a sum that is not finite needs the mask.
    """
    if a.size > ROW_BLOCK_CELLS:
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(a.sum()):
                return True
    return bool(np.isfinite(a).all())


def sym_eig(A) -> SymEigResult:
    """Eigendecomposition of a symmetric matrix.

    Eigenvalues are returned in descending order.  Each eigenvector's
    sign is fixed by :func:`leading_signs`, which makes repeated calls
    bit-reproducible.  The solver gets (A + A^T) / 2, which for an
    exactly symmetric A is A itself, uncopied.

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
    asymmetry = 0.0
    if n:
        scale = max(1.0, float(A.max()), -float(A.min()))
        diff = A - A.T
        asymmetry = float(np.abs(diff, out=diff).max())
        del diff
        if asymmetry > SYMMETRY_RTOL * scale:
            raise ContractViolationError("A is not symmetric within tolerance")
    try:
        # (A + A^T) / 2 is A itself when A is exactly symmetric.
        w, V = np.linalg.eigh(A if asymmetry == 0.0 else (A + A.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from None
    # eigh returns ascending order; flip to descending.
    V = V[:, ::-1]
    V *= leading_signs(V)
    return SymEigResult(w[::-1].copy(), V)


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


def row_blocks(n: int, upper: bool = False, cells: int = None):
    """Consecutive row slices covering ``range(n)``, each near ``cells`` matrix cells.

    ``cells`` defaults to ``ROW_BLOCK_CELLS``; a walk that holds two
    arrays of its block's size asks for half of it.  A block reads every
    column, so it takes ``cells // n`` rows.  With ``upper`` a block
    starting at row ``lo`` reads only the columns ``[lo, n)``, the upper
    triangle and its own diagonal square, so it takes
    ``cells // (n - lo)`` rows and the blocks widen toward the last row.
    Every block has at least one row.
    """
    if cells is None:
        cells = ROW_BLOCK_CELLS
    lo = 0
    while lo < n:
        step = max(1, cells // ((n - lo) if upper else n))
        yield slice(lo, min(lo + step, n))
        lo += step


def block_sq_dists(X):
    """The squared distances of X's rows, one block at a time.

    Validates X, and for the Gram expansion centres it and takes its row
    norms, once; returns ``dists(rows, cols=slice(None))``, the squared
    Euclidean distances from the rows ``X[rows]`` to the rows ``X[cols]``,
    for slices of consecutive rows.  Entries are nonnegative and a row's
    distance to itself is exactly zero.  Up to ``DIRECT_DIFFERENCE_COLS``
    columns the distances are sums of squared coordinate differences:
    exactly symmetric, with no cancellation however far the points lie
    from the origin.  Wider data use the Gram expansion of the
    column-centred rows, so adding a constant row vector to every row
    leaves the result unchanged up to roundoff.  Distances too large for
    a float are +inf, so callers can treat the configuration as out of
    range rather than invalid.
    """
    return _sq_dists(as_float_matrix(X, "X"))


def _sq_dists(X):
    """:func:`block_sq_dists` of a validated float matrix X."""
    n, p = X.shape
    if p <= DIRECT_DIFFERENCE_COLS:
        def dists(rows, cols=slice(None)):
            block, other = X[rows], X[cols]
            if not p:
                return np.zeros((block.shape[0], other.shape[0]))
            with np.errstate(over="ignore"):
                D = block[:, 0, None] - other[:, 0]
                D *= D
                for c in range(1, p):
                    diff = block[:, c, None] - other[:, c]
                    diff *= diff
                    D += diff
            return D
        return dists
    Xc = X - X.mean(axis=0, keepdims=True)
    with np.errstate(over="ignore"):
        sq = np.einsum("ij,ij->i", Xc, Xc)

    def dists(rows, cols=slice(None)):
        with np.errstate(over="ignore", invalid="ignore"):
            D = sq[rows, None] + sq[cols] - 2.0 * (Xc[rows] @ Xc[cols].T)
        _finish_sq_dists(D, range(n)[rows], range(n)[cols])
        return D
    return dists


def _finish_sq_dists(D, rows: range, cols: range) -> None:
    """Finish Gram-expansion distances of the rows ``rows`` to ``cols`` in place.

    NaN (inf - inf) becomes +inf, negative roundoff zero, and a row's
    distance to itself exactly zero.
    """
    D[np.isnan(D)] = np.inf
    np.clip(D, 0.0, None, out=D)
    own = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
    D[own - rows.start, own - cols.start] = 0.0


def pairwise_sq_dists(X, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """Squared Euclidean distances from the rows ``X[rows]`` to the rows ``X[cols]``.

    The numbers of :func:`block_sq_dists`, for a single block; a tile of
    at most ``DIRECT_DIFFERENCE_COLS`` columns costs no set-up beyond
    the validation of X.  Over all rows and columns the Gram-expansion
    result is exactly symmetric with no symmetrisation pass: numpy forms
    ``Xc @ Xc.T`` from one triangle and mirrors it, and the row-norm sum
    sq_i + sq_j commutes.  At most two n x n arrays are alive at once: D
    starts as the sum of the row norms and takes twice the Gram matrix
    off in place.
    """
    X = as_float_matrix(X, "X")
    n, p = X.shape
    if p <= DIRECT_DIFFERENCE_COLS or rows != slice(None) or cols != slice(None):
        return _sq_dists(X)(rows, cols)
    Xc = X - X.mean(axis=0, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        G = Xc @ Xc.T
        sq = np.diag(G).copy()
        D = sq[:, None] + sq[None, :]
        G *= 2.0
        D -= G
        del G
    _finish_sq_dists(D, range(n), range(n))
    return D


def usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(fn, blocks) -> list:
    """``[fn(block) for block in blocks]``, run on the usable cores.

    For independent blocks, such as blocks that write disjoint rows of
    one output: the results are the list comprehension's, in block
    order, however the blocks were scheduled.  The calling thread and
    ``usable_cores() - 1`` threads started for this call each take the
    next block in order when they finish one, so at most one block per
    worker is in flight.  Once a block has raised, no further block
    starts; the blocks already running finish, and the exception of the
    lowest failing block is raised, the one the comprehension would
    raise.  The threads end before this function returns.
    """
    blocks = list(blocks)
    workers = min(usable_cores(), len(blocks))
    if workers < 2:
        return [fn(block) for block in blocks]
    results = [None] * len(blocks)
    errors = {}
    lock = threading.Lock()
    pending = iter(range(len(blocks)))

    def work():
        while True:
            with lock:
                k = None if errors else next(pending, None)
            if k is None:
                return
            try:
                results[k] = fn(blocks[k])
            except BaseException as exc:  # re-raised by the caller below
                with lock:
                    errors[k] = exc

    threads = [threading.Thread(target=work, daemon=True) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results
