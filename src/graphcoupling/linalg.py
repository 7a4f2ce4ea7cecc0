"""Linear-algebra primitives used throughout the package.

All routines operate on float64 row-major arrays and are deterministic:
the same input values always produce the same output bytes, whatever
the input's memory order (:func:`as_float_matrix` reads it row-major).
Loops that would otherwise form an n x n matrix walk :func:`row_blocks`
and get each block's distances from the private ``_sq_dists``, which
takes validated points and sets them up once per walk (calibration, the
coupling tiles, the neighborhood scores and :func:`pairwise_sq_dists`
call it).  It takes every Gram product of wide data over one aligned
chunk of ``GRAM_CHUNK_ROWS`` rows, so a pair of rows gets the same bits
from every caller under any block layout.  A walk over
a symmetric quantity can visit each unordered pair once: with
``upper=True`` a block of rows ``[lo, hi)`` pairs only with the
columns ``[lo, n)``, and every block stays within the
``ROW_BLOCK_CELLS`` budget.
A walk whose blocks are independent can run them on every usable core
with :func:`map_blocks`, which keeps the results, and the exception
raised, those of the serial walk.  It runs the blocks in rounds of one
per worker, the calling thread taking each round's first, and hands a
round's results over in block order, to a ``fold`` if given, before the
next round starts: a walk that adds up per-block terms gets the serial
sums at any core count, and at most one result per worker waits.  Its
threads live for one call; importing the package starts none.  The
blocks run under :func:`single_blas_thread`, which holds OpenBLAS at one
thread: a BLAS call inside a block neither competes with the other
workers nor leaves a spinning BLAS thread behind.  A block calls only
private helpers, so tools that wrap the package's public functions from
outside see every call on the calling thread.

The private ``_lowest_pairs`` computes only the k smallest eigenpairs
of a symmetric matrix, with LAPACKE's ``dsyevr``; Laplacian eigenmaps
falls back on it.  LAPACKE and CBLAS functions come from the OpenBLAS
that numpy has loaded, through one cached lookup, ``_blas_function``,
which finds them as :func:`single_blas_thread` finds the thread
controls; no library beyond numpy's is needed.  ``_lowest_pairs`` reads
and overwrites only the row-major upper triangle, so a caller may keep
other data in the strict lower one (Laplacian eigenmaps keeps the
affinity there).  Where no loaded library exports ``dsyevr`` (a numpy
built on Accelerate or MKL) it takes the pairs from numpy's dense
``eigh`` of the same triangle.  The private ``_cholesky_in_place``
factors that triangle in place, in blocks that keep OpenBLAS's packing
buffer small, and ``_cholesky_solve`` solves a block of right-hand
sides against the factor; Laplacian eigenmaps iterates on them.

Functions
---------
leading_signs      the sign convention shared by eigenvectors and PCA scores
center_columns     subtract the column mean from every column
row_blocks         row slices of at most ``ROW_BLOCK_CELLS`` (or a given number
                   of) matrix cells each, over full rows or over the upper triangle
gram_row_blocks    full-row slices near a cell budget, each a whole number of
                   ``GRAM_CHUNK_ROWS`` chunks
pairwise_sq_dists  squared Euclidean distances between two slices of rows,
                   the numbers of every blocked walk
usable_cores       the cores this process may run on
single_blas_thread context manager holding every loaded OpenBLAS at one thread
map_blocks         fn over independent blocks on the usable cores in rounds,
                   results in block order, kept or folded
"""

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np

from .errors import ContractViolationError, NumericalError

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

#: Rows per Gram product of wider data, aligned at its multiples.  Other
#: heights can round a row differently: one-row products take another
#: BLAS path, and OpenBLAS rounds some rows of tall ones by their height.
GRAM_CHUNK_ROWS = 16


def as_float_matrix(a, name: str = "array") -> np.ndarray:
    """Coerce to a 2-D row-major float64 array, rejecting anything non-finite.

    Another memory order is copied, so a result depends on a's values,
    not on its layout.
    """
    out = np.asarray(a, dtype=np.float64, order="C")
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


def _asymmetry(A: np.ndarray) -> float:
    """max |A - A^T| of a validated square float matrix, one upper-triangle block at a time."""
    def block(rows):  # its difference is freed on return
        diff = A[rows, rows.start:] - A[rows.start:, rows].T
        return float(np.abs(diff, out=diff).max())
    return max(map(block, row_blocks(A.shape[0], upper=True)), default=0.0)


def _lowest_pairs(T: np.ndarray, k: int):
    """``(eigenvalues, eigenvectors)``: the k smallest eigenpairs of the
    symmetric matrix in T's upper triangle, eigenvalues ascending.

    T is a C-contiguous, writeable float64 n x n array with 1 <= k <= n.
    Only its row-major upper triangle and diagonal are read, which is the
    column-major lower triangle that LAPACKE's ``dsyevr`` is given; the
    solver overwrites that triangle and leaves the strict lower one
    alone.  ``dsyevr`` reduces the matrix to tridiagonal form and
    computes only the eigenpairs 1..k, by bisection and inverse
    iteration (k < n) or by the MRRR algorithm (k = n); its workspace is
    its own, outside Python's allocator.  It runs under
    :func:`single_blas_thread`.  Where no loaded library exports
    ``dsyevr``, numpy's ``eigh`` reads the lower triangle of T^T, which
    is T's upper one, and T is left as it was.  Either way column j of
    the n x k eigenvectors pairs with eigenvalue j and is signed by
    :func:`leading_signs`, so repeated calls give the same bytes
    whatever thread count the caller set.

    Raises
    ------
    NumericalError
        If the solver reports a failure or finds other than k pairs.
    """
    n = T.shape[0]
    solver = _blas_function("LAPACKE_dsyevr")
    if solver is None:
        try:
            w, V = np.linalg.eigh(T.T)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed: {exc}") from None
        V = V[:, :k].copy()
    else:
        dsyevr, integer = solver
        w = np.empty(n)
        Z = np.empty((k, n))  # the n x k eigenvectors, column-major
        support = np.empty(2 * k, dtype=np.dtype(integer))
        found = integer()
        with single_blas_thread():
            info = dsyevr(_LAPACK_COL_MAJOR, b"V", b"I", b"L", n, T.ctypes.data, n,
                          0.0, 0.0, 1, k, 0.0, ctypes.byref(found),
                          w.ctypes.data, Z.ctypes.data, n, support.ctypes.data)
        if info != 0:
            raise NumericalError(f"eigendecomposition failed: dsyevr returned info={info}")
        if found.value != k:
            raise NumericalError(f"dsyevr found {found.value} eigenpairs, not {k}")
        V = np.ascontiguousarray(Z.T)
    V *= leading_signs(V)
    return w[:k].copy(), V


#: Columns per panel of :func:`_cholesky_in_place`, columns per update
#: of its trailing matrix, and rows per block of :func:`_cholesky_solve`.
#: OpenBLAS packs the operands of a level-3 call into a buffer that it
#: keeps, so these bounds set how much of that buffer stays resident:
#: about 0.3 MB at n = 1000 and at n = 4000, where ``dpotrf`` and
#: ``dpotrs`` on the whole matrix leave 2.5 MB and 12 MB.  The blocks
#: cost no time at n = 1000 and 10-20% at n = 4000.
CHOLESKY_PANEL = 64
CHOLESKY_UPDATE_COLUMNS = 256
CHOLESKY_SOLVE_ROWS = 128

_CHOLESKY_FUNCTIONS = ("LAPACKE_dpotrf", "cblas_dtrsm", "cblas_dsyrk", "cblas_dgemm")


def _cholesky_functions():
    """``(dpotrf, dtrsm, dsyrk, dgemm)`` of :func:`_blas_function`, or None if one is missing."""
    functions = [_blas_function(name) for name in _CHOLESKY_FUNCTIONS]
    return None if None in functions else [fn for fn, _ in functions]


def _check_lapack_matrix(a: np.ndarray, name: str, width: int) -> None:
    """Raise unless ``a`` is a C-contiguous, writeable 2-D float64 array ``width`` wide.

    The Cholesky routines hand its address to LAPACK and CBLAS.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 2
            and a.shape[1] == width and a.flags.c_contiguous and a.flags.writeable):
        raise ContractViolationError(
            f"{name} must be a C-contiguous, writeable float64 matrix {width} wide")


def _col_major_cell(T: np.ndarray):
    """The address of column-major (i, j), row-major ``T[j, i]``, of a square T."""
    n = T.shape[0]
    return lambda i, j: T.ctypes.data + (i + j * n) * T.itemsize


def _cholesky_in_place(T: np.ndarray, shift: float) -> bool:
    """Overwrite the matrix A in T's upper triangle with the Cholesky factor of A + shift I.

    T is a C-contiguous, writeable float64 n x n array.  As in
    :func:`_lowest_pairs` only its row-major upper triangle and diagonal
    are read, the column-major lower triangle of LAPACK, and the strict
    lower one is left alone.  The triangle then holds the upper factor U,
    U^T U = A + shift I, ready for :func:`_cholesky_solve`.  The factor
    is formed in panels of ``CHOLESKY_PANEL`` columns, left to right:
    LAPACKE's ``dpotrf`` factors the panel's diagonal block, CBLAS
    ``dtrsm`` solves the rows below it against that, and the trailing
    matrix takes the panel's update ``CHOLESKY_UPDATE_COLUMNS`` columns
    at a time, ``dsyrk`` on their diagonal block and ``dgemm`` below it,
    all under :func:`single_blas_thread`.  Returns True on success and
    False when a pivot is not positive, the triangle then partly
    overwritten.  Where a loaded library lacks one of these functions it
    returns False and leaves T as it was.
    """
    _check_lapack_matrix(T, "T", T.shape[0])
    functions = _cholesky_functions()
    if functions is None:
        return False
    potrf, trsm, syrk, gemm = functions
    n = T.shape[0]
    T.reshape(-1)[::n + 1] += shift
    cell = _col_major_cell(T)
    with single_blas_thread():
        for lo in range(0, n, CHOLESKY_PANEL):
            hi = min(lo + CHOLESKY_PANEL, n)
            info = potrf(_LAPACK_COL_MAJOR, b"L", hi - lo, cell(lo, lo), n)
            if info > 0:
                return False
            if info < 0:
                raise NumericalError(f"Cholesky factorization failed: dpotrf returned info={info}")
            if hi == n:
                break
            trsm(_LAPACK_COL_MAJOR, _CBLAS_RIGHT, _CBLAS_LOWER, _CBLAS_TRANS, _CBLAS_NON_UNIT,
                 n - hi, hi - lo, 1.0, cell(lo, lo), n, cell(hi, lo), n)
            for start in range(hi, n, CHOLESKY_UPDATE_COLUMNS):
                stop = min(start + CHOLESKY_UPDATE_COLUMNS, n)
                syrk(_LAPACK_COL_MAJOR, _CBLAS_LOWER, _CBLAS_NO_TRANS, stop - start, hi - lo,
                     -1.0, cell(start, lo), n, 1.0, cell(start, start), n)
                if stop < n:
                    gemm(_LAPACK_COL_MAJOR, _CBLAS_NO_TRANS, _CBLAS_TRANS, n - stop, stop - start,
                         hi - lo, -1.0, cell(stop, lo), n, cell(start, lo), n,
                         1.0, cell(stop, start), n)
    return True


def _cholesky_solve(T: np.ndarray, B: np.ndarray) -> None:
    """Overwrite each row b of B with the x of (U^T U) x = b.

    U is :func:`_cholesky_in_place`'s factor in T's upper triangle.  B is
    a C-contiguous float64 array of shape (m, n), LAPACK's column-major
    n x m block of right-hand sides.  With L = U^T, the lower factor in
    LAPACK's reading, L y = b is solved forward and L^T x = y backward,
    ``CHOLESKY_SOLVE_ROWS`` rows at a time: CBLAS ``dtrsm`` on the
    block's diagonal triangle and ``dgemm`` to carry the solved rows to
    the ones still to come, under :func:`single_blas_thread`.  Call it
    only on a T that :func:`_cholesky_in_place` has factored.
    """
    n, m = T.shape[0], B.shape[0]
    _check_lapack_matrix(B, "B", n)
    _, trsm, _, gemm = _cholesky_functions()
    cell = _col_major_cell(T)
    blocks = [(lo, min(lo + CHOLESKY_SOLVE_ROWS, n)) for lo in range(0, n, CHOLESKY_SOLVE_ROWS)]

    def rows(i):  # the address of B's column-major row i
        return B.ctypes.data + i * B.itemsize
    with single_blas_thread():
        for lo, hi in blocks:
            trsm(_LAPACK_COL_MAJOR, _CBLAS_LEFT, _CBLAS_LOWER, _CBLAS_NO_TRANS, _CBLAS_NON_UNIT,
                 hi - lo, m, 1.0, cell(lo, lo), n, rows(lo), n)
            if hi < n:
                gemm(_LAPACK_COL_MAJOR, _CBLAS_NO_TRANS, _CBLAS_NO_TRANS, n - hi, m, hi - lo,
                     -1.0, cell(hi, lo), n, rows(lo), n, 1.0, rows(hi), n)
        for lo, hi in reversed(blocks):
            trsm(_LAPACK_COL_MAJOR, _CBLAS_LEFT, _CBLAS_LOWER, _CBLAS_TRANS, _CBLAS_NON_UNIT,
                 hi - lo, m, 1.0, cell(lo, lo), n, rows(lo), n)
            if lo:
                gemm(_LAPACK_COL_MAJOR, _CBLAS_TRANS, _CBLAS_NO_TRANS, lo, m, hi - lo,
                     -1.0, cell(lo, 0), n, rows(lo), n, 1.0, rows(0), n)


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


def gram_row_blocks(n: int, cells: int = None):
    """Full-row :func:`row_blocks` of ``cells`` (default ``ROW_BLOCK_CELLS``)
    rounded up to whole ``GRAM_CHUNK_ROWS`` chunks: a walk forms each chunk once."""
    height = max(1, (ROW_BLOCK_CELLS if cells is None else cells) // max(n, 1))
    return row_blocks(n, cells=-(-height // GRAM_CHUNK_ROWS) * GRAM_CHUNK_ROWS * n)


def _sq_dists(X):
    """Squared distances between the rows of a validated float matrix, a block at a time.

    For the Gram expansion, X is centred and its row norms taken once.
    Returns ``dists(rows, cols=slice(None), out=None, work=None)``, the
    squared Euclidean distances from the rows ``X[rows]`` to the rows
    ``X[cols]``, for slices of consecutive rows, written into ``out`` if
    given.  Entries are nonnegative and a row's distance to itself is
    exactly zero.  Up to ``DIRECT_DIFFERENCE_COLS`` columns the
    distances are sums of squared coordinate differences: exactly
    symmetric, with no cancellation however far the points lie from the
    origin.  They read each coordinate from one contiguous copy of X^T
    made here, and take the differences of the second and later
    coordinates in ``work``, an array of the result's shape, if given
    (else in one array allocated per call).  Wider data, which ignore
    ``work``, use the Gram expansion of the column-centred rows, so
    adding a constant row vector to every row leaves the result
    unchanged up to roundoff.  Each Gram product covers one whole aligned
    chunk of ``GRAM_CHUNK_ROWS`` rows, so a row's distances are the same
    bits whatever rows were asked for with it, and symmetric only to
    roundoff.  Distances too large for a float are +inf, so callers can
    treat the configuration as out of range rather than invalid.
    """
    n, p = X.shape
    if p <= DIRECT_DIFFERENCE_COLS:
        XT = np.ascontiguousarray(X.T)  # each coordinate a contiguous row

        def dists(rows, cols=slice(None), out=None, work=None):
            if not p:
                D = np.empty((X[rows].shape[0], X[cols].shape[0])) if out is None else out
                D.fill(0.0)
                return D
            with np.errstate(over="ignore"):
                D = np.subtract(XT[0, rows, None], XT[0, cols], out=out)
                D *= D
                for c in range(1, p):
                    work = np.subtract(XT[c, rows, None], XT[c, cols], out=work)
                    work *= work
                    D += work
            return D
        return dists
    Xc = X - X.mean(axis=0, keepdims=True)
    with np.errstate(over="ignore"):
        sq = np.einsum("ij,ij->i", Xc, Xc)

    def dists(rows, cols=slice(None), out=None, work=None):
        rows, cols = range(n)[rows], range(n)[cols]
        D = np.empty((len(rows), len(cols))) if out is None else out
        XcT, sq_cols = Xc[cols.start:cols.stop].T, sq[cols.start:cols.stop]
        first = rows.start - rows.start % GRAM_CHUNK_ROWS
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(first, rows.stop, GRAM_CHUNK_ROWS):
                hi = min(lo + GRAM_CHUNK_ROWS, n)
                a, b = max(lo, rows.start), min(hi, rows.stop)
                part = np.add(sq[a:b, None], sq_cols, out=D[a - rows.start:b - rows.start])
                G = Xc[lo:hi] @ XcT
                G *= 2.0
                part -= G[a - lo:b - lo]
                part[np.isnan(part)] = np.inf
                np.clip(part, 0.0, None, out=part)
        own = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
        D[own - rows.start, own - cols.start] = 0.0
        return D
    return dists


def pairwise_sq_dists(X, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """Squared Euclidean distances from the rows ``X[rows]`` to the rows ``X[cols]``.

    The numbers of ``_sq_dists`` after validating X: over all columns,
    row i's distances are the bits that calibration and the neighborhood
    scores read for it.  Wide data are symmetric only to roundoff.  The
    result is the only array of its size that is formed.
    """
    return _sq_dists(as_float_matrix(X, "X"))(rows, cols)


def usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: (get, set) thread-count symbols of an OpenBLAS build, tried in order:
#: the scipy-openblas build in numpy's wheels, then a plain OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# The thread count is a setting of each library, shared by the whole
# process, so the state that guards it is the module's.
_blas_lock = threading.Lock()
_blas_controls = None   # [(get, set)], looked up by the first single_blas_thread
_blas_depth = 0         # single_blas_thread blocks open in the process
_blas_saved = []        # each OpenBLAS's thread count when the outermost opened


class _PhdrInfo(ctypes.Structure):
    """The leading fields of the C library's ``struct dl_phdr_info``."""
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


def _loaded_libraries() -> list:
    """Paths of the shared libraries loaded in this process.

    Empty where the C library cannot list them (no ``dl_iterate_phdr``).
    """
    if not hasattr(os, "RTLD_NOLOAD"):
        return []
    iterate = getattr(ctypes.CDLL(None), "dl_iterate_phdr", None)
    if iterate is None:
        return []
    visitor = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t,
                               ctypes.c_void_p)
    iterate.argtypes, iterate.restype = (visitor, ctypes.c_void_p), ctypes.c_int
    paths = []

    @visitor
    def visit(info, size, data):
        if info.contents.name:
            paths.append(os.fsdecode(info.contents.name))
        return 0

    iterate(visit, None)
    return paths


def _reopened_libraries():
    """Each loaded shared library, reopened without loading anything new.

    A symbol looked up in one is also found through the libraries it
    links to.
    """
    for path in _loaded_libraries():
        try:
            yield ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue


def _openblas_controls() -> list:
    """``(get, set)`` thread-count functions of every OpenBLAS loaded in the process.

    Each loaded library is asked for the symbols of
    ``_OPENBLAS_THREAD_SYMBOLS``; a library that links to another finds
    its symbols too, so functions are kept once, by address.
    """
    controls, seen = [], set()
    for lib in _reopened_libraries():
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                address = ctypes.cast(get, ctypes.c_void_p).value
                if address not in seen:
                    seen.add(address)
                    get.restype, get.argtypes = ctypes.c_int, ()
                    set_.restype, set_.argtypes = None, (ctypes.c_int,)
                    controls.append((get, set_))
                break
    return controls


#: Stands for the library's integer type in ``_SIGNATURES``: 64-bit in
#: a build whose symbols end in ``64_``, else the C ``int``.
_INT = "integer"

#: LAPACKE and CBLAS functions the solvers call, by plain name: the
#: return type and the argument types.
_SIGNATURES = {
    "LAPACKE_dsyevr": (_INT, (
        ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,  # layout, jobz, range, uplo
        _INT, ctypes.c_void_p, _INT,                                # n, a, lda
        ctypes.c_double, ctypes.c_double, _INT, _INT,               # vl, vu, il, iu
        ctypes.c_double, ctypes.c_void_p,                           # abstol, m
        ctypes.c_void_p, ctypes.c_void_p, _INT, ctypes.c_void_p)),  # w, z, ldz, isuppz
    "LAPACKE_dpotrf": (_INT, (ctypes.c_int, ctypes.c_char, _INT, ctypes.c_void_p, _INT)),
    "cblas_dtrsm": (None, (
        ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,  # layout, side, uplo, trans, diag
        _INT, _INT, ctypes.c_double,                                 # m, n, alpha
        ctypes.c_void_p, _INT, ctypes.c_void_p, _INT)),              # a, lda, b, ldb
    "cblas_dgemm": (None, (
        ctypes.c_int, ctypes.c_int, ctypes.c_int,                    # layout, transa, transb
        _INT, _INT, _INT, ctypes.c_double,                           # m, n, k, alpha
        ctypes.c_void_p, _INT, ctypes.c_void_p, _INT,                # a, lda, b, ldb
        ctypes.c_double, ctypes.c_void_p, _INT)),                    # beta, c, ldc
    "cblas_dsyrk": (None, (
        ctypes.c_int, ctypes.c_int, ctypes.c_int,                    # layout, uplo, trans
        _INT, _INT, ctypes.c_double, ctypes.c_void_p, _INT,          # n, k, alpha, a, lda
        ctypes.c_double, ctypes.c_void_p, _INT)),                    # beta, c, ldc
}

#: Column-major storage, for LAPACKE's matrix_layout and CBLAS's order.
_LAPACK_COL_MAJOR = 102

#: CBLAS enumerators: no transpose, transpose, lower, non-unit diagonal,
#: left side, right side.
_CBLAS_NO_TRANS, _CBLAS_TRANS, _CBLAS_LOWER, _CBLAS_NON_UNIT = 111, 112, 122, 131
_CBLAS_LEFT, _CBLAS_RIGHT = 141, 142


@functools.lru_cache(maxsize=None)
def _blas_function(name: str):
    """``(function, integer type)`` for the LAPACKE or CBLAS ``name``, or None.

    The first loaded library that exports it gives it, under the name of
    the scipy-openblas builds in numpy's wheels (64-bit, then 32-bit
    integers) or else the plain name; a symbol ending in ``64_`` takes
    64-bit integers.  Its types are those of ``_SIGNATURES``.  Looked up
    on first use, not at import, and once per process.
    """
    restype, argtypes = _SIGNATURES[name]
    for lib in _reopened_libraries():
        for symbol in (f"scipy_{name}64_", f"scipy_{name}", name):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                integer = ctypes.c_int64 if symbol.endswith("64_") else ctypes.c_int
                fn.restype = integer if restype is _INT else restype
                fn.argtypes = tuple(integer if t is _INT else t for t in argtypes)
                return fn, integer
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Hold every OpenBLAS of the process at one thread while the block runs.

    An OpenBLAS call that uses a second thread leaves it spinning on
    another core for tens of milliseconds, where it competes with the
    package's own threads, and the eigensolvers' results depend on the
    thread count.  The outermost of nested or concurrent holders sets
    each OpenBLAS found to one thread, and the last to leave restores the
    counts it found, also when the block raises.  The libraries are
    looked up on first use, not at import; with no OpenBLAS loaded this
    does nothing.
    """
    global _blas_controls, _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_depth == 0:
            if _blas_controls is None:
                _blas_controls = _openblas_controls()
            _blas_saved = [get() for get, _ in _blas_controls]
            for _, set_ in _blas_controls:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (_, set_), count in zip(_blas_controls, _blas_saved):
                    set_(count)


def map_blocks(fn, blocks, fold=None):
    """``[fn(block) for block in blocks]``, run on the usable cores.

    For independent blocks, such as blocks that write disjoint rows of
    one output: the results are the list comprehension's, in block
    order, however the blocks were scheduled.  With ``fold`` the results
    are not kept: each is handed to ``fold`` on the calling thread, in
    block order, and None is returned.  The blocks run in rounds of
    ``workers = min(usable_cores(), len(blocks))``: the calling thread
    runs a round's first block, ``workers - 1`` pool threads started for
    this call run the rest, and the calling thread then hands the
    round's results over in block order before the next round starts.
    So at most ``workers`` blocks run or wait to be handed over, however
    many blocks there are.  The exception raised is the serial walk's:
    the results before the lowest failing block are handed over, its
    exception is raised, and no round starts after it; an exception of
    ``fold`` is raised as the serial walk would raise it.  The threads
    are joined before this function returns.  Every block, also on a
    single core, runs under :func:`single_blas_thread`, so a BLAS call
    inside one neither oversubscribes the cores nor depends on their
    number.
    """
    blocks = list(blocks)
    results = None
    if fold is None:
        results = []
        fold = results.append
    workers = _workers(len(blocks))
    with single_blas_thread():
        if workers < 2:
            for block in blocks:
                fold(fn(block))
        else:
            # Not at module level: it pulls in logging, ~3 ms on every import of the package.
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(workers - 1) as pool:
                for lo in range(0, len(blocks), workers):
                    rest = [pool.submit(fn, b) for b in blocks[lo + 1:lo + workers]]
                    fold(fn(blocks[lo]))
                    for future in rest:
                        fold(future.result())
    return results


def _workers(blocks: int) -> int:
    """The threads, the calling one included, that :func:`map_blocks` runs ``blocks`` on."""
    return min(usable_cores(), blocks)
