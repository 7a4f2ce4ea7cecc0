"""Linear-algebra primitives used throughout the package.

All routines operate on float64 row-major arrays and are deterministic:
the same input bytes always produce the same output bytes.  Loops that
would otherwise form an n x n matrix walk :func:`row_blocks` and get
each block's distances from the private ``_sq_dists``, which takes
validated points and sets them up once per walk (the coupling tiles and
the neighborhood scores call it).  :func:`pairwise_sq_dists` validates
X and gives one block's same numbers; over the whole matrix of wide
data it forms one Gram product, which agrees to roundoff.  A walk over
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

:func:`sym_eig_lowest` computes only the eigenpairs asked for, with
LAPACKE's ``dsyevr`` from the OpenBLAS that numpy has loaded, which it
finds as :func:`single_blas_thread` finds the thread controls; it needs
no library beyond numpy's.  Where no loaded library exports ``dsyevr``
(a numpy built on Accelerate or MKL) it takes the pairs from
:func:`sym_eig`.

Functions
---------
sym_eig            full symmetric eigendecomposition, eigenvalues descending
sym_eig_lowest     the k smallest eigenpairs of a symmetric matrix from
                   LAPACK's subset solver, eigenvalues ascending
leading_signs      the sign convention shared by eigenvectors and PCA scores
center_columns     subtract the column mean from every column
row_blocks         row slices of at most ``ROW_BLOCK_CELLS`` (or a given number
                   of) matrix cells each, over full rows or over the upper triangle
pairwise_sq_dists  squared Euclidean distances between two slices of rows, or
                   the whole matrix, exactly symmetric without a
                   symmetrisation pass
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
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, NumericalError, ParameterError

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
    eigenvalues: np.ndarray   # shape (m,): sym_eig's all n descending, sym_eig_lowest's k ascending
    eigenvectors: np.ndarray  # shape (n, m), column j pairs with eigenvalues[j]


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


def _symmetric_input(A):
    """``(S, fresh)``: the validated square A as the eigensolvers take it.

    S is (A + A^T) / 2, which for an exactly symmetric A is A itself,
    uncopied; ``fresh`` says whether S is a new array.  The asymmetry is
    measured one upper-triangle row block at a time, so no n x n
    temporary is formed.

    Raises
    ------
    ContractViolationError
        If ``A`` is not square or deviates from symmetry by more than
        ``SYMMETRY_RTOL`` relative to its largest entry.
    """
    A = as_float_matrix(A, "A")
    n, m = A.shape
    if n != m:
        raise ContractViolationError(f"A must be square, got shape {A.shape}")
    if not n:
        return A, False
    scale = max(1.0, float(A.max()), -float(A.min()))
    asymmetry = 0.0
    for rows in row_blocks(n, upper=True):
        diff = A[rows, rows.start:] - A[rows.start:, rows].T
        asymmetry = max(asymmetry, float(np.abs(diff, out=diff).max()))
    if asymmetry > SYMMETRY_RTOL * scale:
        raise ContractViolationError("A is not symmetric within tolerance")
    if asymmetry == 0.0:
        return A, False
    return (A + A.T) / 2.0, True


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
    S, _ = _symmetric_input(A)
    try:
        w, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from None
    # eigh returns ascending order; flip to descending.
    V = V[:, ::-1]
    V *= leading_signs(V)
    return SymEigResult(w[::-1].copy(), V)


def sym_eig_lowest(A, k: int) -> SymEigResult:
    """The k smallest eigenpairs of a symmetric matrix, eigenvalues ascending.

    LAPACKE's ``dsyevr`` reduces A to tridiagonal form and computes only
    the eigenpairs 1..k, by bisection and inverse iteration (k < n) or
    by the MRRR algorithm (k = n); its workspace is its own, outside
    Python's allocator.  It runs under :func:`single_blas_thread`, and
    each column is signed by :func:`leading_signs`, so repeated calls
    give the same bytes whatever thread count the caller set.  The
    solver gets (A + A^T) / 2, as :func:`sym_eig` does, and works in
    place: an exactly symmetric, contiguous and writeable float64 A is
    handed over uncopied and overwritten, so pass a copy to keep it.
    Any other A is copied first.  Where no loaded library exports
    ``dsyevr``, the pairs are the last k of :func:`sym_eig`, reversed,
    and A is left as it was.

    Raises
    ------
    ContractViolationError
        As :func:`sym_eig` does.
    ParameterError
        If ``k`` is not an integer in [1, n].
    NumericalError
        If the solver reports a failure or finds other than k pairs.
    """
    S, fresh = _symmetric_input(A)
    n = S.shape[0]
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise ParameterError(f"k must be an integer in [1, n={n}], got {k!r}")
    k = int(k)
    solver = _lapacke_dsyevr()
    if solver is None:
        w, V = sym_eig(S)
        return SymEigResult(w[::-1][:k].copy(), V[:, ::-1][:, :k].copy())
    dsyevr, integer = solver
    if not (fresh or (S.flags.c_contiguous or S.flags.f_contiguous) and S.flags.writeable):
        S = S.copy()
    # S is symmetric, so its row-major bytes read column-major are S again.
    w = np.empty(n)
    Z = np.empty((k, n))  # the n x k eigenvectors, column-major
    support = np.empty(2 * k, dtype=np.dtype(integer))
    found = integer()
    with single_blas_thread():
        info = dsyevr(_LAPACK_COL_MAJOR, b"V", b"I", b"L", n, S.ctypes.data, n,
                      0.0, 0.0, 1, k, 0.0, ctypes.byref(found),
                      w.ctypes.data, Z.ctypes.data, n, support.ctypes.data)
    if info != 0:
        raise NumericalError(f"eigendecomposition failed: dsyevr returned info={info}")
    if found.value != k:
        raise NumericalError(f"dsyevr found {found.value} eigenpairs, not {k}")
    V = np.ascontiguousarray(Z.T)
    V *= leading_signs(V)
    return SymEigResult(w[:k].copy(), V)


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
    unchanged up to roundoff.  Distances too large for a float are +inf,
    so callers can treat the configuration as out of range rather than
    invalid.
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
        with np.errstate(over="ignore", invalid="ignore"):
            D = np.add(sq[rows, None], sq[cols], out=out)
            D -= 2.0 * (Xc[rows] @ Xc[cols].T)
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

    The numbers of ``_sq_dists``, for a single block, after validating
    X; a tile of at most ``DIRECT_DIFFERENCE_COLS`` columns costs no
    set-up beyond that.  Over all rows and columns the Gram-expansion
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
    # One product for the whole matrix: row blocks round some distances
    # differently, and calibration's bandwidths must not depend on the block layout.
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


#: LAPACKE ``dsyevr`` symbols, tried in order: the scipy-openblas builds
#: in numpy's wheels (64-bit, then 32-bit integers), then a plain
#: OpenBLAS.  A name ending in ``64_`` takes 64-bit integers.
_LAPACKE_DSYEVR_SYMBOLS = ("scipy_LAPACKE_dsyevr64_", "scipy_LAPACKE_dsyevr", "LAPACKE_dsyevr")

#: LAPACKE's matrix_layout value for column-major storage.
_LAPACK_COL_MAJOR = 102


@functools.lru_cache(maxsize=None)
def _lapacke_dsyevr():
    """``(dsyevr, integer type)`` of the first loaded library exporting it, or None.

    Looked up on first use, not at import, and once per process.
    """
    for lib in _reopened_libraries():
        for name in _LAPACKE_DSYEVR_SYMBOLS:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                integer = ctypes.c_int64 if name.endswith("64_") else ctypes.c_int
                fn.restype = integer
                fn.argtypes = (
                    ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,  # layout, jobz, range, uplo
                    integer, ctypes.c_void_p, integer,                          # n, a, lda
                    ctypes.c_double, ctypes.c_double, integer, integer,         # vl, vu, il, iu
                    ctypes.c_double, ctypes.POINTER(integer),                   # abstol, m
                    ctypes.c_void_p, ctypes.c_void_p, integer, ctypes.c_void_p)  # w, z, ldz, isuppz
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
