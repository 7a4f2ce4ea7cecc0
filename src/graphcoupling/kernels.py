"""Pairwise similarity kernels and perplexity calibration.

Two kernel families are supported, identified by string:

``"gaussian"``   k(x) = exp(-||x||^2 / 2)
``"student"``    k(x) = 1 / (1 + ||x||^2)      (Student t, one degree of freedom)

A kernel matrix holds K_ij = k((X_i - X_j) / tau_i) with row-specific
bandwidths tau_i > 0 and a zero diagonal by convention.  With unequal
bandwidths K is intentionally not symmetric.

:func:`calibrated_kernel` builds every fit's input kernel and its
bandwidths from the data, writing each row block's kernel over its
squared distances.  The blocks are independent, so :func:`linalg.map_blocks`
runs them on every usable core; each writes only its own rows of the
bandwidths and the kernel, so the result does not depend on the cores.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolationError, DegenerateRowError, ParameterError
from .linalg import as_float_matrix, map_blocks, pairwise_sq_dists, row_blocks

GAUSSIAN = "gaussian"
STUDENT = "student"
KERNEL_KINDS = (GAUSSIAN, STUDENT)

#: Entropy tolerance, in bits, for bandwidth calibration.
ENTROPY_TOL = 1e-5
#: Calibration evaluates each row's entropy at most 2 * MAX_BISECT_ITERS times.
MAX_BISECT_ITERS = 64


@dataclass(frozen=True)
class KernelMatrix:
    """A realized kernel matrix plus the settings that produced it."""

    values: np.ndarray
    kind: str
    bandwidths: Optional[np.ndarray] = None


def check_kind(kind: str) -> str:
    if kind not in KERNEL_KINDS:
        raise ParameterError(f"unknown kernel kind {kind!r}, expected one of {KERNEL_KINDS}")
    return kind


def log_kernel(D, kind: str, bandwidths=None) -> np.ndarray:
    """Elementwise log k(.) evaluated on squared distances.

    ``D`` may be a block of rows of a distance matrix, with ``bandwidths``
    for those rows.  A row's distance to itself comes out as log k(0) = 0;
    callers that want the zero-diagonal convention of
    :func:`kernel_matrix` must mask it themselves.  Stable for large
    distances: no intermediate exponentials are formed.
    """
    check_kind(kind)
    S = as_float_matrix(D, "D")
    if S.size and float(S.min()) < 0.0:
        raise ContractViolationError("distance matrix has negative entries")
    tau = None
    if bandwidths is not None:
        tau = np.asarray(bandwidths, dtype=np.float64)
        if tau.shape != (S.shape[0],):
            raise ContractViolationError(
                f"bandwidths must have shape ({S.shape[0]},), got {tau.shape}")
        if not (np.isfinite(tau).all() and (tau > 0.0).all()):
            raise ContractViolationError("bandwidths must be finite and positive")
    return _log_kernel(S, kind, tau)


def _log_kernel(S, kind: str, tau=None, out=None) -> np.ndarray:
    """:func:`log_kernel` of checked distances and bandwidths, in ``out`` if given."""
    if tau is not None:
        S = out = np.divide(S, (tau * tau)[:, None], out=out)
    if kind == GAUSSIAN:
        return np.divide(S, -2.0, out=out)
    L = np.log1p(S, out=out)
    return np.negative(L, out=L)


def kernel_matrix(X, kind: str, bandwidths=None) -> KernelMatrix:
    """Kernel matrix K_ij = k((X_i - X_j) / tau_i) over the rows of ``X``."""
    values = np.exp(log_kernel(pairwise_sq_dists(X), kind, bandwidths))
    np.fill_diagonal(values, 0.0)
    tau = None if bandwidths is None else np.asarray(bandwidths, dtype=np.float64).copy()
    return KernelMatrix(values, kind, tau)


def calibrated_kernel(X, perplexity: float) -> KernelMatrix:
    """The Gaussian kernel over the rows of ``X`` at a target perplexity.

    For each row i, finds tau_i such that the Shannon entropy of the
    conditional neighbor distribution p_{j|i} proportional to
    exp(-D_ij / (2 tau_i^2)), with D the squared distances of
    :func:`linalg.pairwise_sq_dists`, equals log2(perplexity) within
    ``ENTROPY_TOL`` bits.  Every row follows one rule from tau = 1 and
    the bracket lo = 0, hi = inf: a row within ``ENTROPY_TOL`` of the
    target stops at that tau; otherwise an entropy below the target sets
    lo = tau, one at or above it sets hi = tau, and the next tau is 2 lo
    while hi is infinite, else (lo + hi) / 2.  So tau doubles or halves
    until the target is bracketed, then bisects.  A row still running
    after 2 * ``MAX_BISECT_ITERS`` evaluations gets the next tau of the
    rule.  Rows are solved together, one :func:`linalg.row_blocks` block
    of D at a time, and each writes its kernel rows over its distances
    as soon as its tau are known.  The blocks run on the usable cores through
    :func:`linalg.map_blocks`; neither the blocking nor the number of
    cores changes a bit of the result.  The result, with tau in
    ``bandwidths``, equals ``kernel_matrix(X, GAUSSIAN, tau)``.

    Raises
    ------
    ParameterError
        If perplexity is outside [1, n - 1], before any distance is taken.
    DegenerateRowError
        If some row is at distance zero from every other row, which
        makes its neighbor distribution independent of tau.  The first
        such row is named, as in a serial walk.
    """
    X = as_float_matrix(X, "X")
    n = X.shape[0]
    if n < 2:
        raise ParameterError("calibration needs at least two rows")
    if not (1.0 <= perplexity <= n - 1):
        raise ParameterError(
            f"perplexity must lie in [1, {n - 1}] for n={n}, got {perplexity}")
    target = float(np.log2(perplexity))
    tau = np.empty(n, dtype=np.float64)
    D = pairwise_sq_dists(X)

    def solve(block):
        rows = np.arange(block.start, block.stop)
        # The block's off-diagonal distances, n - 1 per row.
        d = D[block][np.arange(n) != rows[:, None]].reshape(rows.size, n - 1)
        dead = np.flatnonzero(~d.any(axis=1))
        if dead.size:
            raise DegenerateRowError(
                f"row {rows[dead[0]]} is at distance zero from every other row")
        tau[block] = t = _calibrate_rows(np.divide(d, -2.0, out=d), target)
        K = D[block]
        np.exp(_log_kernel(K, GAUSSIAN, t, out=K), out=K)
        D[rows, rows] = 0.0

    map_blocks(solve, row_blocks(n))
    return KernelMatrix(D, GAUSSIAN, tau)


def _calibrate_rows(neg_half_d: np.ndarray, target: float) -> np.ndarray:
    """The bandwidth rule of :func:`calibrated_kernel` on a block of rows.

    Works in ``neg_half_d``, which it reorders, and two buffers of its
    shape.  The rows still running are kept in the leading rows: when
    some finish, the rest move up in order.  A row's largest logit is
    its largest -d/2 divided by t^2, the same float as the largest of
    the divided row, because division by t^2 > 0 is monotone.
    """
    tau = np.empty(neg_half_d.shape[0], dtype=np.float64)
    live = np.arange(tau.size)
    peak = neg_half_d.max(axis=1)
    logits, w = np.empty_like(neg_half_d), np.empty_like(neg_half_d)
    t, lo, hi = np.ones(tau.size), np.zeros(tau.size), np.full(tau.size, np.inf)
    for _ in range(2 * MAX_BISECT_ITERS):
        # Entropy in bits of p = w / s with w = exp(l), from shifted logits l.
        m, t2 = live.size, (t * t)[:, None]
        l, e = logits[:m], w[:m]
        np.divide(neg_half_d[:m], t2, out=l)
        l -= peak[:, None] / t2
        np.exp(l, out=e)
        s = e.sum(axis=1)
        h = (np.log(s) - np.multiply(e, l, out=l).sum(axis=1) / s) / np.log(2.0)
        done = np.abs(h - target) <= ENTROPY_TOL
        if done.any():
            tau[live[done]] = t[done]
            keep = ~done
            for to, row in enumerate(np.flatnonzero(keep)):
                if to != row:
                    neg_half_d[to] = neg_half_d[row]
            live, t, lo, hi, h, peak = (a[keep] for a in (live, t, lo, hi, h, peak))
            if not live.size:
                return tau
        below = h < target
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        t = np.where(np.isinf(hi), 2.0 * lo, (lo + hi) / 2.0)
    tau[live] = t
    return tau
