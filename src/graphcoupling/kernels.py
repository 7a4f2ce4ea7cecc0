"""Pairwise similarity kernels and perplexity calibration.

Two kernel families are supported, identified by string:

``"gaussian"``   k(x) = exp(-||x||^2 / 2)
``"student"``    k(x) = 1 / (1 + ||x||^2)      (Student t, one degree of freedom)

A kernel matrix holds K_ij = k((X_i - X_j) / tau_i) with row-specific
bandwidths tau_i > 0 and a zero diagonal by convention.  With unequal
bandwidths K is intentionally not symmetric.

:func:`calibrated_kernel` builds every fit's input kernel and its
bandwidths from the data.  Each row block writes its squared distances
(the bits of :func:`linalg.pairwise_sq_dists`) into its own rows of the
kernel, the only n x n array made, then its kernel rows over them.  A
fit also has the block select the data's neighbor sets for R(K) from
those distances, so its scoring forms no distance of X again.  The
blocks are independent, so :func:`linalg.map_blocks` runs them on every
usable core, and the result does not depend on the cores.

Calibration's entropy passes spend much of their time in ``np.exp``, and
at tau = 1 the logits of other clusters sit far below -708, where numpy's
vector exp leaves its fast path.  Its entropy passes only sum the exponentials, and
each row's sum holds exp(0) = 1, so they floor the argument at
``EXP_FLOOR`` first: the sums, and so tau, keep every bit.  The kernel
values the module stores are exact exponentials, never floored.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolationError, DegenerateRowError, ParameterError
from .evaluation import _neighbor_sets, check_ks
from .linalg import _sq_dists, as_float_matrix, gram_row_blocks, map_blocks

GAUSSIAN = "gaussian"
STUDENT = "student"
KERNEL_KINDS = (GAUSSIAN, STUDENT)

#: Entropy tolerance, in bits, for bandwidth calibration.
ENTROPY_TOL = 1e-5
#: Calibration evaluates each row's entropy at most this many times.
MAX_ENTROPY_EVALS = 128
#: A row above its target with Var_p(l) at most this stops as capped: its
#: weights sit on nearest ties whose entropy is above the target, or Var_p(l),
#: which grows as tau^-4 while they stay put, would reach order 1 only at the cap.
COLLAPSED_VAR = 2.0 ** -512
#: Floor on the argument of every ``np.exp`` whose values only feed a sum
#: that holds exp(0) = 1.  numpy's vector exp runs at about a nanosecond
#: per element until an argument falls below about -708, where one such
#: lane sends its whole vector down a path ten to fifty times slower.  A
#: floored lane adds at most e^-700 (about 1e-304) in place of a smaller
#: value, which cannot move a sum of at least 1 by a bit.
EXP_FLOOR = -700.0


@dataclass(frozen=True)
class KernelMatrix:
    """A realized kernel matrix plus the settings that produced it.

    ``evaluations`` holds each row's entropy evaluations when the
    bandwidths come from :func:`calibrated_kernel`, and ``neighbors`` the
    data's k-nearest-neighbor sets it was asked for.  ccPCA's draws read
    ``values``, then :func:`coupling.input_affinity` consumes it.
    """

    values: np.ndarray
    kind: str
    bandwidths: Optional[np.ndarray] = None
    evaluations: Optional[np.ndarray] = None
    neighbors: Optional[np.ndarray] = None


def check_kind(kind: str) -> str:
    if kind not in KERNEL_KINDS:
        raise ParameterError(f"unknown kernel kind {kind!r}, expected one of {KERNEL_KINDS}")
    return kind


def check_perplexity(perplexity: float, n: int) -> None:
    """Raise :class:`ParameterError` unless ``n`` rows can be calibrated at ``perplexity``."""
    if n < 2:
        raise ParameterError("calibration needs at least two rows")
    if not (1.0 <= perplexity <= n - 1):
        raise ParameterError(
            f"perplexity must lie in [1, {n - 1}] for n={n}, got {perplexity}")


def log_kernel(D, kind: str, bandwidths=None) -> np.ndarray:
    """Elementwise log k(.) evaluated on squared distances.

    ``D`` may be a block of rows of a distance matrix, with ``bandwidths``
    for those rows.  A row's distance to itself comes out as log k(0) = 0;
    callers that want a kernel's zero diagonal must mask it themselves.
    Stable for large distances: no intermediate exponentials are formed.
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
    """:func:`log_kernel` of checked distances and bandwidths, in ``out`` if given.

    A distance over tau^2 past the largest float is +inf, so its kernel
    value is exactly 0, the limit it stands for.
    """
    if tau is not None:
        with np.errstate(over="ignore"):
            S = out = np.divide(S, (tau * tau)[:, None], out=out)
    if kind == GAUSSIAN:
        return np.divide(S, -2.0, out=out)
    L = np.log1p(S, out=out)
    return np.negative(L, out=L)


def calibrated_kernel(X, perplexity: float, ks=()) -> KernelMatrix:
    """The Gaussian kernel over the rows of ``X`` at a target perplexity.

    For each row i, finds tau_i such that the Shannon entropy of the
    conditional neighbor distribution p_{j|i} proportional to
    exp(-D_ij / (2 tau_i^2)), with D the squared distances of
    :func:`linalg.pairwise_sq_dists`, equals log2(perplexity) within
    ``ENTROPY_TOL`` bits.  Every row follows the safeguarded Newton rule
    of :func:`_calibrate_rows` from tau = 1; a row still outside the
    tolerance after ``MAX_ENTROPY_EVALS`` evaluations gets the rule's
    next tau, and a row that cannot reach its target keeps the tau at
    which that shows; both count as capped.  Rows are solved together,
    one :func:`linalg.gram_row_blocks` block at a time: the block writes
    its rows of D into its rows of the kernel, the only n x n array
    made, and its kernel rows over them as soon as its tau are known.
    The blocks run on the usable cores through :func:`linalg.map_blocks`;
    neither the blocking nor the number of cores changes a bit of the result.  The result,
    with tau in ``bandwidths`` and each row's entropy evaluations in
    ``evaluations``, has the values of ``kernel_matrix(X, GAUSSIAN, tau)``
    in ``tests/oracles.py``, exp(-D / 2 tau_i^2) with a zero diagonal:
    the final exp writes stored values, so unlike the entropy passes it
    takes no ``EXP_FLOOR``.

    Each block also selects, from the distances it holds, every row's
    k-nearest-neighbor set for each k of ``ks`` (ascending after
    :func:`evaluation.check_ks`), the sets that
    :func:`evaluation.evaluate_embedding` would form from X.  They come
    in ``neighbors``, an array of shape ``(len(ks), n, ceil(n / 8))``:
    row i of entry j is ``np.packbits`` of row i's set at the j-th k, so
    they hold n^2 / 8 bytes per k.  Without ``ks`` it is None.

    Raises
    ------
    ParameterError
        If perplexity is outside [1, n - 1] (:func:`check_perplexity`)
        or a k outside [1, n - 2], before any distance is taken.
    DegenerateRowError
        If some row is at distance zero from every other row, which
        makes its neighbor distribution independent of tau, or at a
        squared distance that overflows to +inf from every other row,
        which leaves it no finite distance to calibrate on.  The first
        such row is named, as in a serial walk.
    """
    X = as_float_matrix(X, "X")
    n = X.shape[0]
    check_perplexity(perplexity, n)
    ks = check_ks(ks, n)
    target = float(np.log2(perplexity))
    tau = np.empty(n, dtype=np.float64)
    evaluations = np.empty(n, dtype=np.int64)
    neighbors = np.empty((len(ks), n, -(-n // 8)), dtype=np.uint8) if ks else None
    K = np.empty((n, n))
    dists = _sq_dists(X)

    def solve(block):
        rows = np.arange(block.start, block.stop)
        D = dists(block, out=K[block])
        # The block's off-diagonal distances, n - 1 per row.
        d = D[np.arange(n) != rows[:, None]].reshape(rows.size, n - 1)
        dead = np.flatnonzero(~d.any(axis=1))
        if dead.size:
            raise DegenerateRowError(
                f"row {rows[dead[0]]} is at distance zero from every other row")
        # Each row's -d/2 less its peak; a row with no finite distance has
        # no peak to shift by.
        peak = np.divide(d, -2.0, out=d).max(axis=1)
        far = np.flatnonzero(peak == -np.inf)
        if far.size:
            raise DegenerateRowError(
                f"row {rows[far[0]]} is at an overflowing distance from every other row")
        if ks:
            for j, chosen in enumerate(_neighbor_sets(D, block, ks)):
                neighbors[j, block] = np.packbits(chosen, axis=1)
            K[rows, rows] = 0.0  # the selection wrote -1 there
        t, evaluations[block] = _calibrate_rows(np.subtract(d, peak[:, None], out=d), target)
        tau[block] = t
        np.exp(_log_kernel(D, GAUSSIAN, t, out=D), out=D)
        K[rows, rows] = 0.0

    map_blocks(solve, gram_row_blocks(n))
    return KernelMatrix(K, GAUSSIAN, tau, evaluations, neighbors)


def _calibrate_rows(shifted: np.ndarray, target: float):
    """The bandwidth rule of :func:`calibrated_kernel` on a block of rows.

    Returns each row's tau and its number of entropy evaluations.  With
    the shifted logits l = (-d/2 - peak) / tau^2, where peak is the row's
    largest -d/2 and ``shifted`` holds -d/2 - peak, the entropy in nats
    is H = log sum e^l - E_p[l] and dH / d log tau = 2 Var_p(l), so one
    exp pass gives both the entropy and its slope.  The exp takes its argument floored at ``EXP_FLOOR``,
    which keeps numpy on its fast path and every bit of the result: the
    row's largest l is 0, so s >= 1 absorbs a floored lane's e^-700.  The
    sums of e l and e l^2 absorb it too, unless all their other terms are
    as tiny; then the row's entropy and variance lie within 1e-280 of 0,
    and each test below goes the same way.

    Every row starts at tau = 1 with the bracket lo = 0, hi = inf.  A row
    within ``ENTROPY_TOL`` bits of the target stops at that tau;
    otherwise an entropy below the target sets lo = tau, one at or above
    it sets hi = tau, and the next tau is the Newton step on log tau,
    clipped to [tau / 2, 2 tau].  Where that step is not finite or falls
    outside the open bracket (lo, hi), the next tau is 2 lo while hi is
    infinite, else (lo + hi) / 2: rows far from their scale double or
    halve until the target is bracketed.  A row above its target whose
    Var_p(l) is at most ``COLLAPSED_VAR`` cannot come down to it: it
    stops at that tau, with ``MAX_ENTROPY_EVALS`` evaluations, as capped.

    Works in ``shifted``, which it reorders, and two buffers of its
    shape.  The rows still running are kept in the leading rows: when
    some finish, the rest move up in order.
    """
    rows = shifted.shape[0]
    tau, evaluations = np.empty(rows), np.empty(rows, dtype=np.int64)
    live = np.arange(rows)
    logits, w = np.empty_like(shifted), np.empty_like(shifted)
    t, lo, hi = np.ones(rows), np.zeros(rows), np.full(rows, np.inf)
    ln2 = np.log(2.0)
    for count in range(1, MAX_ENTROPY_EVALS + 1):
        # Entropy in bits of p = w / s with w = exp(l), and Var_p(l).
        m = live.size
        l, e = logits[:m], w[:m]
        np.multiply(shifted[:m], (1.0 / (t * t))[:, None], out=l)
        np.exp(np.maximum(l, EXP_FLOOR, out=l), out=e)
        s = e.sum(axis=1)
        mean = np.multiply(e, l, out=e).sum(axis=1) / s
        var = np.multiply(e, l, out=e).sum(axis=1) / s - mean * mean
        h = (np.log(s) - mean) / ln2
        capped = (h > target) & (var <= COLLAPSED_VAR)
        done = (np.abs(h - target) <= ENTROPY_TOL) | capped
        if done.any():
            tau[live[done]] = t[done]
            evaluations[live[done]] = np.where(capped[done], MAX_ENTROPY_EVALS, count)
            keep = ~done
            for to, row in enumerate(np.flatnonzero(keep)):
                if to != row:
                    shifted[to] = shifted[row]
            live, t, lo, hi, h, var = (a[keep] for a in (live, t, lo, hi, h, var))
            if not live.size:
                return tau, evaluations
        below = h < target
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        with np.errstate(divide="ignore", over="ignore"):
            newton = np.clip(t * np.exp((target - h) * ln2 / (2.0 * var)), t / 2.0, 2.0 * t)
        t = np.where((lo < newton) & (newton < hi), newton,
                     np.where(np.isinf(hi), 2.0 * lo, (lo + hi) / 2.0))
    tau[live] = t
    evaluations[live] = MAX_ENTROPY_EVALS
    return tau, evaluations
