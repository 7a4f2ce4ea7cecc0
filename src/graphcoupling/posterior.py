"""Posterior edge distributions of the latent graph given observed points.

Three prior families on the latent graph are supported, named by a
single letter:

``"B"``  independent Bernoulli edges,
``"D"``  exactly one outgoing edge per node (row multinomial),
``"E"``  a fixed total of n edges placed by a global multinomial.

In the large-graph limit every posterior is driven by the kernel K of
the data, with uniform prior weights.  Expectations are packaged as
:class:`AffinityMatrix` values tagged with how they are normalized.
Exact posterior samples are drawn by a :class:`PosteriorSampler`,
which validates the kernel once and returns each latent graph as an
edge list (``tests/oracles.py`` keeps the dense draw,
``sample_posterior_graph``).  For B and D it builds no table:
:meth:`PosteriorSampler.draws` reads K one row block at a time for any
number of generators, so K must not change while the sampler is in use.
E keeps one table of K's off-diagonal cells.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, DegenerateRowError, ParameterError
from .graph import EdgeList
from .kernels import KernelMatrix
from . import linalg
from .linalg import as_float_matrix, row_blocks

PRIOR_KINDS = ("B", "D", "E")

ROW = "row"
GLOBAL = "global"
BERNOULLI = "bernoulli"
SYMMETRIZED_ROW = "symmetrized-row"
THRESHOLDED_BERNOULLI = "thresholded-bernoulli"


@dataclass(frozen=True)
class AffinityMatrix:
    """Posterior edge-probability matrix tagged with its normalization.

    ``normalization`` is one of: ``row`` (rows sum to 1), ``global``
    (all entries sum to 1), ``bernoulli`` (elementwise probabilities),
    ``symmetrized-row`` (P + P^T of a row matrix, total mass 2n) or
    ``thresholded-bernoulli`` (probabilistic-OR of a bernoulli matrix).
    """

    values: np.ndarray
    prior: str
    normalization: str


def check_prior(prior: str) -> str:
    if prior not in PRIOR_KINDS:
        raise ParameterError(f"unknown prior {prior!r}, expected one of {PRIOR_KINDS}")
    return prior


def _checked_kernel(K) -> np.ndarray:
    """Validate K; return its own array."""
    values = K.values if isinstance(K, KernelMatrix) else K
    V = as_float_matrix(values, "K")
    n, m = V.shape
    if n != m:
        raise ContractViolationError(f"kernel matrix must be square, got {V.shape}")
    if V.diagonal().any():
        raise ContractViolationError("kernel matrix must have a zero diagonal")
    if n and float(V.min()) < 0.0:
        raise ContractViolationError("kernel values must be nonnegative")
    return V


def _check_row_sums(sums: np.ndarray) -> None:
    """Reject the first row of the D prior with no admissible edge."""
    if not sums.all():
        raise DegenerateRowError(f"row {int(np.argmin(sums != 0.0))} has no "
                                 "admissible edge under the D prior")


def _check_total(total: float) -> None:
    """Reject a kernel with no admissible edge under the E prior."""
    if total == 0.0:
        raise DegenerateRowError("no admissible edge under the E prior")


def _edge_probabilities(G: np.ndarray) -> np.ndarray:
    """The B prior's edge probabilities G / (1 + G), in a new array."""
    P = 1.0 + G
    return np.divide(G, P, out=P)


def posterior_expectation(K, prior: str) -> AffinityMatrix:
    """Expected latent graph under the limiting posterior of a prior family.

    B: independent edges with P_ij = K / (1 + K).
    D: each row is one draw over its off-diagonal cells, so the
       expectation is K row-normalized.
    E: n edges in total, so the per-draw cell distribution is K
       globally normalized; entries sum to 1.
    """
    check_prior(prior)
    G = _checked_kernel(K)
    if prior == "B":
        return AffinityMatrix(_edge_probabilities(G), prior, BERNOULLI)
    if prior == "D":
        rows = G.sum(axis=1)
        _check_row_sums(rows)
        return AffinityMatrix(G / rows[:, None], prior, ROW)
    total = G.sum()
    _check_total(total)
    return AffinityMatrix(G / total, prior, GLOBAL)


class PosteriorSampler:
    """Exact sampler of the limiting posterior of one prior and kernel.

    Construction validates K as :func:`posterior_expectation` does and
    keeps K's own array.  B and D build no table: each
    :meth:`draws` walks K one :func:`linalg.row_blocks` block at a time
    and forms the block's edge probabilities (B) or row CDF (D, from row
    sums taken at construction) with :func:`posterior_expectation`'s
    arithmetic, for every generator at once, so K must not change while
    the sampler is in use.  E keeps one table, K's off-diagonal cells
    renormalized to 1, because a multinomial draw needs all of them.
    """

    def __init__(self, K, prior: str):
        check_prior(prior)
        self._K = _checked_kernel(K)
        self.prior = prior
        self.n = n = self._K.shape[0]
        if prior == "D":
            self._row_sums = np.empty(n)
            for rows in row_blocks(n):
                self._row_sums[rows] = self._K[rows].sum(axis=1)
            _check_row_sums(self._row_sums)
        elif prior == "E":
            self._cells = self._cell_table()

    def _cell_table(self) -> np.ndarray:
        """K's off-diagonal cells in row-major order, scaled to sum to 1.

        The cells are gathered in place in one n x n copy of K, whose
        total they are first divided by: the numbers of
        ``posterior_expectation(K, "E")`` restricted to those cells.
        """
        n = self.n
        G = self._K.copy()
        total = G.sum()
        _check_total(total)
        flat = G.ravel()
        # Between the diagonal cells k and k + 1 of the flat matrix lie the
        # n off-diagonal cells that row k of ``cells`` takes, to their left.
        between = flat[1:].reshape(n - 1, n + 1)[:, :n]
        cells = flat[:n * (n - 1)].reshape(n - 1, n)
        for rows in row_blocks(n - 1):
            cells[rows] = between[rows]
        cells = flat[:n * (n - 1)]
        cells /= total
        cells /= cells.sum()
        return cells

    def draws(self, rngs) -> list:
        """One latent graph per generator, in the order of ``rngs``.

        At most one edge per row for D, exactly n edges in total for E,
        and independent 0/1 entries for B; never a diagonal edge.  Each
        draw takes all of its randomness from its own generator, in the
        stream that ``draws([rng])`` takes from it: B and D walk K once for
        all of them and take each block's uniforms from every generator in
        turn.  So a generator listed twice gives two exact, mutually
        independent draws, which equal two single-generator calls only
        when K is one block.
        """
        rngs = list(rngs)
        if self.prior == "E":
            return [self._multinomial(rng) for rng in rngs]
        if self.prior == "D":
            return self._row_draws(rngs)
        return self._bernoulli_draws(rngs)

    def _row_cdf(self, rows: slice) -> np.ndarray:
        """Rows ``rows`` of the D prior's row CDF, each ending at exactly 1."""
        cdf = self._K[rows] / self._row_sums[rows, None]
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:].copy()  # an overlapping view would copy the block
        return cdf

    def _bernoulli_draws(self, rngs: list) -> list:
        n = self.n
        empty = np.zeros(0, dtype=np.int64)
        hits = [([empty], [empty]) for _ in rngs]
        # A block holds its probabilities and one generator's uniforms,
        # two floats per cell, so it takes half the budget.
        for rows in row_blocks(n, cells=linalg.ROW_BLOCK_CELLS // 2):
            P = _edge_probabilities(self._K[rows])
            for (edge_rows, edge_cols), rng in zip(hits, rngs):
                # Uniforms drawn block by block are the (n, n) draw's stream.
                block_rows, block_cols = np.nonzero(rng.random(P.shape) < P)
                block_rows += rows.start
                edge_rows.append(block_rows)
                edge_cols.append(block_cols)
            del P  # before the next block's probabilities are formed
        draws = []
        for g, (edge_rows, edge_cols) in enumerate(hits):
            hits[g] = None  # each draw's pieces go once they are joined
            edge_rows = np.concatenate(edge_rows)
            draws.append(EdgeList(n, edge_rows, np.concatenate(edge_cols),
                                  np.ones(edge_rows.shape[0], dtype=np.int64)))
        return draws

    def _row_draws(self, rngs: list) -> list:
        n = self.n
        cols = np.empty((len(rngs), n), dtype=np.int64)
        for rows in row_blocks(n):
            # u in (0, 1], drawn block by block in the stream of one
            # rng.random(n), so the uniforms held are a block's, not n per
            # generator.  The first CDF entry >= u is the strict count
            # (cdf < u).sum(), so a zero-probability cell, the diagonal in
            # particular, is never selected.
            u = np.empty((len(rngs), rows.stop - rows.start))
            for g, rng in enumerate(rngs):
                rng.random(out=u[g])
            np.subtract(1.0, u, out=u)
            cols[:, rows] = _first_at_least(self._row_cdf(rows), u)
        return [EdgeList(n, np.arange(n, dtype=np.int64), cols[g],
                         np.ones(n, dtype=np.int64)) for g in range(len(rngs))]

    def _multinomial(self, rng: np.random.Generator) -> EdgeList:
        n = self.n
        counts = rng.multinomial(n, self._cells)
        cells = np.nonzero(counts)[0]
        # Cell c of the row-major off-diagonal order lies in row c // (n - 1)
        # and skips that row's diagonal.
        rows = cells // (n - 1)
        cols = cells % (n - 1)
        cols += cols >= rows
        return EdgeList(n, rows, cols, counts[cells].astype(np.int64))


def _first_at_least(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each ``u[g, r]``, the first column of the sorted row ``cdf[r]`` that is >= it.

    The count of the row's entries below ``u[g, r]``, found by one
    branch-free bisection over every generator and row at once: the
    count lies in ``[base, base + size]``, which each step halves.
    Indices are flat, so one gather reads a cell of every row.
    """
    b, n = cdf.shape
    flat = cdf.ravel()
    first = np.arange(0, b * n, n)
    base, size = first, n
    while size > 1:
        half = size // 2
        probe = base + half
        base = np.where(flat[probe] < u, probe, base)
        size -= half
    return base - first + (flat[base] < u)


def _add(a, c) -> None:
    a += c


def _probabilistic_or(a, c) -> None:
    product = a * c
    a += c
    a -= product


#: Per posterior normalization: the normalization of its symmetric form
#: and the commutative rule ``combine(a, c)`` that overwrites a with the
#: combination of a and c.
_SYMMETRIC_FORMS = {ROW: (SYMMETRIZED_ROW, _add),
                    BERNOULLI: (THRESHOLDED_BERNOULLI, _probabilistic_or)}


def symmetrized_in_place(P: AffinityMatrix) -> AffinityMatrix:
    """The symmetric form of a row or bernoulli affinity, written over P's values.

    P + P^T of a ``row`` affinity, or the probabilistic-OR of a
    ``bernoulli`` one (``tests/oracles.py`` applies it to a copy as
    ``symmetrize_row_affinity`` and ``umap_threshold_prob``).  Walks the
    upper triangle one :func:`linalg.row_blocks` block at a time: the
    block's entries right of its diagonal square are combined in place
    with their mirror images below it, which are then overwritten with
    the result, so the only temporaries are the OR's products over one
    block and a copy of its diagonal square.  The result is exactly
    symmetric because both rules commute: combining P_ij with P_ji and
    P_ji with P_ij give the same float.
    """
    if P.normalization not in _SYMMETRIC_FORMS:
        raise ContractViolationError(
            f"expected a row or bernoulli affinity, got {P.normalization!r}")
    normalization, combine = _SYMMETRIC_FORMS[P.normalization]
    V = P.values
    for rows in row_blocks(V.shape[0], upper=True):
        hi = rows.stop
        square = V[rows, rows]
        combine(square, square.T)  # numpy copies an operand that overlaps its output
        combine(V[rows, hi:], V[hi:, rows].T)
        V[hi:, rows] = V[rows, hi:].T
    return replace(P, normalization=normalization)
