"""Posterior edge distributions of the latent graph given observed points.

Three prior families on the latent graph are supported, named by a
single letter:

``"B"``  independent Bernoulli edges,
``"D"``  exactly one outgoing edge per node (row multinomial),
``"E"``  a fixed total of n edges placed by a global multinomial.

In the large-graph limit every posterior is driven by the kernel K of
the data, with uniform prior weights.  Expectations are packaged as
:class:`AffinityMatrix` values tagged with how they are normalized.
:func:`coupling.input_affinity` writes a method's expectation over K,
consuming it.  Exact posterior samples are drawn by a
:class:`PosteriorSampler`, which validates the kernel once and returns
each latent graph as an edge list.  It builds no table for any prior:
:meth:`PosteriorSampler.draws` reads K one row block at a time for any
number of generators, so K must not change while the sampler is in use.
``tests/oracles.py`` keeps the copy forms, ``posterior_expectation``
and the dense draw ``sample_posterior_graph``.
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


def _edge_probabilities(G: np.ndarray, out=None) -> np.ndarray:
    """The B prior's edge probabilities G / (1 + G), in ``out`` or a new array."""
    P = 1.0 + G
    return np.divide(G, P, out=P if out is None else out)


def _expectation_in_place(G: np.ndarray, prior: str) -> AffinityMatrix:
    """The limiting posterior's expected latent graph, written over the checked kernel G.

    B: independent edges with P_ij = G / (1 + G).
    D: each row is one draw over its off-diagonal cells, so the
       expectation is G row-normalized.
    E: n edges in total, so the per-draw cell distribution is G
       globally normalized; entries sum to 1.

    A prior that rejects G raises before G is written; B's only
    temporary is one :func:`linalg.row_blocks` block's 1 + G.
    """
    if prior == "B":
        for rows in row_blocks(G.shape[0]):
            _edge_probabilities(G[rows], out=G[rows])
        return AffinityMatrix(G, prior, BERNOULLI)
    if prior == "D":
        rows = G.sum(axis=1)
        _check_row_sums(rows)
        G /= rows[:, None]
        return AffinityMatrix(G, prior, ROW)
    total = G.sum()
    if total == 0.0:
        raise DegenerateRowError("no admissible edge under the E prior")
    G /= total
    return AffinityMatrix(G, prior, GLOBAL)


class PosteriorSampler:
    """Exact sampler of the limiting posterior of one prior and kernel.

    Construction validates K as ``posterior_expectation`` in
    ``tests/oracles.py`` does and keeps K's own array and, for D and E,
    its row sums.  Each :meth:`draws` walks K's :func:`linalg.row_blocks`
    once for every generator, forming a block's edge probabilities (B) or
    row CDF (D and E) with that function's arithmetic.  E's multinomial
    of n edges over K's cells factors exactly into one of the row totals
    over the row masses (row sums over their total), then that many
    draws from each row's CDF; D draws once per row.
    """

    def __init__(self, K, prior: str):
        check_prior(prior)
        self._K = _checked_kernel(K)
        self.prior = prior
        self.n = self._K.shape[0]
        if prior != "B":
            self._row_sums = self._K.sum(axis=1)
        if prior == "D":
            _check_row_sums(self._row_sums)
        elif prior == "E" and not self._row_sums.any():
            raise DegenerateRowError("no admissible edge under the E prior")

    def draws(self, rngs) -> list:
        """One latent graph per generator, in the order of ``rngs``.

        At most one edge per row for D, exactly n edges in total for E,
        and independent 0/1 entries for B; never a diagonal edge.  Each
        draw takes all of its randomness from its own generator, in the
        stream that ``draws([rng])`` takes from it: E's row totals first,
        then each block's uniforms, from every generator in turn.  So a
        generator listed twice gives two exact, mutually independent
        draws; for B and D, not E, they equal two single-generator calls
        when K is one block.
        """
        rngs = list(rngs)
        if self.prior == "B":
            return self._bernoulli_draws(rngs)
        if self.prior == "D":
            return self._row_draws(rngs, np.broadcast_to(np.int64(1), (len(rngs), self.n)))
        # Only rows with mass get a total, so no roundoff leftover lands elsewhere.
        live = np.flatnonzero(self._row_sums)
        masses = self._row_sums[live] / self._row_sums.sum()
        totals = np.zeros((len(rngs), self.n), dtype=np.int64)
        for g, rng in enumerate(rngs):
            totals[g, live] = rng.multinomial(self.n, masses)
        return self._row_draws(rngs, totals)

    def _row_cdf(self, rows) -> np.ndarray:
        """Rows ``rows`` (a slice, or indices of rows with mass) of the D
        prior's row CDF, each ending at exactly 1."""
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

    def _row_draws(self, rngs: list, totals: np.ndarray) -> list:
        """``totals[g, i]`` draws from row i's CDF for each generator g.

        u in (0, 1] is drawn block by block in the stream of one
        ``rng.random(totals[g].sum())``, row after row.  The first CDF
        entry >= u is the strict count (cdf < u).sum(), so a cell of
        probability 0, the diagonal too, is never selected.  An E draw's
        repeated cells merge into its edge counts.
        """
        n = self.n
        picks = [[np.zeros(0, dtype=np.int64)] for _ in rngs]
        for rows in row_blocks(n):
            # Only E admits a row without mass, which draws nothing and has no CDF.
            live = rows.start + np.flatnonzero(self._row_sums[rows])
            cdf = self._row_cdf(rows if live.size == rows.stop - rows.start else live)
            counts = totals[:, live]
            # which[k] is the CDF row of uniform k, generator by generator.
            which = np.repeat(np.tile(np.arange(live.size), len(rngs)), counts.ravel())
            ends = np.cumsum(counts.sum(axis=1)).tolist()
            spans = list(zip([0] + ends[:-1], ends))
            del counts
            u = np.empty(which.size)
            for rng, (lo, hi) in zip(rngs, spans):
                rng.random(out=u[lo:hi])
            np.subtract(1.0, u, out=u)
            cols = _first_at_least(cdf, which, u)
            del cdf  # before the next block's CDF is formed
            for edge_cols, (lo, hi) in zip(picks, spans):
                edge_cols.append(cols[lo:hi])
        draws = []
        for g, edge_cols in enumerate(picks):
            picks[g] = None  # each draw's pieces go once they are joined
            edge_rows, edge_cols = np.repeat(np.arange(n), totals[g]), np.concatenate(edge_cols)
            counts = np.ones(edge_rows.size, dtype=np.int64)
            if self.prior == "E":
                cells, counts = np.unique(edge_rows * n + edge_cols, return_counts=True)
                edge_rows, edge_cols = np.divmod(cells, n)
            draws.append(EdgeList(n, edge_rows, edge_cols, counts))
        return draws


def _first_at_least(cdf: np.ndarray, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each ``u[k]``, the first column of the sorted row ``cdf[row[k]]`` that is >= it.

    The count of the row's entries below ``u[k]``, found by one
    branch-free bisection over every uniform at once: the count lies in
    ``[base, base + size]``, which each step halves.  Indices are flat
    (column ``index % n``), so one gather reads a cell of every uniform's row.
    """
    n = cdf.shape[1]
    flat = cdf.ravel()
    base, size = row * n, n
    while size > 1:
        half = size // 2
        probe = base + half
        base = np.where(flat[probe] < u, probe, base)
        size -= half
    return base % n + (flat[base] < u)


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
