"""Posterior edge distributions of the latent graph given observed points.

Three prior families on the latent graph are supported, named by a
single letter:

``"B"``  independent Bernoulli edges,
``"D"``  exactly one outgoing edge per node (row multinomial),
``"E"``  a fixed total of n edges placed by a global multinomial.

In the large-graph limit every posterior is driven by the elementwise
product pi * K of prior weights and kernel values.  Expectations are
packaged as :class:`AffinityMatrix` values tagged with how they are
normalized.  Exact posterior samples are drawn by a
:class:`PosteriorSampler`, which validates the kernel and builds its
prior's table once and then returns each latent graph as an edge list.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, DegenerateRowError, ParameterError
from .graph import EdgeList
from .kernels import KernelMatrix
from .linalg import as_float_matrix

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


def _weighted_kernel(K, pi) -> np.ndarray:
    """Validate inputs and return pi * K with a zero diagonal."""
    values = K.values if isinstance(K, KernelMatrix) else K
    V = as_float_matrix(values, "K")
    n, m = V.shape
    if n != m:
        raise ContractViolationError(f"kernel matrix must be square, got {V.shape}")
    if n and (np.diag(V) != 0.0).any():
        raise ContractViolationError("kernel matrix must have a zero diagonal")
    if n and float(V.min()) < 0.0:
        raise ContractViolationError("kernel values must be nonnegative")
    if pi is None:
        return V.copy()
    P = as_float_matrix(pi, "pi")
    if P.shape != V.shape:
        raise ContractViolationError(f"pi must have shape {V.shape}, got {P.shape}")
    if float(P.min()) < 0.0:
        raise ContractViolationError("pi entries must be nonnegative")
    return P * V


def posterior_expectation(K, prior: str, pi=None) -> AffinityMatrix:
    """Expected latent graph under the limiting posterior of a prior family.

    B: independent edges with P_ij = pi K / (1 + pi K).
    D: each row is one draw over its off-diagonal cells, so the
       expectation is pi * K row-normalized.
    E: n edges in total, so the per-draw cell distribution is pi * K
       globally normalized; entries sum to 1.
    """
    check_prior(prior)
    G = _weighted_kernel(K, pi)
    n = G.shape[0]
    if prior == "B":
        return AffinityMatrix(G / (1.0 + G), prior, BERNOULLI)
    if prior == "D":
        rows = G.sum(axis=1)
        dead = np.nonzero(rows == 0.0)[0]
        if dead.size:
            raise DegenerateRowError(
                f"row {int(dead[0])} has no admissible edge under the D prior")
        return AffinityMatrix(G / rows[:, None], prior, ROW)
    total = G.sum()
    if total == 0.0:
        raise DegenerateRowError("no admissible edge under the E prior")
    return AffinityMatrix(G / total, prior, GLOBAL)


class PosteriorSampler:
    """Exact sampler of the limiting posterior of one prior and kernel.

    Construction validates K and pi and builds the prior's table once:
    edge probabilities for B, the row CDF for D, the off-diagonal cell
    probabilities for E.  Each :meth:`draw` takes all of its randomness
    from ``rng`` and costs O(n log n) for D, one pass over the table for
    B and E.
    """

    def __init__(self, K, prior: str, pi=None):
        check_prior(prior)
        G = _weighted_kernel(K, pi)
        n = G.shape[0]
        self.prior = prior
        self.n = n
        if prior == "B":
            self._table = G / (1.0 + G)
        elif prior == "D":
            rows = G.sum(axis=1)
            dead = np.nonzero(rows == 0.0)[0]
            if dead.size:
                raise DegenerateRowError(
                    f"row {int(dead[0])} has no admissible edge under the D prior")
            cdf = np.cumsum(G / rows[:, None], axis=1)
            cdf /= cdf[:, -1:]
            self._table = cdf
        else:
            total = G.sum()
            if total == 0.0:
                raise DegenerateRowError("no admissible edge under the E prior")
            p = G[~np.eye(n, dtype=bool)] / total
            self._table = p / p.sum()

    def draw(self, rng: np.random.Generator) -> EdgeList:
        """One latent graph, in the same random stream as every earlier draw.

        At most one edge per row for D, exactly n edges in total for E,
        and independent 0/1 entries for B; never a diagonal edge.
        """
        n = self.n
        if self.prior == "B":
            rows, cols = np.nonzero(rng.random((n, n)) < self._table)
            return EdgeList(n, rows, cols, np.ones(rows.shape[0], dtype=np.int64))
        if self.prior == "D":
            # u in (0, 1] and the first CDF entry >= u is the strict-comparison
            # count (cdf < u).sum(), so a zero-probability cell, the diagonal
            # in particular, is never selected.  Rows are monotone, so a
            # bisection over all rows at once finds it.
            u = 1.0 - rng.random(n)
            rows = np.arange(n, dtype=np.int64)
            lo = np.zeros(n, dtype=np.int64)
            hi = np.full(n, n - 1, dtype=np.int64)
            for _ in range((n - 1).bit_length()):
                mid = (lo + hi) // 2
                below = self._table[rows, mid] < u
                lo = np.where(below, mid + 1, lo)
                hi = np.where(below, hi, mid)
            return EdgeList(n, rows, hi, np.ones(n, dtype=np.int64))
        counts = rng.multinomial(n, self._table)
        cells = np.nonzero(counts)[0]
        # Cell c of the row-major off-diagonal order lies in row c // (n - 1)
        # and skips that row's diagonal.
        rows = cells // (n - 1)
        cols = cells % (n - 1)
        cols += cols >= rows
        return EdgeList(n, rows, cols, counts[cells].astype(np.int64))


def sample_posterior_graph(K, prior: str, rng: np.random.Generator, pi=None) -> np.ndarray:
    """Draw one latent graph from the limiting posterior.

    Returns an int64 matrix in the latent graph space: zero diagonal, at
    most one edge per row for D, exactly n edges in total for E, and
    independent 0/1 entries for B.  All randomness comes from ``rng``;
    it is the dense form of :meth:`PosteriorSampler.draw`.
    """
    return PosteriorSampler(K, prior, pi).draw(rng).dense()


def symmetrize_row_affinity(P: AffinityMatrix) -> AffinityMatrix:
    """P + P^T of a row-normalized affinity; total mass becomes 2n.

    Kept unnormalized on purpose: dividing by 2n only rescales the
    attraction term of the couplings built from it.
    """
    if P.normalization != ROW:
        raise ContractViolationError(
            f"expected a row-normalized affinity, got {P.normalization!r}")
    return replace(P, values=P.values + P.values.T, normalization=SYMMETRIZED_ROW)


def umap_threshold_prob(P: AffinityMatrix) -> AffinityMatrix:
    """Probability that edge {i, j} exists in at least one direction.

    The probabilistic-OR P_ij + P_ji - P_ij P_ji of an elementwise
    Bernoulli affinity; symmetric with entries in [0, 1].
    """
    if P.normalization != BERNOULLI:
        raise ContractViolationError(
            f"expected an elementwise bernoulli affinity, got {P.normalization!r}")
    V = P.values
    return replace(P, values=V + V.T - V * V.T, normalization=THRESHOLDED_BERNOULLI)
