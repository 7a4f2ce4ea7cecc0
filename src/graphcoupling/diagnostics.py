"""Self-checks of the package's core identities on random instances.

Each check exercises an exact property the implementation is supposed
to satisfy: the Gaussian trace identity of the MRF density, per
component shift invariance, posterior sampling frequencies against
their closed-form expectations, the loss decomposition identity, and
finite-difference agreement of the analytic gradients.  They run on
small random instances so the whole battery stays under a few seconds.
The last three run a fit's path in its order: :func:`kernels.calibrated_kernel`,
draws from it, then :func:`coupling.input_affinity` over it; shift invariance
takes its components from :func:`graph.components_from_edges`, as ccPCA does.
"""

import math
from typing import NamedTuple

import numpy as np

from .coupling import METHOD_KINDS, SNE, TSNE, UMAP, CouplingProblem, input_affinity
from .errors import ParameterError
from .graph import components_from_edges, laplacian, log_mrf_density
from .kernels import calibrated_kernel
from .posterior import PRIOR_KINDS, PosteriorSampler, _expectation_in_place


#: Perplexity of the fit-path checks' kernels, small enough for their few rows.
PERPLEXITY = 2.0
#: Two-sided level of the sampling-frequency check: the normal tail beyond
#: 5 standard errors, about 5.7e-7.
FREQUENCY_LEVEL = math.erfc(5.0 / math.sqrt(2.0))


class DiagnosticResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _random_graph(rng, n: int) -> np.ndarray:
    W = rng.integers(0, n + 1, size=(n, n))
    np.fill_diagonal(W, 0)
    return W


def _trace_identity(rng) -> DiagnosticResult:
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        W = _random_graph(rng, n)
        value = log_mrf_density(X, W, "gaussian")
        trace = float(np.trace(X.T @ laplacian(W) @ X))
        worst = max(worst, abs(value + trace / 2.0) / (1.0 + abs(value)))
    return DiagnosticResult("gaussian-trace-identity", worst <= 1e-8,
                            f"max relative residual {worst:.3e}")


def _shift_invariance(rng) -> DiagnosticResult:
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 9))
        X = rng.normal(size=(n, 2))
        W = _random_graph(rng, n)
        kind = "gaussian" if trial % 2 == 0 else "student"
        base = log_mrf_density(X, W, kind)
        parts = components_from_edges(n, *np.nonzero(W))
        shifted = X + rng.uniform(-3.0, 3.0, size=(parts.n_components, 2))[parts.assignment]
        worst = max(worst, abs(log_mrf_density(shifted, W, kind) - base))
    return DiagnosticResult("component-shift-invariance", worst <= 1e-9,
                            f"max absolute drift {worst:.3e}")


def binomial_tail(counts, trials: int, p) -> np.ndarray:
    """min(P(X <= c), P(X >= c)) for X ~ Binomial(trials, p), cell by cell.

    The probabilities are summed from the exact probability mass, with
    log factorials from one cumulative sum (off by under 3e-7 in the log
    at a million trials).  A cell whose law is certain (p of 0 or 1) gives 1
    at its one possible count and 0 anywhere else.
    """
    counts = np.asarray(counts, dtype=np.int64).ravel()
    p = np.asarray(p, dtype=np.float64).ravel()
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, trials + 1.0)))])
    k = np.arange(trials + 1)
    tails = np.empty(counts.size)
    for i, (c, q) in enumerate(zip(counts, p)):
        if q <= 0.0 or q >= 1.0:
            tails[i] = float(c == (trials if q >= 1.0 else 0))
            continue
        mass = np.exp(log_fact[trials] - log_fact - log_fact[::-1]
                      + k * math.log(q) + (trials - k) * math.log1p(-q))
        tails[i] = min(mass[:c + 1].sum(), mass[c:].sum())
    return tails


def _posterior_frequencies(rng, samples: int) -> DiagnosticResult:
    """Each cell's edge count over ``samples`` draws against the P a fit writes.

    A D draw hits cell (i, j) with sne's P_ij; a B draw, joined over both
    directions, hits the pair {i, j} with umap's OR P; an E draw puts n
    edges by one multinomial(n, p), p the E expectation that no method
    uses.  So a count is Binomial(samples, p), or Binomial(n samples, p)
    under E, and the check fails when one lies in a tail of probability
    below ``FREQUENCY_LEVEL / 2``.  Unlike a normal z-score, the exact
    tail does not flag a rare cell (p near 0) that a correct sampler hit once.
    """
    n = 5
    K = calibrated_kernel(rng.normal(size=(n, 3)), PERPLEXITY)
    off = ~np.eye(n, dtype=bool)
    counts = {prior: np.zeros((n, n), dtype=np.int64) for prior in PRIOR_KINDS}
    for prior in PRIOR_KINDS:
        sub = np.random.default_rng(rng.integers(2 ** 32))
        for edges in PosteriorSampler(K, prior).draws([sub] * samples):
            W = edges.dense()
            counts[prior] += (W + W.T > 0) if prior == "B" else W
    # The draws read K, and sne's P is then written over it.
    laws = [("B", input_affinity(K.values.copy(), UMAP), np.triu(off), samples),
            ("E", _expectation_in_place(K.values.copy(), "E"), off, n * samples),
            ("D", input_affinity(K, SNE), off, samples)]
    worst = min(float(binomial_tail(counts[prior][cells], trials, P.values[cells]).min())
                for prior, P, cells, trials in laws)
    return DiagnosticResult("posterior-sampling-frequencies", worst >= FREQUENCY_LEVEL / 2.0,
                            f"smallest binomial tail {worst:.2e} over B/D/E "
                            f"(fails below {FREQUENCY_LEVEL / 2.0:.2e})")


def _decomposition_identity(rng) -> DiagnosticResult:
    n = 8
    K = calibrated_kernel(rng.normal(size=(n, 3)), PERPLEXITY)
    Z = rng.normal(size=(n, 2))
    exact = True
    for method in METHOD_KINDS:
        # input_affinity consumes its kernel, so each method gets a copy.
        problem = CouplingProblem(method, input_affinity(K.values.copy(), method))
        att, rep = problem.attraction_repulsion(Z)
        exact = exact and (att + rep == problem.evaluate(Z).loss)
    return DiagnosticResult("loss-decomposition-identity", exact,
                            "attraction + repulsion reproduces loss bit for bit")


def _gradient_check(rng) -> DiagnosticResult:
    n = 6
    K = calibrated_kernel(rng.normal(size=(n, 3)), PERPLEXITY)
    problem = CouplingProblem(TSNE, input_affinity(K, TSNE))
    Z = rng.normal(size=(n, 2))
    g = problem.evaluate(Z).grad
    eps = 1e-6
    worst = 0.0
    for i, j in np.ndindex(Z.shape):
        step = np.zeros_like(Z)
        step[i, j] = eps
        fd = (problem.evaluate(Z + step).loss - problem.evaluate(Z - step).loss) / (2 * eps)
        worst = max(worst, abs(fd - g[i, j]) / (1.0 + abs(fd)))
    return DiagnosticResult("analytic-gradient", worst <= 1e-5,
                            f"max relative error vs finite differences {worst:.3e}")


def run_diagnostics(seed: int = 0, samples: int = 20000) -> list:
    """Run every self-check; returns a list of :class:`DiagnosticResult`.

    Raises :class:`ParameterError` unless ``seed`` is nonnegative and
    ``samples`` at least 1: a sampling check that draws nothing tests nothing.
    """
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    return [
        _trace_identity(rng),
        _shift_invariance(rng),
        _posterior_frequencies(rng, samples),
        _decomposition_identity(rng),
        _gradient_check(rng),
    ]
