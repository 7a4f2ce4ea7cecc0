"""Self-checks of the package's core identities on random instances.

Each check exercises an exact property the implementation is supposed
to satisfy: the Gaussian trace identity of the MRF density, per
component shift invariance, posterior sampling frequencies against
their closed-form expectations, the loss decomposition identity, and
finite-difference agreement of the analytic gradients.  They run on
small random instances so the whole battery stays under a few seconds.
"""

from typing import NamedTuple

import numpy as np

from .coupling import METHOD_KINDS, CouplingProblem, input_affinity
from .graph import connected_components, laplacian, log_mrf_density
from .kernels import kernel_matrix
from .posterior import PRIOR_KINDS, PosteriorSampler, posterior_expectation


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
        parts = connected_components(W)
        shifted = X + rng.uniform(-3.0, 3.0, size=(parts.n_components, 2))[parts.assignment]
        worst = max(worst, abs(log_mrf_density(shifted, W, kind) - base))
    return DiagnosticResult("component-shift-invariance", worst <= 1e-9,
                            f"max absolute drift {worst:.3e}")


def _posterior_frequencies(rng, samples: int) -> DiagnosticResult:
    n = 5
    X = rng.normal(size=(n, 2))
    K = kernel_matrix(X, "gaussian")
    worst = 0.0
    off = ~np.eye(n, dtype=bool)
    for prior in PRIOR_KINDS:
        p = posterior_expectation(K, prior).values
        if prior == "E":
            # one sample is multinomial(n, p): cell variance n p (1 - p)
            expect, var = n * p, n * p * (1.0 - p)
        else:
            expect, var = p, p * (1.0 - p)
        counts = np.zeros((n, n))
        sub = np.random.default_rng(rng.integers(2 ** 32))
        for edges in PosteriorSampler(K, prior).draws([sub] * samples):
            counts += edges.dense()
        freq = counts / samples
        se = np.sqrt(np.maximum(var, 1e-12) / samples)
        z = (np.abs(freq - expect) / se)[off]
        worst = max(worst, float(z.max()))
    return DiagnosticResult("posterior-sampling-frequencies", worst <= 5.0,
                            f"max z-score {worst:.2f} over B/D/E")


def _decomposition_identity(rng) -> DiagnosticResult:
    n = 8
    X = rng.normal(size=(n, 3))
    Z = rng.normal(size=(n, 2))
    exact = True
    for method in METHOD_KINDS:
        # input_affinity consumes its kernel, so each method gets its own.
        problem = CouplingProblem(method, input_affinity(kernel_matrix(X, "gaussian"), method))
        att, rep = problem.attraction_repulsion(Z)
        exact = exact and (att + rep == problem.evaluate(Z).loss)
    return DiagnosticResult("loss-decomposition-identity", exact,
                            "attraction + repulsion reproduces loss bit for bit")


def _gradient_check(rng) -> DiagnosticResult:
    n = 6
    X = rng.normal(size=(n, 3))
    problem = CouplingProblem("tsne", input_affinity(kernel_matrix(X, "gaussian"), "tsne"))
    Z = rng.normal(size=(n, 2))
    g = problem.evaluate(Z).grad
    eps = 1e-6
    worst = 0.0
    for i in range(n):
        for j in range(2):
            Zp = Z.copy(); Zp[i, j] += eps
            Zm = Z.copy(); Zm[i, j] -= eps
            fd = (problem.evaluate(Zp).loss - problem.evaluate(Zm).loss) / (2 * eps)
            worst = max(worst, abs(fd - g[i, j]) / (1.0 + abs(fd)))
    return DiagnosticResult("analytic-gradient", worst <= 1e-5,
                            f"max relative error vs finite differences {worst:.3e}")


def run_diagnostics(seed: int = 0, samples: int = 20000) -> list:
    """Run every self-check; returns a list of :class:`DiagnosticResult`."""
    rng = np.random.default_rng(seed)
    return [
        _trace_identity(rng),
        _shift_invariance(rng),
        _posterior_frequencies(rng, samples),
        _decomposition_identity(rng),
        _gradient_check(rng),
    ]
