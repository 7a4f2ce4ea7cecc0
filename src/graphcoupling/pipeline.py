"""End-to-end fitting: affinities, initialization, descent, evaluation.

A run is fully described by a :class:`RunSpec`; every random draw in the
run derives deterministically from its single seed, so repeating a run
reproduces the embedding bit for bit.  Wall-clock timings are the only
manifest fields allowed to differ between repetitions.
"""

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .ccpca import CcpcaConfig, ccpca
from .coupling import DEFAULT_LATENT_KERNEL, CouplingProblem, check_method
from .errors import ParameterError
from .kernels import GAUSSIAN, KernelMatrix, calibrate_bandwidths, kernel_from_sq_dists
from .linalg import as_float_matrix, pairwise_sq_dists
from .optim import MinimizeResult, OptimizerConfig, minimize
from .evaluation import evaluate_embedding
from .posterior import (
    AffinityMatrix,
    posterior_expectation,
    symmetrize_row_affinity,
    umap_threshold_prob,
)
from .spectral import laplacian_eigenmaps, pca

INIT_KINDS = ("random", "pca", "le", "ccpca")

#: Scale of the initial embedding: random coordinates are standard
#: normal times this, spectral initializations are rescaled so their
#: largest coordinate magnitude is this times sqrt(n).
INIT_SCALE = 1e-4


@dataclass(frozen=True)
class RunSpec:
    method: str = "tsne"
    init: str = "pca"
    q: int = 2
    perplexity: float = 30.0
    latent_kernel: Optional[str] = None  # None picks the method default
    classic_scale: bool = False
    ccpca_samples: int = 100
    ccpca_prior: str = "D"
    seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    eval_ks: Optional[tuple] = None      # None evaluates at n//4 and n//2

    def validate(self) -> "RunSpec":
        check_method(self.method)
        if self.init not in INIT_KINDS:
            raise ParameterError(f"unknown init {self.init!r}, expected one of {INIT_KINDS}")
        if self.q < 1:
            raise ParameterError("q must be at least 1")
        return self


@dataclass
class RunResult:
    Z: np.ndarray
    history: np.ndarray
    scores: list
    manifest: dict


def prepare_input(X, method: str, perplexity: float):
    """Input-side affinity for a method, plus the calibrated kernel.

    All methods share one perplexity-calibrated Gaussian kernel; the
    edgewise route reuses those bandwidths rather than calibrating a
    separate connectivity target.
    """
    check_method(method)
    D = pairwise_sq_dists(X)
    tau = calibrate_bandwidths(D, perplexity)
    K = kernel_from_sq_dists(D, GAUSSIAN, tau)
    if method == "sne":
        P = posterior_expectation(K, "D")
    elif method in ("tsne", "largevis"):
        P = symmetrize_row_affinity(posterior_expectation(K, "D"))
    else:
        P = umap_threshold_prob(posterior_expectation(K, "B"))
    return P, K


def rescale_init(Z: np.ndarray, n: int) -> np.ndarray:
    """Shrink a spectral initialization to the optimizer's starting scale."""
    peak = float(np.abs(Z).max()) if Z.size else 0.0
    if peak == 0.0:
        return Z.copy()
    return Z * (INIT_SCALE * np.sqrt(n) / peak)


def initial_embedding(X, spec: RunSpec, affinity: AffinityMatrix,
                      kernel: KernelMatrix):
    """Starting coordinates for a run; (Z0, degenerate-components flag).

    Spectral coordinates come at their natural scale; :func:`run`
    shrinks them with :func:`rescale_init`.
    """
    X = as_float_matrix(X, "X")
    n = X.shape[0]
    state = np.random.SeedSequence(spec.seed).generate_state(2)
    if spec.init == "random":
        rng = np.random.default_rng(int(state[0]))
        return INIT_SCALE * rng.standard_normal((n, spec.q)), False
    if spec.init == "pca":
        return pca(X, spec.q), False
    if spec.init == "le":
        result = laplacian_eigenmaps(affinity, spec.q)
        return result.coords, result.degenerate
    cfg = CcpcaConfig(samples=spec.ccpca_samples, prior=spec.ccpca_prior,
                      q=spec.q, seed=int(state[1]))
    return ccpca(X, kernel, cfg), False


def default_eval_ks(n: int) -> tuple:
    ks = sorted({max(1, min(n - 2, n // 4)), max(1, min(n - 2, n // 2))})
    return tuple(ks)


def run(X, spec: RunSpec = None) -> RunResult:
    """Execute a full run and collect its manifest."""
    spec = (spec or RunSpec()).validate()
    X = as_float_matrix(X, "X")
    n, p = X.shape
    total0 = time.perf_counter()

    t0 = time.perf_counter()
    affinity, kernel = prepare_input(X, spec.method, spec.perplexity)
    prepare_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    Z0, degenerate = initial_embedding(X, spec, affinity, kernel)
    if spec.init != "random":
        Z0 = rescale_init(Z0, n)
    init_s = time.perf_counter() - t0

    latent_kernel = spec.latent_kernel or DEFAULT_LATENT_KERNEL[spec.method]
    problem = CouplingProblem(spec.method, affinity, latent_kernel,
                              classic_scale=spec.classic_scale)
    opt = spec.optimizer
    if opt.early_exaggeration is None:
        opt = replace(opt, early_exaggeration=(spec.method == "tsne"))

    t0 = time.perf_counter()
    result: MinimizeResult = minimize(problem, Z0, opt)
    optimize_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    ks = spec.eval_ks or default_eval_ks(n)
    scores = evaluate_embedding(X, result.Z, ks)
    evaluate_s = time.perf_counter() - t0

    manifest = {
        "run": {
            "method": spec.method,
            "init": spec.init,
            "q": spec.q,
            "perplexity": float(spec.perplexity),
            "latent_kernel": latent_kernel,
            "classic_scale": bool(spec.classic_scale),
            "seed": int(spec.seed),
            "ccpca": {"samples": int(spec.ccpca_samples),
                      "prior": spec.ccpca_prior},
            "optimizer": {
                "iterations": int(opt.iterations),
                "learning_rate": float(opt.learning_rate),
                "momentum_early": float(opt.momentum_early),
                "momentum_late": float(opt.momentum_late),
                "momentum_switch": int(opt.momentum_switch),
                "early_exaggeration": bool(opt.early_exaggeration),
                "exaggeration_factor": float(opt.exaggeration_factor),
                "exaggeration_iters": int(opt.exaggeration_iters),
            },
        },
        "input": {"rows": int(n), "cols": int(p)},
        "results": {
            "initial_loss": float(result.history[0]) if result.history.size else None,
            "final_loss": float(result.loss),
            "iterations_run": int(result.history.size),
            "init_degenerate": bool(degenerate),
            "scores": [{"k": s.k, "q": s.q, "r": s.r} for s in scores],
        },
        "timings": {
            "prepare_s": prepare_s,
            "init_s": init_s,
            "optimize_s": optimize_s,
            "evaluate_s": evaluate_s,
            "total_s": time.perf_counter() - total0,
        },
        "artifacts": {},
    }
    return RunResult(result.Z, result.history, scores, manifest)
