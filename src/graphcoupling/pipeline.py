"""End-to-end fitting: affinities, initialization, descent, evaluation.

A run is fully described by a :class:`RunSpec`; every random draw in the
run derives deterministically from its single seed, so repeating a run
reproduces the embedding bit for bit, at any number of cores and any
BLAS thread count: :func:`run` holds OpenBLAS at one thread, and the
calibration, coupling and scoring walks run their blocks on the usable
cores with results independent of their number.  Wall-clock timings are
the only manifest fields allowed to differ between repetitions.
"""

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .ccpca import CcpcaConfig, ccpca
from .coupling import CouplingProblem, check_method, input_affinity
from .errors import ParameterError
from .kernels import MAX_ENTROPY_EVALS, KernelMatrix, calibrated_kernel, check_kind
from .linalg import as_float_matrix, single_blas_thread
from .optim import MinimizeResult, OptimizerConfig, minimize
from .evaluation import check_ks, evaluate_embedding
from .posterior import AffinityMatrix, check_prior
from .spectral import laplacian_eigenmaps, pca

#: Initializations computed from the data alone; ``init`` writes any of them.
SPECTRAL_INIT_KINDS = ("pca", "le", "ccpca")
INIT_KINDS = ("random",) + SPECTRAL_INIT_KINDS

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
        if self.ccpca_samples < 1:
            raise ParameterError("ccpca samples must be at least 1")
        check_prior(self.ccpca_prior)
        if self.latent_kernel is not None:
            check_kind(self.latent_kernel)
        self.optimizer.validate()
        return self


@dataclass
class RunResult:
    Z: np.ndarray
    history: np.ndarray
    scores: list
    manifest: dict


def prepare_input(X, method: str, perplexity: float):
    """Input-side affinity for a method, plus the calibrated kernel.

    All methods share one kernel from :func:`kernels.calibrated_kernel`;
    the edgewise route reuses its bandwidths rather than calibrating a
    separate connectivity target.  :func:`coupling.input_affinity` turns
    it into the method's affinity.
    """
    check_method(method)
    K = calibrated_kernel(X, perplexity)
    return input_affinity(K, method), K


def initial_inputs(X, spec: RunSpec, fitting: bool = True):
    """(affinity, kernel, evaluations) for a run, each None where nothing reads it.

    Eigenmaps reads the affinity, ccPCA the kernel, and random and PCA X
    alone; a fit's coupling (``fitting``) reads the affinity too.
    ``evaluations`` holds each row's entropy evaluations in calibration,
    None when no kernel was calibrated.
    """
    if fitting or spec.init == "le":
        affinity, kernel = prepare_input(X, spec.method, spec.perplexity)
        return affinity, (kernel if spec.init == "ccpca" else None), kernel.evaluations
    if spec.init == "ccpca":
        kernel = calibrated_kernel(X, spec.perplexity)
        return None, kernel, kernel.evaluations
    return None, None, None


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
    """K = n // 4 and n // 2, clipped to [1, n - 2]; none when n < 3, where no K is valid."""
    if n < 3:
        return ()
    ks = sorted({max(1, min(n - 2, n // 4)), max(1, min(n - 2, n // 2))})
    return tuple(ks)


@single_blas_thread()
def run(X, spec: RunSpec = None) -> RunResult:
    """Execute a full run and collect its manifest.

    The run holds OpenBLAS at one thread (:func:`linalg.single_blas_thread`)
    from start to end: its block walks use the cores, and no BLAS worker
    is left spinning against them between walks.  So Laplacian eigenmaps'
    dense eigensolver runs on one thread, and its result no longer
    depends on the BLAS thread count.
    """
    spec = (spec or RunSpec()).validate()
    X = as_float_matrix(X, "X")
    n, p = X.shape
    ks = check_ks(spec.eval_ks or default_eval_ks(n), n)
    total0 = time.perf_counter()

    t0 = time.perf_counter()
    affinity, kernel, evaluations = initial_inputs(X, spec)
    prepare_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    Z0, degenerate = initial_embedding(X, spec, affinity, kernel)
    del kernel
    if spec.init != "random":
        Z0 = rescale_init(Z0, n)
    init_s = time.perf_counter() - t0

    problem = CouplingProblem(spec.method, affinity, spec.latent_kernel,
                              classic_scale=spec.classic_scale)
    opt = spec.optimizer
    if opt.early_exaggeration is None:
        opt = replace(opt, early_exaggeration=(spec.method == "tsne"))

    t0 = time.perf_counter()
    result: MinimizeResult = minimize(problem, Z0, opt)
    optimize_s = time.perf_counter() - t0
    # Free the n x n input side before scoring.
    latent_kernel = problem.latent_kernel
    del problem, affinity

    t0 = time.perf_counter()
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
        "input": {
            "rows": int(n),
            "cols": int(p),
            "calibration": {
                "evaluations": int(evaluations.sum()),
                "capped_rows": int((evaluations == MAX_ENTROPY_EVALS).sum()),
            },
        },
        "results": {
            "initial_loss": float(result.history[0]) if result.history.size else None,
            "final_loss": float(result.loss),
            "best_iteration": int(result.best_iteration),
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
