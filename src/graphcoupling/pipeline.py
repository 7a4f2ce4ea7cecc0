"""End-to-end fitting: affinities, initialization, descent, evaluation.

A run is fully described by a :class:`RunSpec`; every random draw in the
run derives deterministically from its single seed, so repeating a run
reproduces the embedding bit for bit, at any number of cores and any
BLAS thread count: :func:`run` holds OpenBLAS at one thread, and the
calibration, coupling and scoring walks run their blocks on the usable
cores with results independent of their number.  Wall-clock timings are
the only manifest fields allowed to differ between repetitions.

The input side is one n x n buffer that :func:`run` and ``init`` read in
one order: calibrate the kernel K, let ccPCA draw from K, write the
affinity P over K, let eigenmaps read P.  The data's distances are
formed once, by calibration, which also selects from them the data's
neighbor sets for R(K); they stay, packed at n^2 / 8 bytes per K,
after the buffer is gone, and scoring forms only the embedding's
distances.
"""

import time
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .ccpca import ccpca
from .coupling import CouplingProblem, check_method, input_affinity
from .errors import ParameterError
from .kernels import (MAX_ENTROPY_EVALS, KernelMatrix, calibrated_kernel, check_kind,
                      check_perplexity)
from .linalg import as_float_matrix, single_blas_thread
from .optim import MinimizeResult, OptimizerConfig, minimize
from .evaluation import check_ks, evaluate_embedding
from .posterior import check_prior
from .spectral import check_pca_q, laplacian_eigenmaps, pca

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
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ParameterError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.ccpca_samples < 1:
            raise ParameterError("ccpca samples must be at least 1")
        check_prior(self.ccpca_prior)
        if self.latent_kernel is not None:
            check_kind(self.latent_kernel)
        self.optimizer.validate()
        return self

    def check_data(self, n: int, p: int, fitting: bool = True) -> None:
        """Raise :class:`ParameterError` if n x p data cannot take this run.

        Checks what the data's shape decides, before any work: the
        perplexity if :func:`prepare_input` calibrates at the same
        ``fitting``, and q for a pca or ccpca init, both PCA of n x p data.
        """
        if _calibrates(self, fitting):
            check_perplexity(self.perplexity, n)
        if self.init in ("pca", "ccpca"):
            check_pca_q(self.q, n, p)


@dataclass
class RunResult:
    Z: np.ndarray
    history: np.ndarray
    scores: list
    manifest: dict


def prepare_input(X, spec: RunSpec, fitting: bool = True, ks=()) -> Optional[KernelMatrix]:
    """A run's calibrated kernel; None if neither a fit (``fitting``) nor the init reads it.

    Every method shares this kernel: the edgewise route reuses its
    bandwidths rather than calibrating a separate connectivity target.
    It also carries X's neighbor sets at ``ks``, which scoring reads.
    """
    if _calibrates(spec, fitting):
        return calibrated_kernel(X, spec.perplexity, ks)
    return None


def _calibrates(spec: RunSpec, fitting: bool) -> bool:
    return fitting or spec.init in ("le", "ccpca")


def rescale_init(Z: np.ndarray, n: int) -> np.ndarray:
    """Shrink a spectral initialization to the optimizer's starting scale."""
    peak = float(np.abs(Z).max()) if Z.size else 0.0
    if peak == 0.0:
        return Z.copy()
    return Z * (INIT_SCALE * np.sqrt(n) / peak)


def initial_embedding(X, spec: RunSpec, kernel: Optional[KernelMatrix],
                      fitting: bool = True):
    """(Z0, degenerate, affinity): starting coordinates, and P written over ``kernel``.

    ``kernel`` is :func:`prepare_input`'s at the same ``fitting``: ccPCA
    draws from it, then the affinity P is written over it if a fit or
    eigenmaps reads P (else ``affinity`` is None), then eigenmaps reads
    P.  Spectral coordinates come at their natural scale; :func:`run`
    shrinks them with :func:`rescale_init`.
    """
    X = as_float_matrix(X, "X")
    state = np.random.SeedSequence(spec.seed).generate_state(2)
    if spec.init == "random":
        rng = np.random.default_rng(int(state[0]))
        Z = INIT_SCALE * rng.standard_normal((X.shape[0], spec.q))
    elif spec.init == "pca":
        Z = pca(X, spec.q)
    elif spec.init == "ccpca":
        Z = ccpca(X, kernel, spec.q, spec.ccpca_samples, spec.ccpca_prior, int(state[1]))
    affinity = input_affinity(kernel, spec.method) if fitting or spec.init == "le" else None
    if spec.init == "le":
        result = laplacian_eigenmaps(affinity, spec.q)
        return result.coords, result.degenerate, affinity
    return Z, False, affinity


def default_eval_ks(n: int) -> tuple:
    """K = n // 4 and n // 2, clipped to [1, n - 2]; none when n < 3, where no K is valid."""
    if n < 3:
        return ()
    ks = sorted({max(1, min(n - 2, n // 4)), max(1, min(n - 2, n // 2))})
    return tuple(ks)


def _settings_record(settings, **resolved) -> dict:
    """Dataclass ``settings``' fields, each cast to its declared type or read from ``resolved``.

    ``resolved`` holds the Optional and dataclass fields, whose values the run works out.
    """
    return {f.name: resolved[f.name] if f.name in resolved else f.type(getattr(settings, f.name))
            for f in fields(settings)}


@single_blas_thread()
def run(X, spec: RunSpec = None) -> RunResult:
    """Execute a full run and collect its manifest.

    The run holds OpenBLAS at one thread (:func:`linalg.single_blas_thread`)
    from start to end: its block walks use the cores, and no BLAS worker
    is left spinning against them between walks.  So Laplacian eigenmaps'
    dense eigensolver runs on one thread, and its result no longer
    depends on the BLAS thread count.

    The manifest's ``run`` block holds every field of ``spec`` and its
    optimizer cast to its declared type, ``latent_kernel``,
    ``early_exaggeration`` and ``eval_ks`` as the run resolved them, and
    ``ccpca_samples`` and ``ccpca_prior`` under ``ccpca`` as ``samples``
    and ``prior``.
    """
    spec = (spec or RunSpec()).validate()
    X = as_float_matrix(X, "X")
    n, p = X.shape
    spec.check_data(n, p)
    ks = check_ks(spec.eval_ks or default_eval_ks(n), n)
    total0 = time.perf_counter()

    t0 = time.perf_counter()
    kernel = prepare_input(X, spec, True, ks)
    prepare_s = time.perf_counter() - t0
    evaluations, x_neighbors = kernel.evaluations, kernel.neighbors

    t0 = time.perf_counter()
    Z0, degenerate, affinity = initial_embedding(X, spec, kernel)
    if spec.init != "random":
        Z0 = rescale_init(Z0, n)
    init_s = time.perf_counter() - t0

    problem = CouplingProblem(spec.method, affinity, spec.latent_kernel,
                              classic_scale=spec.classic_scale)
    del kernel, affinity  # P's buffer is the problem's alone now
    opt = spec.optimizer
    if opt.early_exaggeration is None:
        opt = replace(opt, early_exaggeration=(spec.method == "tsne"))

    t0 = time.perf_counter()
    result: MinimizeResult = minimize(problem, Z0, opt)
    optimize_s = time.perf_counter() - t0
    # Free the n x n input side before scoring.
    latent_kernel = problem.latent_kernel
    del problem

    t0 = time.perf_counter()
    scores = evaluate_embedding(X, result.Z, ks, x_neighbors)
    evaluate_s = time.perf_counter() - t0

    optimizer = _settings_record(opt, early_exaggeration=bool(opt.early_exaggeration))
    record = _settings_record(spec, latent_kernel=latent_kernel, optimizer=optimizer, eval_ks=ks)
    record["ccpca"] = {"samples": record.pop("ccpca_samples"),
                       "prior": record.pop("ccpca_prior")}
    manifest = {
        "run": record,
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
