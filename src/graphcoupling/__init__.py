"""Probabilistic graph-coupling embeddings.

Observed data and a low-dimensional embedding are coupled through
posterior distributions over latent neighborhood graphs; matching the
two graph posteriors in cross entropy recovers the classical neighbor
embedding objectives (SNE, t-SNE, LargeVis, UMAP) as special cases and
gives the toolkit its spectral initializations and evaluation metric.
"""

from .errors import (
    ContractViolationError,
    DataError,
    DegenerateRowError,
    DivergenceError,
    GraphCouplingError,
    NumericalError,
    ParameterError,
)
from .linalg import center_columns, leading_signs, pairwise_sq_dists
from .kernels import (
    GAUSSIAN,
    STUDENT,
    KernelMatrix,
    calibrated_kernel,
    log_kernel,
)
from .graph import (
    EdgeList,
    Partition,
    components_from_edges,
    laplacian,
    log_mrf_density,
    validate_latent_graph,
    weighted_laplacian,
)
from .posterior import AffinityMatrix, PosteriorSampler
from .coupling import (
    LARGEVIS,
    METHOD_KINDS,
    SNE,
    TSNE,
    UMAP,
    CouplingProblem,
)
from .optim import Evaluation, MinimizeResult, OptimizerConfig, minimize
from .spectral import EigenmapsResult, laplacian_eigenmaps, pca
from .ccpca import ccpca
from .evaluation import NeighborhoodScore, evaluate_embedding
from .pipeline import RunResult, RunSpec, initial_embedding, prepare_input, run
from .dataio import Dataset, load_csv, load_embedding, save_embedding
from .svgplot import render_svg_scatter

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix", "ContractViolationError",
    "CouplingProblem", "DataError", "Dataset", "DegenerateRowError",
    "DivergenceError", "EdgeList", "EigenmapsResult", "Evaluation", "GAUSSIAN",
    "GraphCouplingError", "KernelMatrix", "LARGEVIS", "METHOD_KINDS", "MinimizeResult",
    "NeighborhoodScore", "NumericalError", "OptimizerConfig",
    "ParameterError", "Partition", "PosteriorSampler", "RunResult",
    "RunSpec", "SNE", "STUDENT", "TSNE", "UMAP",
    "calibrated_kernel", "ccpca", "center_columns", "components_from_edges",
    "evaluate_embedding", "initial_embedding", "laplacian",
    "laplacian_eigenmaps", "leading_signs", "load_csv",
    "load_embedding", "log_kernel", "log_mrf_density", "minimize",
    "pairwise_sq_dists", "pca",
    "prepare_input", "render_svg_scatter",
    "run", "save_embedding",
    "validate_latent_graph", "weighted_laplacian",
]
