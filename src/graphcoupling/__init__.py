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
from .linalg import SymEigResult, center_columns, leading_signs, pairwise_sq_dists, sym_eig
from .kernels import (
    GAUSSIAN,
    STUDENT,
    KernelMatrix,
    calibrated_kernel,
    kernel_matrix,
    log_kernel,
)
from .graph import (
    EdgeList,
    Partition,
    components_from_edges,
    connected_components,
    laplacian,
    log_mrf_density,
    split_mean_centered,
    validate_latent_graph,
    weighted_laplacian,
)
from .posterior import AffinityMatrix, PosteriorSampler, posterior_expectation
from .coupling import (
    LARGEVIS,
    METHOD_KINDS,
    SNE,
    TSNE,
    UMAP,
    CouplingProblem,
)
from .optim import Evaluation, MinimizeResult, OptimizerConfig, minimize
from .spectral import (
    EigenmapsResult,
    PrecisionCouplingProblem,
    laplacian_eigenmaps,
    pca,
    precision_coupling_closed_form,
)
from .ccpca import CcpcaConfig, ccpca
from .evaluation import NeighborhoodScore, evaluate_embedding
from .pipeline import RunResult, RunSpec, initial_embedding, prepare_input, run
from .dataio import Dataset, load_csv, load_embedding, save_embedding
from .svgplot import render_svg_scatter

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix", "CcpcaConfig", "ContractViolationError",
    "CouplingProblem", "DataError", "Dataset", "DegenerateRowError",
    "DivergenceError", "EdgeList", "EigenmapsResult", "Evaluation", "GAUSSIAN",
    "GraphCouplingError", "KernelMatrix", "LARGEVIS", "METHOD_KINDS", "MinimizeResult",
    "NeighborhoodScore", "NumericalError", "OptimizerConfig",
    "ParameterError", "Partition", "PosteriorSampler", "PrecisionCouplingProblem",
    "RunResult",
    "RunSpec", "SNE", "STUDENT", "SymEigResult", "TSNE", "UMAP",
    "calibrated_kernel", "ccpca", "center_columns", "components_from_edges",
    "connected_components", "evaluate_embedding",
    "initial_embedding", "kernel_matrix", "laplacian",
    "laplacian_eigenmaps", "leading_signs", "load_csv",
    "load_embedding", "log_kernel", "log_mrf_density", "minimize",
    "pairwise_sq_dists", "pca", "posterior_expectation",
    "precision_coupling_closed_form", "prepare_input", "render_svg_scatter",
    "run", "save_embedding", "split_mean_centered", "sym_eig",
    "validate_latent_graph", "weighted_laplacian",
]
