"""Connected-component PCA: spectral initialization from posterior graphs.

Latent graphs are drawn from the posterior and each replaces every point
of X by the mean of its connected component.  PCA of the average of
those component-mean matrices then picks up the directions that
separate parts of the data the posterior tends to keep disconnected,
which is what a neighbor embedding needs from its initialization.

That average equals M X for the Monte-Carlo average M of the orthogonal
projectors onto component-wise constant vectors, but each sample costs
O(n p) from its edge list, with no n x n projector.
:func:`averaged_projector` builds M densely and is kept as the oracle
the tests compare :func:`ccpca` against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import (
    cc_projector,
    components_from_edges,
    connected_components,
    split_mean_centered,
)
from .linalg import as_float_matrix
from .posterior import PosteriorSampler, check_prior, sample_posterior_graph
from .spectral import pca


@dataclass(frozen=True)
class CcpcaConfig:
    samples: int = 100
    prior: str = "D"
    q: int = 2
    seed: int = 0

    def validate(self) -> "CcpcaConfig":
        if self.samples < 1:
            raise ParameterError("samples must be at least 1")
        check_prior(self.prior)
        return self

    def sample_rng(self, index: int) -> np.random.Generator:
        """Generator of sample ``index``, seeded with (seed, index).

        Results therefore do not depend on evaluation order, and a future
        parallel version would reproduce them.
        """
        return np.random.default_rng([self.seed, index])


def averaged_projector(K, config: CcpcaConfig = None) -> np.ndarray:
    """Monte-Carlo average of component projectors of posterior graphs.

    The dense oracle of :func:`ccpca`: each sample goes through the
    n x n latent graph and projector.  The average of orthogonal
    projectors is symmetric and doubly stochastic.
    """
    cfg = (config or CcpcaConfig()).validate()
    values = getattr(K, "values", K)
    n = np.asarray(values).shape[0]
    M = np.zeros((n, n), dtype=np.float64)
    for index in range(cfg.samples):
        W = sample_posterior_graph(K, cfg.prior, cfg.sample_rng(index))
        M += cc_projector(connected_components(W))
    M /= float(cfg.samples)
    return M


def ccpca(X, K, config: CcpcaConfig = None) -> np.ndarray:
    """PCA scores of X averaged over the components of posterior graphs.

    Each sample replaces every point by the mean of its component, so
    within-part variation is suppressed before the PCA step (which
    centers its input).  Equals ``pca(averaged_projector(K, config) @ X)``
    up to roundoff.
    """
    cfg = (config or CcpcaConfig()).validate()
    X = as_float_matrix(X, "X")
    sampler = PosteriorSampler(K, cfg.prior)
    X_M = np.zeros_like(X)
    for index in range(cfg.samples):
        edges = sampler.draw(cfg.sample_rng(index))
        partition = components_from_edges(edges.n, edges.rows, edges.cols)
        X_M += split_mean_centered(X, partition)[0]
    X_M /= float(cfg.samples)
    return pca(X_M, cfg.q)
