"""Connected-component PCA: spectral initialization from posterior graphs.

Latent graphs are drawn from the posterior and each replaces every point
of X by the mean of its connected component.  PCA of the average of
those component-mean matrices then picks up the directions that
separate parts of the data the posterior tends to keep disconnected,
which is what a neighbor embedding needs from its initialization.

That average equals M X for the Monte-Carlo average M of the orthogonal
projectors onto component-wise constant vectors, but each sample costs
O(n p) from its edge list, with no n x n projector.  All samples come
from one :meth:`posterior.PosteriorSampler.draws` call, a single walk
over the kernel's row blocks that forms no n x n array for any prior.
``tests/oracles.py`` builds M densely (``averaged_projector``), the
oracle the tests compare :func:`ccpca` against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError
from .graph import _component_means, components_from_edges
from .linalg import as_float_matrix
from .posterior import PosteriorSampler, check_prior
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


def ccpca(X, K, config: CcpcaConfig = None) -> np.ndarray:
    """PCA scores of X averaged over the components of posterior graphs.

    Each sample replaces every point by the mean of its component, so
    within-part variation is suppressed before the PCA step (which
    centers its input).  Equals ``pca(M @ X)`` up to roundoff, for the
    dense averaged projector M of ``averaged_projector(K, config)`` in
    ``tests/oracles.py``.
    """
    cfg = (config or CcpcaConfig()).validate()
    X = as_float_matrix(X, "X")
    sampler = PosteriorSampler(K, cfg.prior)
    if X.shape[0] != sampler.n:
        raise ContractViolationError(f"X has {X.shape[0]} rows but K is {sampler.n}x{sampler.n}")
    X_M = np.zeros_like(X)
    for edges in sampler.draws(cfg.sample_rng(index) for index in range(cfg.samples)):
        partition = components_from_edges(edges.n, edges.rows, edges.cols)
        X_M += _component_means(X, partition)
    X_M /= float(cfg.samples)
    return pca(X_M, cfg.q)
