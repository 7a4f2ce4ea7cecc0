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

:func:`ccpca` has no defaults of its own: ``q``, ``samples``, ``prior``
and ``seed`` are a run's settings, which :class:`pipeline.RunSpec` owns.
"""

import numpy as np

from .errors import ContractViolationError, ParameterError
from .graph import _component_means, components_from_edges
from .linalg import as_float_matrix
from .posterior import PosteriorSampler
from .spectral import pca


def ccpca(X, K, q: int, samples: int, prior: str, seed: int) -> np.ndarray:
    """First q PCA scores of X averaged over the components of ``samples`` posterior graphs.

    Each sample replaces every point by the mean of its component, so
    within-part variation is suppressed before the PCA step (which
    centers its input).  Sample i is drawn under ``prior`` from its own
    generator, ``np.random.default_rng([seed, i])``, so the result does
    not depend on the order of the draws.  Equals ``pca(M @ X, q)`` up
    to roundoff, for the dense averaged projector M of
    ``averaged_projector(K, samples, prior, seed)`` in ``tests/oracles.py``.
    """
    if samples < 1:
        raise ParameterError("samples must be at least 1")
    X = as_float_matrix(X, "X")
    sampler = PosteriorSampler(K, prior)
    if X.shape[0] != sampler.n:
        raise ContractViolationError(f"X has {X.shape[0]} rows but K is {sampler.n}x{sampler.n}")
    X_M = np.zeros_like(X)
    for edges in sampler.draws(np.random.default_rng([seed, index]) for index in range(samples)):
        partition = components_from_edges(edges.n, edges.rows, edges.cols)
        X_M += _component_means(X, partition)
    X_M /= float(samples)
    return pca(X_M, q)
