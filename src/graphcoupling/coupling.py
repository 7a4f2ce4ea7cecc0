"""Cross-entropy couplings between input affinities and a latent embedding.

Each method couples a fixed input-side affinity P with the latent
affinity induced by an embedding Z through a Bernoulli or multinomial
cross entropy.  With the right input normalization these reproduce the
classical neighbor-embedding objectives:

``sne``       row-normalized P against row-normalized latent Q
``tsne``      symmetrized P + P^T against globally normalized latent Q
``largevis``  symmetrized P + P^T against edgewise K / (1 + K)
``umap``      thresholded-OR probabilities against edgewise K / (1 + K)

The symmetrized input is used with its natural total mass 2n; pass
``classic_scale=True`` to divide it by 2n for parity with common t-SNE
implementations (this rescales the attraction term, not the minimizers).

Early exaggeration by a factor alpha reweights the input affinity's
terms and is a scalar argument of :meth:`CouplingProblem.evaluate`, not
a second problem.  For ``sne`` and ``tsne`` it scales attraction and the
normalizer weight alike, so the exaggerated objective and gradient are
exactly alpha times the plain ones: early exaggeration acts as a larger
step size.  For ``largevis`` and ``umap`` it scales attraction only.

Losses are reported in nats.  A loss of +inf is a sentinel for an
embedding that the method cannot score (collapsed latent mass), not an
error; its gradient is None.
"""

import math

import numpy as np

from .errors import ContractViolationError, ParameterError
from .kernels import GAUSSIAN, STUDENT, check_kind, log_kernel
from .linalg import as_float_matrix, pairwise_sq_dists
from .optim import Evaluation
from .posterior import (
    ROW,
    SYMMETRIZED_ROW,
    THRESHOLDED_BERNOULLI,
    AffinityMatrix,
)

SNE = "sne"
TSNE = "tsne"
LARGEVIS = "largevis"
UMAP = "umap"
METHOD_KINDS = (SNE, TSNE, LARGEVIS, UMAP)

#: Input normalization each method requires.
REQUIRED_NORMALIZATION = {
    SNE: ROW,
    TSNE: SYMMETRIZED_ROW,
    LARGEVIS: SYMMETRIZED_ROW,
    UMAP: THRESHOLDED_BERNOULLI,
}

#: Latent kernel used when the caller does not pick one.
DEFAULT_LATENT_KERNEL = {
    SNE: GAUSSIAN,
    TSNE: STUDENT,
    LARGEVIS: STUDENT,
    UMAP: STUDENT,
}


def check_method(method: str) -> str:
    if method not in METHOD_KINDS:
        raise ParameterError(f"unknown method {method!r}, expected one of {METHOD_KINDS}")
    return method


class CouplingProblem:
    """A method, its input affinity, and the latent kernel to couple with."""

    def __init__(self, method: str, affinity: AffinityMatrix, latent_kernel: str = None,
                 classic_scale: bool = False):
        check_method(method)
        required = REQUIRED_NORMALIZATION[method]
        if affinity.normalization != required:
            raise ContractViolationError(
                f"method {method!r} needs a {required!r} affinity, "
                f"got {affinity.normalization!r}")
        P = as_float_matrix(affinity.values, "affinity")
        n, m = P.shape
        if n != m:
            raise ContractViolationError(f"affinity must be square, got {P.shape}")
        if n and (np.diag(P) != 0.0).any():
            raise ContractViolationError("affinity diagonal must be zero")
        if n and float(P.min()) < 0.0:
            raise ContractViolationError("affinity entries must be nonnegative")
        if (affinity.normalization == THRESHOLDED_BERNOULLI and n
                and float(P.max()) > 1.0):
            raise ContractViolationError(
                "thresholded-bernoulli affinity entries must lie in [0, 1]")
        if classic_scale:
            if affinity.normalization != SYMMETRIZED_ROW:
                raise ParameterError(
                    "classic_scale only applies to symmetrized-row affinities")
            P = P / (2.0 * n)
        self.method = method
        self.P = P
        self.latent_kernel = check_kind(latent_kernel or DEFAULT_LATENT_KERNEL[method])
        # For the symmetrized methods each undirected edge carries half of
        # P + P^T per direction.
        self._edge_scale = 0.5 if method in (TSNE, LARGEVIS) else 1.0

    @property
    def n(self) -> int:
        return self.P.shape[0]

    def expected_graph(self) -> np.ndarray:
        """Mean latent graph the coupling pulls toward; drives attraction."""
        return self.P * self._edge_scale

    def _check_z(self, Z) -> np.ndarray:
        Z = as_float_matrix(Z, "Z")
        if Z.shape[0] != self.n:
            raise ContractViolationError(
                f"Z has {Z.shape[0]} rows but the affinity is {self.n}x{self.n}")
        return Z

    def _pass(self, Z, exaggeration: float):
        """(attraction, repulsion, objective, gradient) from one pass over D.

        The split is of the plain loss; the objective and its gradient
        (None if infinite) are at ``exaggeration``.  The chain factor
        G = dObjective/dD folds in the kernel derivative: -K^2 per unit
        of squared distance for the Student kernel, -K/2 for the Gaussian.
        """
        if not (math.isfinite(exaggeration) and exaggeration > 0.0):
            raise ParameterError(f"exaggeration must be positive, got {exaggeration}")
        Z = self._check_z(Z)
        D = pairwise_sq_dists(Z)
        if not np.isfinite(D).all():
            # Squared distances overflowed; the configuration is out of
            # range, not invalid, so score it with the infinite sentinel.
            return math.inf, math.inf, math.inf, None
        # Each n x n temporary is dropped once used, so at most three are
        # alive at a time.
        logK = log_kernel(D, self.latent_kernel)
        del D
        attraction = float(-(self.P * logK).sum()) * self._edge_scale
        np.fill_diagonal(logK, -np.inf)  # self-pairs carry no latent mass
        normalized = self.method in (SNE, TSNE)
        if normalized:
            axis = 1 if self.method == SNE else None
            peak = logK.max(axis=axis, keepdims=True)
            if not np.isfinite(peak).all():
                return attraction, math.inf, math.inf, None
            # Largest entry 1 per normalizer, so this cannot overflow even
            # when the normalizer itself underflows.
            R = np.exp(logK - peak)
            total = R.sum(axis=axis, keepdims=True)
            weight = self.P.sum(axis=axis, keepdims=True) * self._edge_scale
            repulsion = float((weight * (peak + np.log(total))).sum())
            R *= weight * (exaggeration / total)
            K = np.exp(logK, out=logK) if self.latent_kernel == STUDENT else None
        else:
            # Both edgewise methods reduce to the same ordered-pair form:
            # the (1 - P)-weighted and P-weighted log(1 + K) terms merge.
            K = np.exp(logK, out=logK)
            repulsion = float(np.log1p(K).sum())
            R = 1.0 + K
            np.divide(K, R, out=R)
        del logK
        if not math.isfinite(repulsion):
            return attraction, math.inf, math.inf, None
        objective = exaggeration * attraction + (
            exaggeration * repulsion if normalized else repulsion)
        # R now holds the latent expected graph the repulsion pushes toward.
        G = self.P * (exaggeration * self._edge_scale)
        G -= R
        del R
        if self.latent_kernel == GAUSSIAN:
            G *= 0.5
        else:
            G *= K
        del K
        F = G + G.T
        del G
        grad = 2.0 * (F.sum(axis=1)[:, None] * Z - F @ Z)
        return attraction, repulsion, objective, grad

    def evaluate(self, Z, exaggeration: float = 1.0) -> Evaluation:
        """Loss, objective at ``exaggeration`` and its gradient, in one pass."""
        attraction, repulsion, objective, grad = self._pass(Z, exaggeration)
        return Evaluation(attraction + repulsion, objective, grad)

    def loss(self, Z) -> float:
        """Cross-entropy loss of the embedding, +inf if unscorable."""
        return self.evaluate(Z).loss

    def attraction_repulsion(self, Z):
        """Split of the loss into attraction and repulsion.

        Attraction is the expected-graph weighted sum of -log latent
        kernel values; repulsion is everything else.  The two terms are
        the exact float summands of :meth:`loss`, so their sum
        reproduces it bit for bit.
        """
        return self._pass(Z, 1.0)[:2]

    def grad(self, Z) -> np.ndarray:
        """Gradient of the loss with respect to Z; None if the loss is infinite."""
        return self.evaluate(Z).grad
