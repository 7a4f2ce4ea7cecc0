"""Cross-entropy couplings between input affinities and a latent embedding.

Each method couples a fixed input-side affinity P with the latent
affinity induced by an embedding Z through a Bernoulli or multinomial
cross entropy.  With the right input normalization these reproduce the
classical neighbor-embedding objectives:

``sne``       D-prior (row) posterior P against row-normalized latent Q
``tsne``      symmetrized D-prior P + P^T against globally normalized latent Q
``largevis``  symmetrized D-prior P + P^T against edgewise K / (1 + K)
``umap``      OR of B-prior edge probabilities against edgewise K / (1 + K)

:func:`input_affinity` writes each P over the data kernel, which it
consumes, so ccPCA's draws read K before it.  The symmetrized input is
used with its natural total mass 2n; pass ``classic_scale=True`` to
divide it by 2n for parity with common t-SNE implementations.  For
``tsne`` this scales the loss and its gradient by exactly 1/(2n): the
minimizers stay, but a fixed learning rate takes 2n times smaller
steps.  For ``largevis`` it shrinks attraction only, which moves the
minimizers.

Early exaggeration by a factor alpha reweights the input affinity's
terms and is a scalar argument of :meth:`CouplingProblem.evaluate`, not
a second problem.  For ``sne`` and ``tsne`` it scales attraction and the
normalizer weight alike, so the exaggerated objective and gradient are
exactly alpha times the plain ones: early exaggeration acts as a larger
step size.  For ``largevis`` and ``umap`` it scales attraction only.

Each loss splits into attraction, -sum P_ij log K_ij over the input
graph, and repulsion, which reads P only through its prior: the row sums
for ``sne``, the total mass for ``tsne``, and nothing for ``largevis``
and ``umap``.  One pass over tiles of the embedding's pairs computes
both with their gradient; no n x n array is formed.  For ``tsne``,
``largevis`` and ``umap`` the input P (required exactly symmetric) and
the latent kernel are symmetric, so the pass visits each unordered pair
once, in the upper triangle, and doubles the sums.  ``sne`` normalizes
each row, so its tiles are whole rows.  The tiles run on the usable
cores through :func:`linalg.map_blocks`, each in its worker's reused
buffers, and their terms are added up in tile order, so the loss and the
gradient are the same bits at any core count.

sne's row normalizers and the Gaussian-latent tsne normalizer sum
exp(log K - peak), and each such sum holds the peak's own term, 1.  Their
exp floors its argument at :data:`kernels.EXP_FLOOR`: numpy's vector exp
is ten to fifty times slower past about -708, where the far pairs of a
spread embedding sit, and a floored term's e^-700 cannot move a sum of
at least 1 by a bit, nor the gradient sums it joins.  The masked pairs
are set back to 0 after the exp.  The edgewise K of largevis and umap is
read cell by cell, so its exp stays exact.

Losses are reported in nats.  A loss of +inf is a sentinel for an
embedding that the method cannot score (collapsed latent mass), not an
error; its gradient is None.
"""

import math
import threading

import numpy as np

from .errors import ContractViolationError, ParameterError
from .kernels import EXP_FLOOR, GAUSSIAN, STUDENT, check_kind
# The tiles take their distances from the private _sq_dists, since they run
# on worker threads.  pairwise_sq_dists keeps its name here for tools that
# patch the package's functions where they are imported; the benchmark's
# self-test checks that its tracer patches it in this module.
from .linalg import _asymmetry, _sq_dists, _workers, as_float_matrix, map_blocks, row_blocks
from .linalg import pairwise_sq_dists  # noqa: F401
from .optim import Evaluation
from .posterior import (
    ROW,
    SYMMETRIZED_ROW,
    THRESHOLDED_BERNOULLI,
    AffinityMatrix,
    _checked_kernel,
    _expectation_in_place,
    symmetrized_in_place,
)

SNE = "sne"
TSNE = "tsne"
LARGEVIS = "largevis"
UMAP = "umap"
METHOD_KINDS = (SNE, TSNE, LARGEVIS, UMAP)

#: Input normalization each method requires, checked by :class:`CouplingProblem`.
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


def input_affinity(K, method: str) -> AffinityMatrix:
    """The input affinity P of a method, written over the data kernel K.

    K is consumed: P's values are K's buffer, which holds the posterior
    expectation, symmetrized for every method but sne.  A kernel that
    the posterior rejects raises before K is written.
    """
    check_method(method)
    P = _expectation_in_place(_checked_kernel(K), "B" if method == UMAP else "D")
    return P if method == SNE else symmetrized_in_place(P)


def _normalizer_terms(logK, top, out, square, masked):
    """exp(log K - top) in ``out``, with the tile's masked pairs 0.

    The terms feed a normalizer that holds the peak's own term, 1, so the
    exp's argument is floored at :data:`kernels.EXP_FLOOR`; the floor
    would give a masked pair (log K = -inf) e^-700, so it is set back to 0.
    """
    np.exp(np.maximum(np.subtract(logK, top, out=out), EXP_FLOOR, out=out), out=out)
    np.copyto(out[:, square], 0.0, where=masked)
    return out


def _pair_shares(G, Z, rows, cols):
    """The gradient shares of the pair weights G of the tile ``rows`` x ``cols``.

    Row i of the tile gets sum_j G_ij (z_i - z_j); every column j gets
    sum_i G_ij (z_j - z_i), its share as the other end of each pair.
    """
    return (G.sum(axis=1)[:, None] * Z[rows] - G @ Z[cols],
            G.sum(axis=0)[:, None] * Z[cols] - G.T @ Z[rows])


class _OutOfRange(Exception):
    """A tile's squared distances overflowed."""


class _Scratch(threading.local):
    """Each thread's three float buffers, reused across the tiles it runs.

    The calling thread allocates one set per worker of the walk, ``pool``,
    and each thread takes one on first use: a walk runs on its calling
    thread and at most ``workers - 1`` threads of :func:`linalg.map_blocks`'
    pool.  The sets are the pass's and are freed with it; buffers that
    the pool threads allocated themselves would sit in their own
    allocator arenas and add to the process's resident memory.
    """

    def __init__(self, pool):
        self.buffers = pool.pop()

    def take(self, slot: int, shape) -> np.ndarray:
        return self.buffers[slot][:shape[0] * shape[1]].reshape(shape)


def _check_symmetric(P) -> None:
    """Raise unless P equals its transpose exactly; forms no n x n temporary."""
    if _asymmetry(P) != 0.0:
        raise ContractViolationError(
            "a symmetrized-row or thresholded-bernoulli affinity must be "
            "exactly symmetric")


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
        # Every normalization but sne's row one is symmetric, and the pass
        # reads only its upper triangle.
        self._upper = required != ROW
        if self._upper:
            _check_symmetric(P)
        if classic_scale and affinity.normalization != SYMMETRIZED_ROW:
            raise ParameterError(
                "classic_scale only applies to symmetrized-row affinities")
        self.method = method
        self.P = P
        self.latent_kernel = check_kind(latent_kernel or DEFAULT_LATENT_KERNEL[method])
        # For the symmetrized methods each undirected edge carries half of
        # P + P^T per direction; classic_scale divides it by 2n, not P.
        self._edge_scale = 0.5 if method in (TSNE, LARGEVIS) else 1.0
        if classic_scale:
            self._edge_scale /= 2.0 * n
        # Repulsion reads P only through sne's row sums or tsne's total mass.
        self._row_mass = P.sum(axis=1, keepdims=True) if method == SNE else None
        self._mass = float(P.sum()) if method == TSNE else None

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
        """(attraction, repulsion, objective, gradient) from one walk over tiles.

        The split is of the plain loss; the objective and its gradient
        (None if infinite) are at ``exaggeration``.  For tsne, largevis
        and umap both P and the latent kernel are symmetric, so the pair
        {i, j} carries the same terms in both orders and is visited once:
        the tiles are the upper-triangle :func:`linalg.row_blocks`, rows
        [lo, hi) against columns [lo, n), whose pairs j <= i in the
        diagonal square are masked, and the factor 2 of the mirrored pair
        multiplies the sums at the end.  sne's row normalizer needs
        complete rows, so its tiles are full rows with only the
        self-pairs masked.  The tiles run on the usable cores through
        :func:`linalg.map_blocks` (see :meth:`_tile`), and their terms
        and gradient shares are added up here in tile order, so every sum
        is the serial walk's at any core count.  The tsne normalizer is
        complete only after the last tile, so its repulsive pair weights
        are summed unscaled and divided by it at the end; with the
        Gaussian kernel each tile's sums are relative to its own peak log
        K and are brought to the running peak as they are added.
        """
        if not (math.isfinite(exaggeration) and exaggeration > 0.0):
            raise ParameterError(f"exaggeration must be positive, got {exaggeration}")
        Z = self._check_z(Z)
        n = self.n
        normalized = self.method in (SNE, TSNE)
        if normalized and n < 2:
            return 0.0, math.inf, math.inf, None  # a lone point has no normalizer
        student = self.latent_kernel == STUDENT
        upper = self._upper
        tiles = list(row_blocks(n, upper))
        cells = max((rows.stop - rows.start) * (n - (rows.start if upper else 0))
                    for rows in tiles)
        scratch = _Scratch([[np.empty(cells) for _ in range(3)]
                            for _ in range(_workers(len(tiles)))])
        dists = _sq_dists(Z)
        attraction = repulsion = 0.0
        grad = np.zeros_like(Z)
        # tsne: the global normalizer as a sum of exp(log K - peak), and the
        # gradient of those terms.  The Student K lies in (0, 1], so only
        # the Gaussian needs a running peak to keep the sum from underflowing.
        total, peak, push = 0.0, (0.0 if student else -math.inf), np.zeros_like(Z)

        def tile(rows):
            return self._tile(dists, Z, rows, slice(rows.start if upper else 0, n),
                              exaggeration, scratch)

        def add(terms):
            nonlocal attraction, repulsion, total, peak, push
            rows, cols, tile_attraction, tile_repulsion, shares, tsne = terms
            attraction -= tile_attraction
            repulsion += tile_repulsion
            grad[rows] += shares[0]
            grad[cols] += shares[1]
            if tsne is None:
                return
            top, tile_total, (row_push, col_push) = tsne
            if top > peak:
                shrink = math.exp(peak - top)
                total, peak = total * shrink, top
                push *= shrink
            elif top < peak:
                scale = math.exp(top - peak)
                tile_total, row_push, col_push = (
                    tile_total * scale, row_push * scale, col_push * scale)
            total += tile_total
            push[rows] += row_push
            push[cols] += col_push

        try:
            map_blocks(tile, tiles, add)
        except _OutOfRange:
            # Squared distances overflowed; the configuration is out of
            # range, not invalid, so score it with the infinite sentinel.
            return math.inf, math.inf, math.inf, None
        # Each pair walked once in the upper triangle stands for both orders.
        mirror = 2.0 if upper else 1.0
        attraction *= self._edge_scale * mirror
        repulsion *= mirror
        if self.method == TSNE:
            total *= mirror
            weight = self._mass * self._edge_scale
            repulsion = weight * (peak + math.log(total))
            grad -= push * (exaggeration * weight / total)
        if not math.isfinite(repulsion):
            return attraction, math.inf, math.inf, None
        objective = exaggeration * attraction + (
            exaggeration * repulsion if normalized else repulsion)
        # dD/dz_i is 2 (z_i - z_j); the Gaussian's factor 1/2 cancels it.
        grad *= (2.0 if student else 1.0) * mirror
        return attraction, repulsion, objective, grad

    def _tile(self, dists, Z, rows, cols, exaggeration, scratch):
        """The terms of the pairs ``rows`` x ``cols`` for :meth:`_pass`.

        Returns ``(rows, cols, attraction, repulsion, gradient shares,
        tsne)``: the tile's -sum P log K and its sne or edgewise
        repulsion, both unscaled, the (row, column) shares of
        :func:`_pair_shares`, and for tsne ``(peak, total, push shares)``
        of the normalizer terms exp(log K - peak), else None.  Raises
        :class:`_OutOfRange` if a squared distance overflowed.  The tile
        gets its squared distances D from ``dists``, then K and log K; a
        masked pair has zero weight and log K = -inf.  The pair weights
        G = dObjective/dD fold in the kernel derivative: -K^2 per unit of
        squared distance for the Student kernel, -K/2 for the Gaussian.
        Its tile-sized temporaries live in the running thread's ``scratch``
        buffers, and it calls only private helpers, so it may run on any
        thread.
        """
        student = self.latent_kernel == STUDENT
        normalized = self.method in (SNE, TSNE)
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        # log K's buffer is free until D is complete.
        D = dists(rows, cols, out=scratch.take(0, shape), work=scratch.take(1, shape))
        if not math.isfinite(D.max()):
            raise _OutOfRange
        # The tile's diagonal square and the pairs masked in it: j <= i
        # in the upper triangle, the self-pairs in full rows.
        b = shape[0]
        square = slice(rows.start - cols.start, rows.stop - cols.start)
        masked = np.tri(b, dtype=bool) if self._upper else np.eye(b, dtype=bool)
        # Only sne and the Gaussian kernel read log K past the attraction;
        # the others sum log1p(D) = -log K and negate the sum, which is exact.
        signed = student and self.method != SNE
        if student:
            logK = np.log1p(D, out=scratch.take(1, shape))
            if not signed:
                np.negative(logK, out=logK)
            D += 1.0
            # np.reciprocal's bits; numpy 2.4 does not vectorise its float64 loop.
            K = np.divide(1.0, D, out=D)
            np.copyto(K[:, square], 0.0, where=masked)
        else:
            logK = D
            logK *= -0.5
        del D
        np.copyto(logK[:, square], 0.0, where=masked)
        P = self.P[rows, cols]
        attraction = float(np.einsum("ij,ij->", P, logK))
        if signed:
            attraction = -attraction
        else:
            np.copyto(logK[:, square], -np.inf, where=masked)
        if not (student or normalized):
            # K is stored and read cell by cell, so its exp takes no floor.
            K = np.exp(logK, out=scratch.take(1, shape))
        G = np.multiply(P, exaggeration * self._edge_scale, out=scratch.take(2, shape))
        np.copyto(G[:, square], 0.0, where=masked)
        # The repulsive terms R take log K's buffer: log K is either read
        # for the last time to form them, or no longer read at all.
        R = logK
        repulsion, tsne = 0.0, None
        if self.method == SNE:
            # Each row's normalizer is complete within the tile; the
            # shift by its peak keeps exp from underflowing to 0 / 0.
            top = logK.max(axis=1, keepdims=True)
            _normalizer_terms(logK, top, R, square, masked)
            row_total = R.sum(axis=1, keepdims=True)
            weight = self._row_mass[rows] * self._edge_scale
            repulsion = float((weight * (top + np.log(row_total))).sum())
            R *= weight * (exaggeration / row_total)
            G -= R
        elif self.method == TSNE:
            top = 0.0 if student else float(logK.max())
            if top > -math.inf:   # else every pair is masked and adds nothing
                if student:
                    tile_total = float(K.sum())
                    np.multiply(K, K, out=R)
                else:
                    tile_total = float(_normalizer_terms(logK, top, R, square, masked).sum())
                tsne = (top, tile_total, _pair_shares(R, Z, rows, cols))
        else:
            # Both edgewise methods reduce to the same ordered-pair form:
            # the (1 - P)-weighted and P-weighted log(1 + K) terms merge.
            repulsion = float(np.log1p(K, out=R).sum())
            np.divide(K, np.add(1.0, K, out=R), out=R)
            G -= R
        if student:
            G *= K
        return rows, cols, attraction, repulsion, _pair_shares(G, Z, rows, cols), tsne

    def evaluate(self, Z, exaggeration: float = 1.0) -> Evaluation:
        """Loss, objective at ``exaggeration`` and its gradient, in one pass."""
        attraction, repulsion, objective, grad = self._pass(Z, exaggeration)
        return Evaluation(attraction + repulsion, objective, grad)

    # The package calls evaluate alone; the benchmark's tracer wraps loss
    # and grad through ``cls.__dict__[name]``, so they stay.
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
