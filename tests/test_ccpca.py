import inspect
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling.ccpca import ccpca
from graphcoupling.errors import ContractViolationError, ParameterError
from graphcoupling.graph import components_from_edges
from graphcoupling.kernels import calibrated_kernel
from graphcoupling.posterior import PosteriorSampler
from graphcoupling.spectral import pca

from oracles import (
    averaged_projector,
    cc_projector,
    connected_components,
    sample_posterior_graph,
)


def gaussian_kernel(X, perplexity):
    return calibrated_kernel(X, perplexity)


def two_blobs(seed=0, per_block=8, separation=40.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(2 * per_block, 3))
    X[per_block:, 0] += separation
    return X


class TestArguments:
    def test_has_no_defaults_of_its_own(self):
        # A run's settings have one owner, RunSpec.
        parameters = inspect.signature(ccpca).parameters.values()
        assert [p.name for p in parameters] == ["X", "K", "q", "samples", "prior", "seed"]
        assert all(p.default is inspect.Parameter.empty for p in parameters)

    def test_rejects_bad_values(self):
        X = np.random.default_rng(11).normal(size=(8, 3))
        K = gaussian_kernel(X, 3.0)
        for q, samples, prior in ((2, 0, "D"), (2, 5, "Q"), (0, 5, "D"), (4, 5, "D")):
            with pytest.raises(ParameterError):
                ccpca(X, K, q, samples, prior, 0)


class TestAveragedProjector:
    def test_symmetric_doubly_stochastic_psd(self):
        K = gaussian_kernel(np.random.default_rng(1).normal(size=(10, 3)), 4.0)
        M = averaged_projector(K, 30, "D", 5)
        npt.assert_allclose(M, M.T, atol=1e-12)
        npt.assert_allclose(M.sum(axis=1), np.ones(10), atol=1e-10)
        assert np.linalg.eigvalsh((M + M.T) / 2.0).min() >= -1e-10
        assert M.min() >= 0.0

    def test_deterministic_in_seed(self):
        K = gaussian_kernel(np.random.default_rng(2).normal(size=(8, 2)), 3.0)
        M1 = averaged_projector(K, 20, "D", 9)
        M2 = averaged_projector(K, 20, "D", 9)
        assert M1.tobytes() == M2.tobytes()
        M3 = averaged_projector(K, 20, "D", 10)
        assert M1.tobytes() != M3.tobytes()

    def test_matches_per_index_stream_reconstruction(self):
        # each Monte-Carlo draw uses its own (seed, index) generator, so the
        # average is reproducible sample by sample from outside the function
        K = gaussian_kernel(np.random.default_rng(3).normal(size=(7, 2)), 3.0)
        expected = np.zeros((7, 7))
        for index in range(12):
            rng = np.random.default_rng([21, index])
            W = sample_posterior_graph(K, "D", rng)
            expected += cc_projector(connected_components(W))
        expected /= 12
        npt.assert_array_equal(averaged_projector(K, 12, "D", 21), expected)

    def test_separated_blocks_have_exact_zero_cross_mass(self):
        # kernel cross-block entries underflow to exactly zero, so no sampled
        # graph ever joins the blocks and neither does any projector
        X = two_blobs(seed=4, separation=120.0)
        K = gaussian_kernel(X, 5.0)
        assert K.values[:8, 8:].max() == 0.0
        M = averaged_projector(K, 40, "D", 0)
        npt.assert_array_equal(M[:8, 8:], np.zeros((8, 8)))
        npt.assert_array_equal(M[8:, :8], np.zeros((8, 8)))


class TestCcpca:
    @pytest.mark.parametrize("prior", ["B", "D", "E"])
    def test_is_pca_of_projected_data(self, prior):
        X = np.random.default_rng(5).normal(size=(9, 4))
        K = gaussian_kernel(X, 4.0)
        Z = ccpca(X, K, 2, 15, prior, 3)
        M = averaged_projector(K, 15, prior, 3)
        # the mean of component means sums in another order than M @ X
        npt.assert_allclose(Z, pca(M @ X, 2), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("prior", ["B", "D", "E"])
    def test_sample_edges_are_the_dense_samples(self, prior):
        K = gaussian_kernel(np.random.default_rng(8).normal(size=(12, 3)), 4.0)
        sampler = PosteriorSampler(K, prior)
        for index in range(10):
            edges = sampler.draws([np.random.default_rng([4, index])])[0]
            W = sample_posterior_graph(K, prior, np.random.default_rng([4, index]))
            rows, cols = np.nonzero(W)
            npt.assert_array_equal(edges.rows, rows)
            npt.assert_array_equal(edges.cols, cols)
            npt.assert_array_equal(edges.counts, W[rows, cols])
            parts = components_from_edges(edges.n, edges.rows, edges.cols)
            npt.assert_array_equal(parts.assignment, connected_components(W).assignment)

    @pytest.mark.parametrize("prior, bound", [("B", 0.25), ("D", 0.25), ("E", 0.5)])
    def test_peak_in_n_by_n_arrays(self, prior, bound):
        # Every prior reads K one row block at a time: a block is 0.18 n x n
        # at this n, and the rest grows with samples x n.
        n = 600
        X = two_blobs(seed=10, per_block=n // 2, separation=10.0)
        X = np.hstack([X, np.random.default_rng(10).normal(size=(n, 7))])
        K = gaussian_kernel(X, 30.0)
        tracemalloc.start()
        try:
            ccpca(X, K, 2, 10, prior, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * K.values.nbytes, f"{peak / K.values.nbytes:.3f} n x n arrays"

    def test_rejects_row_mismatch(self):
        X = np.random.default_rng(9).normal(size=(8, 3))
        with pytest.raises(ContractViolationError):
            ccpca(X[:7], gaussian_kernel(X, 3.0), 2, 2, "D", 0)

    def test_blocks_map_to_two_far_groups(self):
        X = two_blobs(seed=6, separation=60.0)
        Z = ccpca(X, gaussian_kernel(X, 5.0), 2, 30, "D", 1)
        within = max(np.linalg.norm(Z[:8] - Z[:8].mean(axis=0), axis=1).max(),
                     np.linalg.norm(Z[8:] - Z[8:].mean(axis=0), axis=1).max())
        between = np.linalg.norm(Z[:8].mean(axis=0) - Z[8:].mean(axis=0))
        assert between > 10.0 * within

    def test_q_respected(self):
        X = np.random.default_rng(7).normal(size=(8, 5))
        K = gaussian_kernel(X, 3.0)
        assert ccpca(X, K, 3, 5, "D", 0).shape == (8, 3)
