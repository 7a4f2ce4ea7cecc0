import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling.errors import (
    ContractViolationError,
    DegenerateRowError,
    ParameterError,
)
from graphcoupling.graph import validate_latent_graph
from graphcoupling.kernels import kernel_matrix
from graphcoupling.posterior import (
    AffinityMatrix,
    PosteriorSampler,
    posterior_expectation,
    sample_posterior_graph,
    symmetrize_row_affinity,
    umap_threshold_prob,
)


def example_kernel(seed=0, n=6):
    rng = np.random.default_rng(seed)
    return kernel_matrix(rng.normal(size=(n, 2)), "gaussian")


def dense_reference_sample(K, prior, rng):
    """The dense sampler the edge-list one replaced, kept as its oracle."""
    G = np.asarray(getattr(K, "values", K), dtype=np.float64)
    n = G.shape[0]
    if prior == "B":
        return (rng.random((n, n)) < G / (1.0 + G)).astype(np.int64)
    if prior == "D":
        cdf = np.cumsum(G / G.sum(axis=1)[:, None], axis=1)
        cdf /= cdf[:, -1:]
        idx = (cdf < 1.0 - rng.random((n, 1))).sum(axis=1)
        W = np.zeros((n, n), dtype=np.int64)
        W[np.arange(n), idx] = 1
        return W
    off = ~np.eye(n, dtype=bool)
    p = G[off] / G.sum()
    W = np.zeros((n, n), dtype=np.int64)
    W[off] = rng.multinomial(n, p / p.sum())
    return W


class TestExpectations:
    def test_bernoulli_formula(self):
        K = example_kernel()
        P = posterior_expectation(K, "B")
        npt.assert_allclose(P.values, K.values / (1.0 + K.values), rtol=1e-15)
        assert P.normalization == "bernoulli"
        assert P.prior == "B"

    def test_bernoulli_half_at_unit_kernel(self):
        K = np.ones((3, 3)) - np.eye(3)
        P = posterior_expectation(K, "B")
        off = ~np.eye(3, dtype=bool)
        npt.assert_array_equal(P.values[off], np.full(6, 0.5))

    def test_row_normalization(self):
        K = example_kernel(1)
        P = posterior_expectation(K, "D")
        npt.assert_allclose(P.values.sum(axis=1), 1.0, rtol=1e-12)
        assert P.normalization == "row"
        # proportional to the kernel within each row
        ratio = P.values[0, 1:] / K.values[0, 1:]
        npt.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_global_normalization(self):
        K = example_kernel(2)
        P = posterior_expectation(K, "E")
        npt.assert_allclose(P.values.sum(), 1.0, rtol=1e-12)
        assert P.normalization == "global"

    def test_uniform_pi_scale_cancels(self):
        K = example_kernel(3)
        pi = np.full(K.values.shape, 7.0)
        for prior in ("D", "E"):
            base = posterior_expectation(K, prior).values
            scaled = posterior_expectation(K, prior, pi).values
            npt.assert_allclose(scaled, base, rtol=1e-12)

    def test_pi_reweights_bernoulli(self):
        K = example_kernel(4)
        pi = np.full(K.values.shape, 2.0)
        P = posterior_expectation(K, "B", pi).values
        expected = 2.0 * K.values / (1.0 + 2.0 * K.values)
        npt.assert_allclose(P, expected, rtol=1e-15)

    def test_pi_zeroes_forbidden_edges(self):
        K = example_kernel(5)
        pi = np.ones(K.values.shape)
        pi[0, 1] = 0.0
        P = posterior_expectation(K, "D", pi)
        assert P.values[0, 1] == 0.0
        npt.assert_allclose(P.values.sum(axis=1), 1.0, rtol=1e-12)

    def test_degenerate_row_named(self):
        K = example_kernel()
        pi = np.ones(K.values.shape)
        pi[2, :] = 0.0
        with pytest.raises(DegenerateRowError, match="row 2"):
            posterior_expectation(K, "D", pi)

    def test_unknown_prior(self):
        with pytest.raises(ParameterError):
            posterior_expectation(example_kernel(), "Z")

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ContractViolationError):
            posterior_expectation(np.ones((3, 3)), "B")


class TestSampling:
    def test_samples_live_in_latent_graph_space(self):
        K = example_kernel(6)
        rng = np.random.default_rng(0)
        for prior in ("B", "D", "E"):
            for _ in range(25):
                W = sample_posterior_graph(K, prior, rng)
                validate_latent_graph(W)

    def test_d_prior_one_edge_per_row(self):
        K = example_kernel(7)
        rng = np.random.default_rng(1)
        for _ in range(50):
            W = sample_posterior_graph(K, "D", rng)
            npt.assert_array_equal(W.sum(axis=1), np.ones(6, dtype=np.int64))

    def test_e_prior_n_edges_total(self):
        K = example_kernel(8)
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert sample_posterior_graph(K, "E", rng).sum() == 6

    def test_b_prior_zero_kernel_gives_empty_graph(self):
        K = np.zeros((4, 4))
        rng = np.random.default_rng(3)
        for _ in range(20):
            npt.assert_array_equal(sample_posterior_graph(K, "B", rng),
                                   np.zeros((4, 4), dtype=np.int64))

    def test_same_seed_same_sample(self):
        K = example_kernel(9)
        for prior in ("B", "D", "E"):
            W1 = sample_posterior_graph(K, prior, np.random.default_rng(11))
            W2 = sample_posterior_graph(K, prior, np.random.default_rng(11))
            npt.assert_array_equal(W1, W2)

    @pytest.mark.parametrize("prior", ["B", "D", "E"])
    def test_same_stream_as_dense_reference(self, prior):
        # a tie-free kernel, a kernel with exact zeros (far pairs underflow),
        # and n = 2, where every D row has a single admissible cell
        rng = np.random.default_rng(12)
        X_far = np.vstack([rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 60.0])
        for K in (example_kernel(12, n=40), kernel_matrix(X_far, "gaussian"),
                  example_kernel(13, n=2)):
            sampler = PosteriorSampler(K, prior)
            for seed in range(8):
                edges = sampler.draw(np.random.default_rng([seed, 3]))
                W = dense_reference_sample(K, prior, np.random.default_rng([seed, 3]))
                rows, cols = np.nonzero(W)
                npt.assert_array_equal(edges.rows, rows)
                npt.assert_array_equal(edges.cols, cols)
                npt.assert_array_equal(edges.counts, W[rows, cols])
                npt.assert_array_equal(
                    sample_posterior_graph(K, prior, np.random.default_rng([seed, 3])), W)

    def test_sampler_validates_once_at_construction(self):
        with pytest.raises(ContractViolationError):
            PosteriorSampler(np.ones((3, 3)), "D")
        with pytest.raises(DegenerateRowError):
            PosteriorSampler(np.zeros((3, 3)), "D")
        with pytest.raises(ParameterError):
            PosteriorSampler(example_kernel(), "Q")

    def test_frequencies_match_expectations(self):
        K = example_kernel(10, n=5)
        n, trials = 5, 6000
        off = ~np.eye(n, dtype=bool)
        for prior in ("B", "D", "E"):
            p = posterior_expectation(K, prior).values
            expect = n * p if prior == "E" else p
            var = n * p * (1 - p) if prior == "E" else p * (1 - p)
            rng = np.random.default_rng(17)
            counts = np.zeros((n, n))
            for _ in range(trials):
                counts += sample_posterior_graph(K, prior, rng)
            z = (np.abs(counts / trials - expect)
                 / np.sqrt(np.maximum(var, 1e-12) / trials))[off]
            assert z.max() <= 5.0


class TestTransforms:
    def test_symmetrized_mass_is_two_n(self):
        P = posterior_expectation(example_kernel(11), "D")
        S = symmetrize_row_affinity(P)
        npt.assert_allclose(S.values.sum(), 12.0, rtol=1e-12)
        npt.assert_array_equal(S.values, S.values.T)
        assert S.normalization == "symmetrized-row"

    def test_symmetrize_requires_row_tag(self):
        P = posterior_expectation(example_kernel(12), "B")
        with pytest.raises(ContractViolationError):
            symmetrize_row_affinity(P)

    def test_threshold_formula(self):
        P = posterior_expectation(example_kernel(13), "B")
        T = umap_threshold_prob(P)
        V = P.values
        npt.assert_allclose(T.values, V + V.T - V * V.T, rtol=1e-15)
        assert T.normalization == "thresholded-bernoulli"
        assert T.values.min() >= 0.0 and T.values.max() <= 1.0

    def test_threshold_half_half(self):
        V = np.array([[0.0, 0.5], [0.5, 0.0]])
        T = umap_threshold_prob(AffinityMatrix(V, "B", "bernoulli"))
        assert T.values[0, 1] == 0.75

    def test_threshold_requires_bernoulli_tag(self):
        P = posterior_expectation(example_kernel(14), "D")
        with pytest.raises(ContractViolationError):
            umap_threshold_prob(P)
