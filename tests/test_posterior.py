import itertools
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling import linalg
from graphcoupling.errors import (
    ContractViolationError,
    DegenerateRowError,
    ParameterError,
)
from graphcoupling.graph import validate_latent_graph
from graphcoupling.kernels import kernel_matrix
from graphcoupling.posterior import (
    PRIOR_KINDS,
    AffinityMatrix,
    PosteriorSampler,
    posterior_expectation,
    symmetrized_in_place,
)

from oracles import sample_posterior_graph, symmetrize_row_affinity, umap_threshold_prob


#: Both build a prior's normalization of K, so both must reject the same
#: inputs with the same error.
ENTRY_POINTS = pytest.mark.parametrize(
    "entry", [posterior_expectation, PosteriorSampler],
    ids=["posterior_expectation", "PosteriorSampler"])


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
    # E: row totals over the rows with mass, then one uniform per edge,
    # row after row, each placed by its row's D CDF.
    sums = G.sum(axis=1)
    live = np.flatnonzero(sums)
    totals = rng.multinomial(n, sums[live] / sums.sum())
    cdf = np.cumsum(G[live] / sums[live, None], axis=1)
    cdf /= cdf[:, -1:]
    W = np.zeros((n, n), dtype=np.int64)
    for k, u in zip(np.repeat(np.arange(live.size), totals), 1.0 - rng.random(n)):
        W[live[k], (cdf[k] < u).sum()] += 1
    return W


#: Row-block budgets, in rows of the kernel: one row, seven rows and the
#: package default.
BLOCK_ROWS = (1, 7, None)


def with_block_rows(monkeypatch, block_rows, n):
    """Set the row-block budget to ``block_rows`` rows of n cells, or the default."""
    if block_rows is not None:
        monkeypatch.setattr(linalg, "ROW_BLOCK_CELLS", block_rows * n)


def stream_kernels():
    """A tie-free kernel, one with exact zeros (far pairs underflow), and
    n = 2, where every D row has a single admissible cell."""
    rng = np.random.default_rng(12)
    X_far = np.vstack([rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 60.0])
    return [example_kernel(12, n=40), kernel_matrix(X_far, "gaussian"),
            example_kernel(13, n=2)]


class ScriptedUniforms:
    """Stands in for a generator whose ``random`` returns given numbers in
    order and whose ``multinomial`` returns ``totals``, keeping its
    probabilities in ``pvals``."""

    def __init__(self, values, totals=None):
        self._values = np.asarray(values, dtype=np.float64).ravel()
        self._taken = 0
        self._totals = totals
        self.pvals = None

    def multinomial(self, n, pvals):
        self.pvals = np.array(pvals)
        return self._totals

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        end = self._taken + out.size
        out[...] = self._values[self._taken:end].reshape(out.shape)
        self._taken = end
        return out


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

    @ENTRY_POINTS
    def test_degenerate_row_named(self, entry):
        K = example_kernel().values
        K[2, :] = 0.0
        with pytest.raises(DegenerateRowError,
                           match="^row 2 has no admissible edge under the D prior$"):
            entry(K, "D")
        with pytest.raises(DegenerateRowError,
                           match="^no admissible edge under the E prior$"):
            entry(np.zeros((3, 3)), "E")

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
    def test_same_stream_as_dense_reference(self, monkeypatch, prior):
        for block_rows, weighted, K in itertools.product(
                BLOCK_ROWS, (False, True), stream_kernels()):
            K = K.values
            n = K.shape[0]
            if weighted:  # a nonnegative K that is no kernel of any data
                K = K * np.random.default_rng(n).uniform(0.5, 2.0, (n, n))
            with_block_rows(monkeypatch, block_rows, n)
            sampler = PosteriorSampler(K, prior)
            for seed in range(8):
                edges = sampler.draws([np.random.default_rng([seed, 3])])[0]
                W = dense_reference_sample(K, prior, np.random.default_rng([seed, 3]))
                rows, cols = np.nonzero(W)
                npt.assert_array_equal(edges.rows, rows)
                npt.assert_array_equal(edges.cols, cols)
                npt.assert_array_equal(edges.counts, W[rows, cols])
                npt.assert_array_equal(sample_posterior_graph(
                    K, prior, np.random.default_rng([seed, 3])), W)

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS, ids=["1-row", "7-rows", "default"])
    @pytest.mark.parametrize("prior", PRIOR_KINDS)
    def test_draws_are_the_draws_of_each_generator(self, monkeypatch, block_rows, prior):
        for K in stream_kernels():
            with_block_rows(monkeypatch, block_rows, K.values.shape[0])
            sampler = PosteriorSampler(K, prior)
            batch = sampler.draws(np.random.default_rng([seed, 5]) for seed in range(6))
            assert len(batch) == 6
            for seed, edges in enumerate(batch):
                one = sampler.draws([np.random.default_rng([seed, 5])])[0]
                for got, want in zip(edges, one):
                    npt.assert_array_equal(got, want)
            assert sampler.draws([]) == []

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS, ids=["1-row", "7-rows", "default"])
    def test_d_cdf_is_the_expectations_to_the_last_bit(self, monkeypatch, block_rows):
        # u on a CDF entry selects that entry and u one step above it the
        # next admissible one, so a CDF one rounding off moves the draw.
        # In the second kernel column 0 holds most of every other row's
        # mass, so u can sit on a row's first entry.
        n = 40
        K = example_kernel(22, n=n).values
        heavy = K.copy()
        heavy[1:, 0] = heavy[0, 1:] = K.sum(axis=1).max()
        with_block_rows(monkeypatch, block_rows, n)
        pick = np.random.default_rng(22)
        for kernel in (K, heavy):
            cdf = np.cumsum(posterior_expectation(kernel, "D").values, axis=1)
            cdf /= cdf[:, -1:].copy()
            # 1 - (1 - u) == u exactly for u >= 1/2, so the sampler sees u itself
            chosen = np.array([pick.choice(row[row >= 0.5]) for row in cdf])
            first = np.array([row[row >= 0.5].min() for row in cdf])
            sampler = PosteriorSampler(kernel, "D")
            for on_entry in (chosen, first):
                for u in (on_entry, np.nextafter(on_entry, 2.0)):
                    edges = sampler.draws([ScriptedUniforms(1.0 - u)])[0]
                    npt.assert_array_equal(edges.cols, (cdf < u[:, None]).sum(axis=1))

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS, ids=["1-row", "7-rows", "default"])
    def test_b_probabilities_are_the_expectations_to_the_last_bit(
            self, monkeypatch, block_rows):
        K = example_kernel(23, n=40)
        with_block_rows(monkeypatch, block_rows, 40)
        P = posterior_expectation(K, "B").values
        sampler = PosteriorSampler(K, "B")
        for u in (P, np.nextafter(P, 0.0)):
            edges = sampler.draws([ScriptedUniforms(u)])[0]
            rows, cols = np.nonzero(u < P)
            npt.assert_array_equal(edges.rows, rows)
            npt.assert_array_equal(edges.cols, cols)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_e_masses_and_cdf_are_the_d_bits(self, block_cells, weighted):
        # E's row totals are drawn over the row sums divided by their
        # total, and its edges from D's row CDF, which
        # test_d_cdf_is_the_expectations_to_the_last_bit pins.
        n = 40
        K = example_kernel(24, n=n).values
        if weighted:  # a nonnegative K that is no kernel of any data
            K = K * np.random.default_rng(24).uniform(0.5, 2.0, (n, n))
        sums = K.sum(axis=1)
        masses = sums / sums.sum()
        sampler, d = PosteriorSampler(K, "E"), PosteriorSampler(K, "D")
        for rows in linalg.row_blocks(n):
            assert sampler._row_cdf(rows).tobytes() == d._row_cdf(rows).tobytes()
        cdf = np.cumsum(posterior_expectation(K, "D").values, axis=1)
        cdf /= cdf[:, -1:].copy()
        pick = np.random.default_rng(25)
        totals = pick.multinomial(n, masses)
        values = pick.random(n)
        rng = ScriptedUniforms(values, totals)
        edges = sampler.draws([rng])[0]
        assert rng.pvals.tobytes() == masses.tobytes()
        W = np.zeros((n, n), dtype=np.int64)
        for row, u in zip(np.repeat(np.arange(n), totals), 1.0 - values):
            W[row, (cdf[row] < u).sum()] += 1
        npt.assert_array_equal(edges.dense(), W)

    def test_e_row_without_mass_draws_no_edge(self, block_cells):
        # Row 2 has no mass but column 2 keeps its mass, so edges may
        # enter node 2 and none may leave it; filterwarnings = error turns
        # a 0 / 0 in its CDF into a failure.  No cell is rare, so the
        # normal approximation of each count holds.
        n, trials = 6, 6000
        K = np.random.default_rng(26).uniform(0.5, 2.0, (n, n))
        np.fill_diagonal(K, 0.0)
        K[2] = 0.0
        p = posterior_expectation(K, "E").values
        rng = np.random.default_rng(19)
        counts = np.zeros((n, n))
        for edges in PosteriorSampler(K, "E").draws([rng] * trials):
            assert edges.counts.sum() == n
            assert not (edges.rows == 2).any()
            counts += edges.dense()
        assert counts[:, 2].sum() > 0
        z = np.abs(counts / trials - n * p) / np.sqrt(np.maximum(n * p * (1 - p), 1e-12) / trials)
        assert z[~np.eye(n, dtype=bool)].max() <= 5.0

    @pytest.mark.parametrize("prior", PRIOR_KINDS)
    def test_a_repeated_generator_draws_afresh(self, block_cells, prior):
        K = example_kernel(16, n=30)
        sampler = PosteriorSampler(K, prior)
        rng = np.random.default_rng(6)
        first, second = sampler.draws([rng, rng])
        assert first.dense().tobytes() != second.dense().tobytes()
        for edges in (first, second):
            validate_latent_graph(edges.dense())

    @ENTRY_POINTS
    def test_sampler_validates_once_at_construction(self, entry):
        negative = np.array([[0.0, -1.0], [1.0, 0.0]])
        cases = [
            (np.ones((3, 3)), "D", ContractViolationError,
             "kernel matrix must have a zero diagonal"),
            (negative, "B", ContractViolationError, "kernel values must be nonnegative"),
            (np.zeros((3, 3)), "D", DegenerateRowError,
             "row 0 has no admissible edge under the D prior"),
            (np.zeros((3, 3)), "E", DegenerateRowError,
             "no admissible edge under the E prior"),
            (example_kernel(), "Q", ParameterError, "unknown prior 'Q'"),
        ]
        for K, prior, error, message in cases:
            with pytest.raises(error, match="^" + re.escape(message)):
                entry(K, prior)

    @pytest.mark.parametrize("prior", PRIOR_KINDS)
    def test_caller_kernel_left_unchanged(self, prior):
        # both read the caller's own array
        K = example_kernel(15)
        before = K.values.copy()
        for kernel in (K, K.values):
            posterior_expectation(kernel, prior)
            PosteriorSampler(kernel, prior).draws([np.random.default_rng(0)])[0]
            PosteriorSampler(kernel, prior).draws(
                [np.random.default_rng(1), np.random.default_rng(2)])
        npt.assert_array_equal(K.values, before)

    @pytest.mark.parametrize("prior", PRIOR_KINDS)
    def test_construction_builds_no_table(self, prior):
        n = 600
        K = kernel_matrix(np.random.default_rng(21).normal(size=(n, 3)), "gaussian")
        tracemalloc.start()
        try:
            sampler = PosteriorSampler(K, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * K.values.nbytes, f"{peak / K.values.nbytes:.4f} n x n arrays"
        assert not hasattr(sampler, "_table")

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

    def test_threshold_blocks_match_the_whole_formula(self, block_cells):
        rng = np.random.default_rng(15)
        V = rng.random((37, 37))
        np.fill_diagonal(V, 0.0)
        T = umap_threshold_prob(AffinityMatrix(V, "B", "bernoulli")).values
        npt.assert_array_equal(T, V + V.T - V * V.T)
        npt.assert_array_equal(T, T.T)

    def test_threshold_makes_only_its_result(self):
        n = 600
        V = np.random.default_rng(16).random((n, n))
        P = AffinityMatrix(V, "B", "bernoulli")
        tracemalloc.start()
        try:
            umap_threshold_prob(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * V.nbytes, f"{peak / V.nbytes:.2f} n x n arrays"

    def test_bernoulli_formula_bit_for_bit(self):
        K = kernel_matrix(np.random.default_rng(17).normal(size=(30, 3)), "gaussian")
        G = K.values
        npt.assert_array_equal(posterior_expectation(K, "B").values, G / (1.0 + G))

    def test_sum_blocks_match_the_whole_formula(self, block_cells):
        V = np.random.default_rng(18).random((37, 37))
        np.fill_diagonal(V, 0.0)
        S = symmetrize_row_affinity(AffinityMatrix(V, "D", "row")).values
        npt.assert_array_equal(S, V + V.T)

    @pytest.mark.parametrize("prior, public", [("D", symmetrize_row_affinity),
                                               ("B", umap_threshold_prob)])
    def test_in_place_form_is_the_public_one(self, block_cells, prior, public):
        P = posterior_expectation(example_kernel(19, n=41), prior)
        want = public(P)
        values = P.values
        got = symmetrized_in_place(P)
        assert got.values is values
        assert got.normalization == want.normalization
        assert got.values.tobytes() == want.values.tobytes()

    def test_in_place_form_rejects_other_tags(self):
        P = posterior_expectation(example_kernel(20), "E")
        with pytest.raises(ContractViolationError):
            symmetrized_in_place(P)

    def test_threshold_half_half(self):
        V = np.array([[0.0, 0.5], [0.5, 0.0]])
        T = umap_threshold_prob(AffinityMatrix(V, "B", "bernoulli"))
        assert T.values[0, 1] == 0.75

    def test_threshold_requires_bernoulli_tag(self):
        P = posterior_expectation(example_kernel(14), "D")
        with pytest.raises(ContractViolationError):
            umap_threshold_prob(P)
