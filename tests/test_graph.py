import tracemalloc
from collections import deque

import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling import linalg
from graphcoupling.errors import ContractViolationError
from graphcoupling.graph import (
    EdgeList,
    components_from_edges,
    components_from_support,
    connected_components,
    laplacian,
    log_mrf_density,
    split_mean_centered,
    validate_latent_graph,
    weighted_laplacian,
)

from oracles import cc_projector


def random_latent_graph(rng, n):
    W = rng.integers(0, n + 1, size=(n, n))
    np.fill_diagonal(W, 0)
    return W


def bfs_components(n, rows, cols):
    """Reference labeling: breadth-first search from the smallest unvisited node."""
    neighbors = [[] for _ in range(n)]
    for a, b in zip(rows.tolist(), cols.tolist()):
        neighbors[a].append(b)
        neighbors[b].append(a)
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = []
    for start in range(n):
        if assignment[start] >= 0:
            continue
        assignment[start] = len(sizes)
        queue, count = deque([start]), 0
        while queue:
            node = queue.popleft()
            count += 1
            for nb in neighbors[node]:
                if assignment[nb] < 0:
                    assignment[nb] = len(sizes)
                    queue.append(nb)
        sizes.append(count)
    return assignment, np.asarray(sizes, dtype=np.int64)


def assert_matches_bfs(n, rows, cols):
    parts = components_from_edges(n, rows, cols)
    assignment, sizes = bfs_components(n, np.asarray(rows), np.asarray(cols))
    npt.assert_array_equal(parts.assignment, assignment)
    npt.assert_array_equal(parts.sizes, sizes)
    assert parts.assignment.dtype == parts.sizes.dtype == np.int64


class TestValidation:
    def test_accepts_integral_floats(self):
        W = validate_latent_graph(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert W.dtype == np.int64

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ContractViolationError):
            validate_latent_graph([[1, 0], [0, 0]])

    def test_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            validate_latent_graph([[0, -1], [0, 0]])

    def test_rejects_fractional(self):
        with pytest.raises(ContractViolationError):
            validate_latent_graph([[0.0, 0.5], [0.0, 0.0]])

    def test_rejects_oversized_entries(self):
        with pytest.raises(ContractViolationError):
            validate_latent_graph([[0, 3], [0, 0]])


class TestLaplacian:
    def test_small_oracle(self):
        # W = single directed edge of multiplicity 2; symmetrized degree 2.
        L = laplacian([[0, 2], [0, 0]])
        npt.assert_array_equal(L, [[2.0, -2.0], [-2.0, 2.0]])

    def test_rows_sum_to_zero_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            L = laplacian(random_latent_graph(rng, n))
            npt.assert_array_equal(L.sum(axis=1), np.zeros(n))
            npt.assert_array_equal(L, L.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            L = laplacian(random_latent_graph(rng, n))
            w = np.linalg.eigvalsh(L)
            assert w.min() >= -1e-9

    def test_component_indicators_in_null_space(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            W = random_latent_graph(rng, n)
            W[: n // 2, n // 2:] = 0
            W[n // 2:, : n // 2] = 0
            L = laplacian(W)
            parts = connected_components(W)
            for r in range(parts.n_components):
                indicator = (parts.assignment == r).astype(float)
                npt.assert_array_equal(L @ indicator, np.zeros(n))

    def test_weighted_laplacian_matches_integer_path(self):
        rng = np.random.default_rng(3)
        W = random_latent_graph(rng, 6)
        npt.assert_array_equal(weighted_laplacian((W + W.T).astype(float)),
                               laplacian(W))

    def test_weighted_laplacian_matches_the_diag_formula_bit_for_bit(self):
        # Zero weights must give +0.0, as diag(row sums) - A does, not
        # the -0.0 of -A.
        rng = np.random.default_rng(4)
        A = rng.random((9, 9)) * (rng.random((9, 9)) < 0.5)
        A[2, 2] = A[2].sum()
        want = np.diag(A.sum(axis=1)) - A
        assert weighted_laplacian(A).tobytes() == want.tobytes()

    def test_weighted_laplacian_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            weighted_laplacian([[0.0, -0.5], [-0.5, 0.0]])


class TestComponents:
    def test_labels_ordered_by_smallest_member(self):
        W = np.zeros((4, 4), dtype=int)
        W[2, 3] = 1
        parts = connected_components(W)
        npt.assert_array_equal(parts.assignment, [0, 1, 2, 2])
        npt.assert_array_equal(parts.sizes, [1, 1, 2])

    def test_directed_edge_connects(self):
        W = np.zeros((3, 3), dtype=int)
        W[0, 1] = 1
        parts = connected_components(W)
        npt.assert_array_equal(parts.assignment, [0, 0, 1])

    def test_multiplicity_does_not_matter(self):
        W = np.zeros((3, 3), dtype=int)
        W[0, 1] = 3
        W2 = np.zeros((3, 3), dtype=int)
        W2[0, 1] = 1
        npt.assert_array_equal(connected_components(W).assignment,
                               connected_components(W2).assignment)

    def test_sizes_sum_to_n(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            parts = connected_components(random_latent_graph(rng, n))
            assert parts.sizes.sum() == n


class TestComponentsFromEdges:
    def test_random_graphs_match_bfs(self):
        rng = np.random.default_rng(40)
        for _ in range(60):
            n = int(rng.integers(1, 80))
            m = int(rng.integers(0, 2 * n))
            assert_matches_bfs(n, rng.integers(0, n, size=m), rng.integers(0, n, size=m))

    def test_one_edge_per_node_matches_bfs(self):
        # the shape of a D-prior sample: n edges, many small trees
        rng = np.random.default_rng(41)
        for n in (2, 10, 300):
            assert_matches_bfs(n, np.arange(n), rng.integers(0, n, size=n))

    def test_isolated_nodes(self):
        assert_matches_bfs(6, np.array([4]), np.array([1]))
        assert_matches_bfs(5, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert_matches_bfs(0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def test_self_loops_and_repeats_change_nothing(self):
        assert_matches_bfs(4, np.array([2, 2, 3, 3]), np.array([2, 3, 2, 3]))

    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    def test_long_path(self, order):
        # worst case for label propagation: information travels n - 1 hops
        n = 2000
        nodes = np.arange(n)
        if order == "reversed":
            nodes = nodes[::-1].copy()
        elif order == "shuffled":
            nodes = np.random.default_rng(42).permutation(n)
        parts = components_from_edges(n, nodes[:-1], nodes[1:])
        npt.assert_array_equal(parts.assignment, np.zeros(n, dtype=np.int64))
        npt.assert_array_equal(parts.sizes, [n])
        assert_matches_bfs(n, nodes[:-1], nodes[1:])

    def test_support_and_latent_graph_entry_points_agree(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            W = rng.integers(0, 2, size=(n, n)) * (rng.random((n, n)) < 0.08)
            np.fill_diagonal(W, 0)
            rows, cols = np.nonzero(W)
            assignment, sizes = bfs_components(n, rows, cols)
            for parts in (connected_components(W), components_from_support((W + W.T) > 0)):
                npt.assert_array_equal(parts.assignment, assignment)
                npt.assert_array_equal(parts.sizes, sizes)

    @pytest.mark.parametrize("block_cells", [1, 50, 1 << 17, linalg.ROW_BLOCK_CELLS],
                             indirect=True)
    def test_support_read_in_blocks_matches_bfs(self, block_cells):
        rng = np.random.default_rng(45)
        supports = []
        for _ in range(12):
            n = int(rng.integers(1, 40))
            S = rng.random((n, n)) < rng.uniform(0.0, 0.15)
            supports.append(S | S.T)
        path = np.zeros((300, 300), dtype=bool)
        nodes = rng.permutation(300)
        path[nodes[:-1], nodes[1:]] = path[nodes[1:], nodes[:-1]] = True
        for S in supports + [path]:
            assignment, sizes = bfs_components(S.shape[0], *np.nonzero(S))
            parts = components_from_support(S)
            npt.assert_array_equal(parts.assignment, assignment)
            npt.assert_array_equal(parts.sizes, sizes)

    @pytest.mark.parametrize("n", [400, 1000])
    def test_support_edges_stay_within_the_block_budget(self, n):
        # An all-true support is the densest: every cell of a block is an
        # edge.  The edges of all its blocks would take ~4.3 MB.
        support = np.ones((n, n), dtype=bool)
        tracemalloc.start()
        try:
            parts = components_from_support(support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parts.n_components == 1
        assert peak <= 8 * linalg.ROW_BLOCK_CELLS, f"{peak / 1e6:.2f} MB"

    def test_edge_list_dense_round_trip(self):
        W = random_latent_graph(np.random.default_rng(44), 7)
        rows, cols = np.nonzero(W)
        npt.assert_array_equal(EdgeList(7, rows, cols, W[rows, cols]).dense(), W)


class TestProjector:
    def test_matches_indicator_construction(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            parts = connected_components(random_latent_graph(rng, n))
            U = np.zeros((n, parts.n_components))
            for r in range(parts.n_components):
                members = parts.assignment == r
                U[members, r] = 1.0 / np.sqrt(members.sum())
            npt.assert_allclose(cc_projector(parts), U @ U.T, atol=1e-12)

    def test_projector_properties(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            parts = connected_components(random_latent_graph(rng, n))
            M = cc_projector(parts)
            npt.assert_allclose(M, M.T, atol=1e-15)
            npt.assert_allclose(M @ M, M, atol=1e-12)
            npt.assert_allclose(M.sum(axis=1), np.ones(n), atol=1e-12)
            npt.assert_allclose(np.trace(M), parts.n_components, atol=1e-12)


class TestSplit:
    def test_split_reconstructs_and_centers(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            W = random_latent_graph(rng, n)
            X = rng.normal(size=(n, 3))
            parts = connected_components(W)
            X_M, X_C = split_mean_centered(X, parts)
            # reconstruction is exact up to one rounding of the subtraction
            npt.assert_allclose(X_M + X_C, X, rtol=1e-14, atol=1e-15)
            for r in range(parts.n_components):
                npt.assert_allclose(X_C[parts.assignment == r].sum(axis=0),
                                    0.0, atol=1e-10)

    def test_means_equal_per_component_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(3, 40))
            sparse = random_latent_graph(rng, n) * (rng.random((n, n)) < 0.05)
            parts = connected_components(sparse)
            X = rng.normal(size=(n, 4)) * 1e3
            means = np.array([X[parts.assignment == r].mean(axis=0)
                              for r in range(parts.n_components)])
            X_M, X_C = split_mean_centered(X, parts)
            npt.assert_array_equal(X_M, means[parts.assignment])
            npt.assert_array_equal(X_C, X - means[parts.assignment])

    def test_means_add_in_the_order_of_the_two_dimensional_add_at(self):
        # Many rows per component, so a change of summation order would
        # show in the last bits.
        rng = np.random.default_rng(10)
        n = 3000
        parts = components_from_edges(n, rng.integers(0, n, 2600), rng.integers(0, n, 2600))
        X = rng.normal(size=(n, 7)) * np.exp(rng.normal(size=(n, 1)) * 5.0)
        sums = np.zeros((parts.n_components, 7))
        np.add.at(sums, parts.assignment, X)
        want = (sums / parts.sizes[:, None])[parts.assignment]
        X_M, X_C = split_mean_centered(X, parts)
        assert X_M.tobytes() == want.tobytes()
        assert X_C.tobytes() == (X - want).tobytes()

    def test_matches_projector_product(self):
        rng = np.random.default_rng(8)
        n = 8
        parts = connected_components(random_latent_graph(rng, n))
        X = rng.normal(size=(n, 2))
        X_M, _ = split_mean_centered(X, parts)
        npt.assert_allclose(X_M, cc_projector(parts) @ X, atol=1e-12)


class TestMrfDensity:
    def test_single_edge_gaussian(self):
        value = log_mrf_density([[0.0], [1.0]], [[0, 1], [0, 0]], "gaussian")
        npt.assert_allclose(value, -0.5, rtol=1e-15)

    def test_single_edge_student(self):
        value = log_mrf_density([[0.0], [1.0]], [[0, 1], [0, 0]], "student")
        npt.assert_allclose(value, -np.log(2.0), rtol=1e-15)

    def test_multiplicity_scales_linearly(self):
        X = [[0.0], [1.0]]
        one = log_mrf_density(X, [[0, 1], [0, 0]], "gaussian")
        two = log_mrf_density(X, [[0, 2], [0, 0]], "gaussian")
        npt.assert_allclose(two, 2.0 * one, rtol=1e-15)

    def test_empty_graph_is_zero(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(5, 2))
        assert log_mrf_density(X, np.zeros((5, 5), dtype=int), "gaussian") == 0.0

    def test_gaussian_trace_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            W = random_latent_graph(rng, n)
            value = log_mrf_density(X, W, "gaussian")
            trace = float(np.trace(X.T @ laplacian(W) @ X))
            assert abs(value + trace / 2.0) <= 1e-8 * (1.0 + abs(value))

    def test_node_bandwidths(self):
        X = np.array([[0.0], [2.0]])
        tau = np.array([1.0, 2.0])
        W = np.array([[0, 1], [1, 0]])
        expected = -4.0 / 2.0 - 4.0 / (2.0 * 4.0)
        npt.assert_allclose(log_mrf_density(X, W, "gaussian", tau), expected,
                            rtol=1e-15)

    def test_shift_invariance_per_component(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(4, 9))
            W = random_latent_graph(rng, n)
            X = rng.normal(size=(n, 2))
            kind = "gaussian" if trial % 2 == 0 else "student"
            parts = connected_components(W)
            shifts = rng.uniform(-4.0, 4.0, size=(parts.n_components, 2))
            drift = abs(log_mrf_density(X + shifts[parts.assignment], W, kind)
                        - log_mrf_density(X, W, kind))
            assert drift <= 1e-9
