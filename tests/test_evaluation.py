import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphcoupling import linalg
from graphcoupling.errors import ContractViolationError, ParameterError
from graphcoupling.evaluation import (
    NeighborhoodScore,
    _neighbor_sets,
    evaluate_embedding,
)
from graphcoupling.linalg import pairwise_sq_dists, row_blocks

from oracles import kary_agreement, neighbor_indices


def brute_force_neighbors(X, k):
    """Reference ranking: sort (distance, index) pairs per row in Python."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    out = []
    for i in range(n):
        pairs = sorted(
            (float(((X[i] - X[j]) ** 2).sum()), j) for j in range(n) if j != i)
        out.append([j for _, j in pairs[:k]])
    return np.asarray(out)


class TestNeighborIndices:
    def test_matches_brute_force_all_k(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 3))
        D = pairwise_sq_dists(X)
        for k in range(1, 11):
            npt.assert_array_equal(neighbor_indices(D, k),
                                   brute_force_neighbors(X, k))

    def test_tie_break_prefers_smaller_index(self):
        # point 0 is at distance 1 from both 1 and 2; index 1 must win
        X = np.array([[0.0], [1.0], [-1.0], [2.0]])
        D = pairwise_sq_dists(X)
        npt.assert_array_equal(neighbor_indices(D, 1)[0], [1])
        npt.assert_array_equal(neighbor_indices(D, 2)[0], [1, 2])

    def test_duplicate_rows_exclude_self(self):
        X = np.array([[0.0], [0.0], [5.0]])
        D = pairwise_sq_dists(X)
        nn = neighbor_indices(D, 1)
        npt.assert_array_equal(nn[:, 0], [1, 0, 0])


def grid_points(rng, n, dims):
    """Points on a small integer grid: many exact distance ties and duplicates."""
    return rng.integers(0, 4, size=(n, dims)).astype(np.float64)


def oracle_masks(D, ks):
    n = D.shape[0]
    masks = []
    for k in ks:
        mask = np.zeros((n, n), dtype=bool)
        mask[np.arange(n)[:, None], neighbor_indices(D, k)] = True
        masks.append(mask)
    return masks


class TestPartitionedNeighborSets:
    def test_grid_ties_match_neighbor_indices(self, block_cells):
        rng = np.random.default_rng(10)
        for trial in range(40):
            n = int(rng.integers(4, 70))
            D = pairwise_sq_dists(grid_points(rng, n, 1 + trial % 3))
            # k = 1, k = n - 2 and several ks in one call
            ks = sorted({1, n - 2, *rng.integers(1, n - 1, size=3).tolist()})
            blocks = [_neighbor_sets(D[rows].copy(), rows, ks) for rows in row_blocks(n)]
            got = [np.vstack(masks) for masks in zip(*blocks)]
            for k, mask, expected in zip(ks, got, oracle_masks(D, ks)):
                npt.assert_array_equal(mask, expected, err_msg=f"n={n} k={k}")

    def test_scores_match_oracle_sets_in_any_block_layout(self, block_cells):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(150, 5)) + 300.0
        Z = grid_points(rng, 150, 2)
        ks = [1, 37, 75, 148]
        scores = evaluate_embedding(X, Z, ks)
        for score, mx, mz in zip(scores, oracle_masks(pairwise_sq_dists(X), ks),
                                 oracle_masks(pairwise_sq_dists(Z), ks)):
            assert score.q == float((mx & mz).sum()) / (score.k * 150)

    def test_any_worker_count_gives_the_same_scores(self, block_cells, monkeypatch):
        # The workers split one block budget, so the blocks change with
        # their number; the integer counts cannot.
        rng = np.random.default_rng(14)
        X = rng.normal(size=(150, 5)) + 300.0
        Z = grid_points(rng, 150, 2)
        ks = [1, 37, 75, 148]
        scores = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(linalg, "usable_cores", lambda w=workers: w)
            scores.append(evaluate_embedding(X, Z, ks))
        assert scores[0] == scores[1] == scores[2]

    def test_every_layout_gives_the_same_scores_on_wide_quantized_data(self, monkeypatch):
        # Gram distances of more than 3 columns round by the height of
        # their product; values i/255 put many neighbors within that
        # roundoff of the k-th.
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(313, 8)) / 255.0
        Z = rng.normal(size=(313, 4))
        ks = list(range(1, 312, 7))
        scores = set()
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(linalg, "usable_cores", lambda w=workers: w)
            for cells in (1, 100, 5000, 1 << 16):
                monkeypatch.setattr(linalg, "ROW_BLOCK_CELLS", cells)
                scores.add(tuple(evaluate_embedding(X, Z, ks)))
        assert len(scores) == 1

    def test_no_n_by_n_temporary(self, monkeypatch):
        rng = np.random.default_rng(13)
        X, Z = rng.normal(size=(2000, 50)), rng.normal(size=(2000, 2))
        # Each worker holds its own block, rounded up to whole chunks.
        for workers in (linalg.usable_cores(), 4):
            monkeypatch.setattr(linalg, "usable_cores", lambda w=workers: w)
            tracemalloc.start()
            try:
                evaluate_embedding(X, Z, [500, 1000])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 10e6, f"{workers} workers: {peak / 1e6:.1f} MB"

    def test_scores_match_oracle_sets_on_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            X = grid_points(rng, n, 2)
            Z = grid_points(rng, n, 1)
            ks = sorted({1, n // 4 or 1, n // 2, n - 2})
            scores = evaluate_embedding(X, Z, ks)
            for score, mx, mz in zip(scores, oracle_masks(pairwise_sq_dists(X), ks),
                                     oracle_masks(pairwise_sq_dists(Z), ks)):
                assert score.q == float((mx & mz).sum()) / (score.k * n)


@st.composite
def neighbor_set_inputs(draw):
    """(D, ks, height): distances of n in [3, 40] grid points with
    duplicates and exact ties, ascending ks and a row-block height."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.integers(1, 4))
    X = rng.integers(0, levels, size=(n, draw(st.integers(1, 5)))).astype(np.float64)
    k = draw(st.integers(1, n - 2))
    j = draw(st.integers(1, max(1, n - 3)))
    ks = draw(st.sampled_from([
        [k],
        [j, j + 1] if n > 3 else [1],
        sorted({1, n - 2}),
        list(range(1, n - 1)),
        sorted(set(draw(st.lists(st.integers(1, n - 2), min_size=1, max_size=6)))),
    ]))
    return pairwise_sq_dists(X), ks, draw(st.integers(1, n))


class TestNeighborSetProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(neighbor_set_inputs())
    def test_blocks_match_neighbor_indices(self, case):
        D, ks, height = case
        n = D.shape[0]
        blocks = [_neighbor_sets(D[rows].copy(), rows, ks)
                  for rows in row_blocks(n, cells=height * n)]
        got = [np.vstack(masks) for masks in zip(*blocks)]
        for k, mask, expected in zip(ks, got, oracle_masks(D, ks)):
            npt.assert_array_equal(mask, expected, err_msg=f"n={n} k={k} ks={ks}")


class TestKaryAgreement:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 4))
        for k in (1, 5, 10, 18):
            score = kary_agreement(X, X.copy(), k)
            assert score.q == 1.0
            assert score.r == 1.0

    def test_distance_preserving_map_is_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 3))
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        Z = X @ Q + np.array([3.0, -1.0, 0.5])
        assert kary_agreement(X, Z, 5).r == 1.0

    def test_formula_recovered_from_q(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(14, 3))
        Z = rng.normal(size=(14, 2))
        for k in (2, 6):
            score = kary_agreement(X, Z, k)
            n = 14
            npt.assert_allclose(score.r, ((n - 1) * score.q - k) / (n - 1 - k),
                                rtol=1e-15)

    def test_agreement_counts_match_manual_intersection(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 3))
        Z = rng.normal(size=(10, 2))
        k = 3
        nx = brute_force_neighbors(X, k)
        nz = brute_force_neighbors(Z, k)
        overlap = sum(len(set(nx[i]) & set(nz[i])) for i in range(10))
        score = kary_agreement(X, Z, k)
        npt.assert_allclose(score.q, overlap / (k * 10), rtol=1e-15)

    def test_k_range(self):
        X = np.random.default_rng(5).normal(size=(6, 2))
        kary_agreement(X, X, 4)  # n - 2 is allowed
        with pytest.raises(ParameterError):
            kary_agreement(X, X, 0)
        with pytest.raises(ParameterError):
            kary_agreement(X, X, 5)

    def test_row_count_mismatch(self):
        with pytest.raises(ContractViolationError):
            kary_agreement(np.zeros((5, 2)), np.zeros((6, 2)), 2)

    def test_random_permutation_scores_near_zero(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 3))
        rs = []
        for s in range(10):
            perm = np.random.default_rng(100 + s).permutation(60)
            rs.append(kary_agreement(X, X[perm], 15).r)
        assert abs(float(np.mean(rs))) < 0.1


class TestEvaluateEmbedding:
    def test_sorted_and_deduplicated(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 3))
        Z = rng.normal(size=(12, 2))
        scores = evaluate_embedding(X, Z, [5, 2, 5, 9, 2])
        assert [s.k for s in scores] == [2, 5, 9]
        assert all(isinstance(s, NeighborhoodScore) for s in scores)

    def test_values_match_single_calls(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 3))
        Z = rng.normal(size=(12, 2))
        scores = evaluate_embedding(X, Z, [3, 6])
        assert scores[0] == kary_agreement(X, Z, 3)
        assert scores[1] == kary_agreement(X, Z, 6)
