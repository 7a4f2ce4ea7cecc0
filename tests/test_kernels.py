import warnings

import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling import kernels, linalg
from graphcoupling.errors import (
    ContractViolationError,
    DegenerateRowError,
    ParameterError,
)
from graphcoupling.kernels import (
    ENTROPY_TOL,
    MAX_BISECT_ITERS,
    GAUSSIAN,
    calibrated_kernel,
    kernel_matrix,
    log_kernel,
)
from graphcoupling.linalg import pairwise_sq_dists


def row_entropy_bits(d_row, tau):
    """Independent reference entropy for the calibration tests."""
    p = np.exp(-d_row / (2.0 * tau * tau))
    p = p / p.sum()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def reference_tau(d_row, target):
    """The calibration rule run on one row with the reference entropy."""
    tau, lo, hi = 1.0, 0.0, np.inf
    for _ in range(2 * MAX_BISECT_ITERS):
        h = row_entropy_bits(d_row, tau)
        if abs(h - target) <= ENTROPY_TOL:
            return tau
        if h < target:
            lo = tau
        else:
            hi = tau
        tau = 2.0 * lo if hi == np.inf else (lo + hi) / 2.0
    return tau


def fresh_array_rule(neg_half_d, target):
    """The block rule of calibrated_kernel with a fresh array per step.

    The bit-exact oracle of the buffered rule: same operations, same
    order, no buffer reuse, no in-place compaction.
    """
    tau = np.empty(neg_half_d.shape[0])
    live = np.arange(tau.size)
    t, lo, hi = np.ones(tau.size), np.zeros(tau.size), np.full(tau.size, np.inf)
    for _ in range(2 * MAX_BISECT_ITERS):
        logits = neg_half_d / (t * t)[:, None]
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        s = w.sum(axis=1)
        h = (np.log(s) - (w * logits).sum(axis=1) / s) / np.log(2.0)
        done = np.abs(h - target) <= ENTROPY_TOL
        if done.any():
            tau[live[done]] = t[done]
            keep = ~done
            live, t, lo, hi, h, neg_half_d = (
                a[keep] for a in (live, t, lo, hi, h, neg_half_d))
            if not live.size:
                return tau
        below = h < target
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        t = np.where(np.isinf(hi), 2.0 * lo, (lo + hi) / 2.0)
    tau[live] = t
    return tau


def assert_hits_target_entropy(X):
    D = pairwise_sq_dists(X)
    n = D.shape[0]
    for perplexity in (5.0, 15.0, 29.0):
        tau = calibrated_kernel(X, perplexity).bandwidths
        assert (tau > 0.0).all()
        target = np.log2(perplexity)
        off = ~np.eye(n, dtype=bool)
        for i in range(n):
            h = row_entropy_bits(D[i, off[i]], tau[i])
            assert abs(h - target) <= ENTROPY_TOL


def dead_rows_25_31(X):
    """The squared distances of X with rows 25 and 31 at distance zero from all."""
    D = pairwise_sq_dists(X)
    D[25, :] = D[:, 25] = D[31, :] = D[:, 31] = 0.0
    return D


def off_diagonal_rows(D):
    n = D.shape[0]
    return D[~np.eye(n, dtype=bool)].reshape(n, n - 1)


class TestKernelValues:
    def test_gaussian_unit_separation(self):
        K = kernel_matrix([[0.0], [1.0]], "gaussian").values
        npt.assert_allclose(K[0, 1], np.exp(-0.5), rtol=1e-15)
        npt.assert_allclose(K[1, 0], np.exp(-0.5), rtol=1e-15)

    def test_student_unit_separation(self):
        K = kernel_matrix([[0.0], [1.0]], "student").values
        assert K[0, 1] == 0.5
        assert K[1, 0] == 0.5

    def test_zero_diagonal_convention(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 2))
        for kind in ("gaussian", "student"):
            K = kernel_matrix(X, kind).values
            npt.assert_array_equal(np.diag(K), np.zeros(6))

    def test_bandwidths_break_symmetry(self):
        X = [[0.0], [2.0]]
        tau = np.array([1.0, 2.0])
        K = kernel_matrix(X, "gaussian", tau).values
        npt.assert_allclose(K[0, 1], np.exp(-4.0 / 2.0), rtol=1e-15)
        npt.assert_allclose(K[1, 0], np.exp(-4.0 / (2.0 * 4.0)), rtol=1e-15)
        assert K[0, 1] != K[1, 0]

    def test_log_kernel_consistent(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 3))
        D = pairwise_sq_dists(X)
        tau = rng.uniform(0.5, 2.0, size=5)
        for kind in ("gaussian", "student"):
            K = kernel_matrix(X, kind, tau).values
            L = log_kernel(D, kind, tau)
            off = ~np.eye(5, dtype=bool)
            npt.assert_allclose(np.log(K[off]), L[off], rtol=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 4)) * 3.0
        for kind in ("gaussian", "student"):
            K = kernel_matrix(X, kind).values
            assert K.min() >= 0.0 and K.max() <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            kernel_matrix([[0.0], [1.0]], "cauchy")

    def test_bad_bandwidths(self):
        with pytest.raises(ContractViolationError):
            kernel_matrix([[0.0], [1.0]], "gaussian", [1.0, -1.0])
        with pytest.raises(ContractViolationError):
            kernel_matrix([[0.0], [1.0]], "gaussian", [1.0])


class TestCalibratedKernel:
    def test_equals_kernel_matrix_at_its_bandwidths(self, block_cells):
        rng = np.random.default_rng(9)
        for n, p, perplexity in ((40, 2, 8.0), (150, 6, 20.0)):
            X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0)
            K = calibrated_kernel(X, perplexity)
            oracle = kernel_matrix(X, GAUSSIAN, K.bandwidths)
            assert K.kind == GAUSSIAN
            assert K.values.tobytes() == oracle.values.tobytes()
            npt.assert_array_equal(K.bandwidths, oracle.bandwidths)


class TestCalibration:
    def test_hits_target_entropy(self):
        assert_hits_target_entropy(np.random.default_rng(3).normal(size=(30, 4)))

    @pytest.mark.parametrize("scale, offset", [(1e-3, 0.0), (1e3, 0.0), (1.0, 1e4)])
    def test_hits_target_entropy_at_any_scale(self, scale, offset):
        X = np.random.default_rng(3).normal(size=(30, 4)) * scale + offset
        assert_hits_target_entropy(X)

    def test_matches_independent_solver(self):
        # Line with an outlier, spaced so no row has tied nearest neighbors:
        # ties flatten the entropy curve into an asymptote with no unique
        # bandwidth, so the comparison needs a strict crossing in every row.
        # Solve each row independently by long bisection and compare.
        X = np.array([[0.0], [1.0], [2.3], [3.7], [10.0]])
        D = pairwise_sq_dists(X)
        tau = calibrated_kernel(X, 2.5).bandwidths
        target = np.log2(2.5)
        off = ~np.eye(5, dtype=bool)
        for i in range(5):
            d = D[i, off[i]]
            lo, hi = 1e-6, 1e6
            for _ in range(200):
                mid = (lo + hi) / 2.0
                if row_entropy_bits(d, mid) < target:
                    lo = mid
                else:
                    hi = mid
            npt.assert_allclose(tau[i], (lo + hi) / 2.0, rtol=1e-3)

    def test_monotone_in_perplexity(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        low = calibrated_kernel(X, 5.0).bandwidths
        high = calibrated_kernel(X, 15.0).bandwidths
        assert (high >= low - 1e-9).all()

    def test_two_points(self):
        # A single neighbor has zero entropy for every bandwidth; the
        # bracket never moves and the initial midpoint comes back.
        npt.assert_array_equal(calibrated_kernel([[0.0], [3.0]], 1.0).bandwidths, [1.0, 1.0])

    def test_equidistant_rows(self):
        # Equilateral triangle: entropy is exactly 1 bit regardless of tau.
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        npt.assert_array_equal(calibrated_kernel(X, 2.0).bandwidths, np.ones(3))

    def test_perplexity_range(self):
        X = np.arange(6.0)[:, None]
        with pytest.raises(ParameterError):
            calibrated_kernel(X, 0.5)
        with pytest.raises(ParameterError):
            calibrated_kernel(X, 6.0)

    def test_degenerate_row(self):
        X = np.zeros((4, 2))
        with pytest.raises(DegenerateRowError, match="row 0"):
            calibrated_kernel(X, 2.0)

    def test_follows_the_one_rule_row_by_row(self):
        rng = np.random.default_rng(5)
        for n, perplexity in ((12, 3.0), (40, 10.0), (60, 45.0)):
            X = rng.normal(size=(n, 3)) * rng.uniform(0.1, 10.0)
            D = pairwise_sq_dists(X)
            tau = calibrated_kernel(X, perplexity).bandwidths
            expected = [reference_tau(d, np.log2(perplexity)) for d in off_diagonal_rows(D)]
            npt.assert_array_equal(tau, expected)

    def test_stops_at_a_doubling_within_tolerance(self):
        X = [[0.0], [1.0], [3.0]]
        perplexity = 2.0 ** row_entropy_bits(pairwise_sq_dists(X)[0, 1:], 2.0)
        assert calibrated_kernel(X, perplexity).bandwidths[0] == 2.0

    @pytest.mark.parametrize("block_cells", [1, 7 * 300, linalg.ROW_BLOCK_CELLS],
                             indirect=True)
    def test_worker_count_never_changes_tau_or_k(self, block_cells, monkeypatch):
        # Blocks write disjoint rows of tau and K, so one worker, the
        # usable cores and more workers than cores give the same bytes.
        rng = np.random.default_rng(6)
        centers = rng.normal(size=(5, 6)) * 6.0
        X = centers[rng.integers(0, 5, size=300)] + rng.normal(size=(300, 6))
        D = pairwise_sq_dists(X)
        expected = [reference_tau(d, np.log2(20.0)) for d in off_diagonal_rows(D)]
        default = calibrated_kernel(X, 20.0)
        npt.assert_array_equal(default.bandwidths, expected)
        for workers in (1, 3):
            monkeypatch.setattr(linalg, "usable_cores", lambda w=workers: w)
            K = calibrated_kernel(X, 20.0)
            assert K.bandwidths.tobytes() == default.bandwidths.tobytes()
            assert K.values.tobytes() == default.values.tobytes()

    def test_buffered_rule_equals_the_fresh_array_rule(self, block_cells):
        # Rows of very different scales finish at different steps, so the
        # buffers are compacted often; a row that took another row's
        # maximum would underflow or overflow its weights.
        rng = np.random.default_rng(10)
        X = np.concatenate([rng.normal(size=(30, 3)) * 1e-3,
                            rng.normal(size=(30, 3)) * 10.0 + 100.0,
                            rng.normal(size=(30, 3)) * 300.0])
        X = rng.permutation(X)
        D = pairwise_sq_dists(X)
        for perplexity in (3.0, 20.0):
            target = np.log2(perplexity)
            want = fresh_array_rule(-off_diagonal_rows(D) / 2.0, target)
            got = calibrated_kernel(X, perplexity).bandwidths
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_cells", [1, 7 * 300, linalg.ROW_BLOCK_CELLS],
                             indirect=True)
    def test_block_layout_never_changes_tau(self, block_cells):
        rng = np.random.default_rng(6)
        centers = rng.normal(size=(5, 6)) * 6.0
        X = centers[rng.integers(0, 5, size=300)] + rng.normal(size=(300, 6))
        D = pairwise_sq_dists(X)
        expected = [reference_tau(d, np.log2(20.0)) for d in off_diagonal_rows(D)]
        npt.assert_array_equal(calibrated_kernel(X, 20.0).bandwidths, expected)

    @pytest.mark.parametrize("block_cells", [1, 4 * 40, linalg.ROW_BLOCK_CELLS],
                             indirect=True)
    def test_dead_row_in_a_later_block_named(self, block_cells, monkeypatch):
        # A lone row at distance zero from every other one cannot come from
        # data, so the distances calibration takes are replaced.
        X = np.random.default_rng(7).normal(size=(40, 2))
        monkeypatch.setattr(kernels, "pairwise_sq_dists", lambda _: dead_rows_25_31(X))
        with pytest.raises(DegenerateRowError, match="row 25 "):
            calibrated_kernel(X, 5.0)

    @pytest.mark.parametrize("block_cells", [1, 4 * 40], indirect=True)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_dead_row_named_under_any_worker_count(self, block_cells, workers,
                                                   monkeypatch):
        # Row 31's block may fail first on another thread; row 25's
        # block comes first in order, so its error is the one raised.
        monkeypatch.setattr(linalg, "usable_cores", lambda: workers)
        X = np.random.default_rng(7).normal(size=(40, 2))
        monkeypatch.setattr(kernels, "pairwise_sq_dists", lambda _: dead_rows_25_31(X))
        with pytest.raises(DegenerateRowError, match="row 25 "):
            calibrated_kernel(X, 5.0)

    @pytest.mark.parametrize("block_cells", [1, 4 * 40, linalg.ROW_BLOCK_CELLS],
                             indirect=True)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_coincident_points_name_row_0(self, block_cells, workers, monkeypatch):
        # From data, a row at distance zero from all others makes every row
        # so; every block fails, and the first block's error is raised.
        monkeypatch.setattr(linalg, "usable_cores", lambda: workers)
        with pytest.raises(DegenerateRowError, match="row 0 "):
            calibrated_kernel(np.full((40, 2), 3.0), 5.0)

    def test_unreachable_target_stays_finite(self):
        # Entropy reaches log2(n - 1) only as tau grows without bound
        # unless every neighbor is equidistant.
        rng = np.random.default_rng(8)
        sets = [rng.normal(size=(30, 3)), np.array([[0.0], [1.0], [2.3], [3.7], [10.0]]),
                rng.normal(size=(50, 2)) * 1e3]
        for X in sets:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tau = calibrated_kernel(X, X.shape[0] - 1.0).bandwidths
            assert np.isfinite(tau).all() and (tau > 0.0).all()
