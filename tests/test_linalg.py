import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling.errors import ContractViolationError
from graphcoupling.linalg import center_columns, leading_signs, pairwise_sq_dists, sym_eig


class TestSymEig:
    def test_two_by_two_oracle(self):
        # [[2,1],[1,2]] has eigenpairs (3, (1,1)/sqrt2) and (1, (1,-1)/sqrt2).
        w, V = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        npt.assert_allclose(w, [3.0, 1.0], rtol=0, atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        npt.assert_allclose(V[:, 0], [s, s], atol=1e-12)
        npt.assert_allclose(V[:, 1], [s, -s], atol=1e-12)

    def test_descending_order_and_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            A = rng.normal(size=(n, n))
            A = (A + A.T) / 2.0
            w, V = sym_eig(A)
            assert (np.diff(w) <= 1e-12).all()
            npt.assert_allclose(V.T @ V, np.eye(n), atol=1e-10)
            npt.assert_allclose(V @ np.diag(w) @ V.T, A, atol=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            A = rng.normal(size=(n, n))
            w, V = sym_eig((A + A.T) / 2.0)
            for k in range(n):
                lead = int(np.argmax(np.abs(V[:, k])))
                assert V[lead, k] > 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(6, 6))
        A = A + A.T
        w1, V1 = sym_eig(A)
        w2, V2 = sym_eig(A.copy())
        assert w1.tobytes() == w2.tobytes()
        assert V1.tobytes() == V2.tobytes()

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolationError):
            sym_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ContractViolationError):
            sym_eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ContractViolationError):
            sym_eig([[np.nan, 0.0], [0.0, 1.0]])

    def test_tolerates_tiny_asymmetry(self):
        A = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        w, _ = sym_eig(A)
        npt.assert_allclose(w, [1.5, 0.5], atol=1e-9)


class TestLeadingSigns:
    def test_roundoff_ties_go_to_lowest_index(self):
        big = np.nextafter(np.nextafter(3.0, 4.0), 4.0)  # 3 plus two units of roundoff
        V = np.array([[3.0, -2.0, 0.0, 1.0],
                      [-big, 2.0, 0.0, -5.0],
                      [0.0, 0.0, 0.0, 1.0]])
        npt.assert_array_equal(leading_signs(V), [1.0, -1.0, 1.0, -1.0])

    def test_matches_argmax_rule_without_ties(self):
        V = np.random.default_rng(4).normal(size=(9, 6))
        lead = np.argmax(np.abs(V), axis=0)
        npt.assert_array_equal(leading_signs(V), np.sign(V[lead, np.arange(6)]))


class TestCenterColumns:
    def test_zero_mean(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 4)) + 10.0
        npt.assert_allclose(center_columns(X).mean(axis=0), 0.0, atol=1e-12)

    def test_constant_column_vanishes(self):
        X = np.full((5, 2), 3.25)
        npt.assert_array_equal(center_columns(X), np.zeros((5, 2)))


class TestPairwiseSqDists:
    def test_unit_separation(self):
        npt.assert_array_equal(pairwise_sq_dists([[0.0], [1.0]]),
                               [[0.0, 1.0], [1.0, 0.0]])

    def test_right_triangle(self):
        X = [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]
        expected = [[0.0, 9.0, 16.0], [9.0, 0.0, 25.0], [16.0, 25.0, 0.0]]
        npt.assert_allclose(pairwise_sq_dists(X), expected, rtol=1e-12, atol=1e-12)

    def test_structure(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(9, 3))
        X[3] = X[7]  # duplicates must yield an exact zero, not a tiny negative
        D = pairwise_sq_dists(X)
        npt.assert_array_equal(np.diag(D), np.zeros(9))
        npt.assert_array_equal(D, D.T)
        assert D.min() >= 0.0
        assert D[3, 7] == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = rng.normal(size=(8, 3))
            shift = rng.uniform(-10.0, 10.0, size=3)
            drift = np.abs(pairwise_sq_dists(X + shift) - pairwise_sq_dists(X)).max()
            assert drift <= 1e-10

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(6, 4))
        direct = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        npt.assert_allclose(pairwise_sq_dists(X), direct, atol=1e-12)
