import ctypes
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from queue import SimpleQueue

import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling import evaluation, kernels, linalg
from graphcoupling.coupling import METHOD_KINDS, CouplingProblem, input_affinity
from graphcoupling.errors import ContractViolationError, NumericalError
from graphcoupling.evaluation import evaluate_embedding
from graphcoupling.graph import weighted_laplacian
from graphcoupling.kernels import calibrated_kernel
from graphcoupling.linalg import (
    center_columns,
    leading_signs,
    map_blocks,
    pairwise_sq_dists,
    row_blocks,
)

from oracles import sym_eig


class TestSymEig:
    """The dense oracle of the tests, ``oracles.sym_eig``."""

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

    def test_solves_the_symmetric_part(self):
        # An exactly symmetric A goes to the solver as it is; a slightly
        # asymmetric one as (A + A^T) / 2, whichever triangle eigh reads.
        rng = np.random.default_rng(3)
        A = rng.normal(size=(7, 7))
        A = (A + A.T) / 2.0
        A[5, 1] += 1e-13
        sym = (A + A.T) / 2.0
        for got, want in zip(sym_eig(A), sym_eig(sym)):
            assert got.tobytes() == want.tobytes()

    def test_tolerates_tiny_asymmetry(self):
        A = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        w, _ = sym_eig(A)
        npt.assert_allclose(w, [1.5, 0.5], atol=1e-9)


def random_graph_laplacian(rng, n, pairs=None):
    """Laplacian of a random weighted graph whose ``pairs`` (default all)
    smallest eigenvalues are well separated from each other and the next."""
    pairs = n if pairs is None else pairs
    while True:
        A = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 1.0))
        L = weighted_laplacian(A + A.T)
        w = np.linalg.eigvalsh(L)
        if np.diff(w[:pairs + 1]).min(initial=np.inf) > 1e-4 * np.abs(w).max():
            return L


def needs_dsyevr():
    if linalg._blas_function("LAPACKE_dsyevr") is None:
        pytest.skip("no loaded library exports LAPACKE dsyevr")


def without(patch, names):
    """Make the lookup of each of ``names`` find nothing; every other name is looked up as before."""
    lookup = linalg._blas_function
    patch.setattr(linalg, "_blas_function", lambda name: None if name in names else lookup(name))


def without_lapacke(patch):
    """Make every LAPACKE and CBLAS lookup find nothing, as on an OpenBLAS
    built without them; the thread controls are still found."""
    without(patch, set(linalg._SIGNATURES) - set(linalg._THREAD_CONTROLS))


def dsyevr_returning(info=None, iu_shift=0):
    """A stand-in for the symbol lookup: the real dsyevr, asked for iu -
    iu_shift pairs, whose info is replaced by ``info`` if given; every
    other name is looked up as before."""
    lookup = linalg._blas_function
    dsyevr, integer = lookup("LAPACKE_dsyevr")

    def patched(*args):
        args = list(args)
        args[10] -= iu_shift
        got = dsyevr(*args)
        return got if info is None else info
    return lambda name: (patched, integer) if name == "LAPACKE_dsyevr" else lookup(name)


class TestSymEigLowest:
    """LAPACK's subset solver of the k lowest pairs, ``linalg._lowest_pairs``."""

    def test_matches_the_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for n, ks in ((2, (1, 2)), (3, (1, 2, 3)), (8, (1, 3, 8)), (30, (1, 4, 15, 30)),
                      (120, (1, 3, 10))):
            L = random_graph_laplacian(rng, n, max(ks))
            norm = np.abs(L).sum(axis=1).max()
            full_w, full_V = sym_eig(L)
            for k in ks:
                w, V = linalg._lowest_pairs(L.copy(), k)
                assert w.shape == (k,) and V.shape == (n, k)
                npt.assert_allclose(w, full_w[::-1][:k], rtol=0, atol=1e-12 * norm)
                npt.assert_allclose(V, full_V[:, ::-1][:, :k], rtol=0, atol=1e-10)

    def test_eigenvalues_ascending_columns_signed(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(40, 40))
        w, V = linalg._lowest_pairs(A + A.T, 6)
        assert (np.diff(w) > 0.0).all()
        npt.assert_array_equal(leading_signs(V), np.ones(6))
        npt.assert_allclose(V.T @ V, np.eye(6), atol=1e-12)

    def test_fallback_without_dsyevr_is_the_dense_slice(self, monkeypatch):
        L = random_graph_laplacian(np.random.default_rng(13), 25)
        without_lapacke(monkeypatch)
        w, V = linalg._lowest_pairs(L, 4)
        full_w, full_V = sym_eig(L)
        assert w.tobytes() == full_w[::-1][:4].tobytes()
        assert V.tobytes() == np.ascontiguousarray(full_V[:, ::-1][:, :4]).tobytes()

    def test_fallback_matches_dsyevr(self, monkeypatch):
        needs_dsyevr()
        rng = np.random.default_rng(18)
        for n, k in ((2, 1), (9, 9), (40, 3), (120, 10)):
            L = random_graph_laplacian(rng, n, k)
            norm = np.abs(L).sum(axis=1).max()
            want_w, want_V = linalg._lowest_pairs(L.copy(), k)
            with monkeypatch.context() as patch:
                without_lapacke(patch)
                w, V = linalg._lowest_pairs(L, k)
            npt.assert_allclose(w, want_w, rtol=0, atol=1e-12 * norm)
            npt.assert_allclose(V, want_V, rtol=0, atol=1e-10)

    def test_fallback_runs_on_one_blas_thread(self, blas_at_two_threads, monkeypatch):
        counts = blas_at_two_threads
        without_lapacke(monkeypatch)
        seen, eigh = [], np.linalg.eigh

        def eigh_and_count(a):
            seen.append(counts())
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", eigh_and_count)
        linalg._lowest_pairs(random_graph_laplacian(np.random.default_rng(15), 20), 3)
        assert seen == [1]
        assert counts() == 2

    def test_solver_reads_only_the_upper_triangle(self, monkeypatch):
        # Whatever the strict lower triangle holds, dsyevr and the fallback
        # solve the matrix of the upper one and leave the lower one alone.
        L = random_graph_laplacian(np.random.default_rng(19), 30)
        lower = np.tril_indices(30, -1)
        for solver in ("dsyevr", None):
            if solver is None:
                without_lapacke(monkeypatch)
            else:
                needs_dsyevr()
            want = linalg._lowest_pairs(L.copy(), 4)
            T = L.copy()
            T[lower] = np.random.default_rng(20).normal(size=lower[0].size)
            scribbled = T[lower].copy()
            got = linalg._lowest_pairs(T, 4)
            npt.assert_array_equal(T[lower], scribbled)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_repeatable_at_any_blas_thread_count(self, blas_at_two_threads):
        needs_dsyevr()
        L = random_graph_laplacian(np.random.default_rng(14), 300)
        with linalg.single_blas_thread():
            once = linalg._lowest_pairs(L.copy(), 5)
        counts = blas_at_two_threads
        assert counts() == 2
        twice = linalg._lowest_pairs(L.copy(), 5)
        again = linalg._lowest_pairs(L.copy(), 5)
        assert counts() == 2
        for got in (twice, again):
            assert got[0].tobytes() == once[0].tobytes()
            assert got[1].tobytes() == once[1].tobytes()

    def test_solver_failure_raises(self, monkeypatch):
        needs_dsyevr()
        L = random_graph_laplacian(np.random.default_rng(17), 10)
        failing, short = dsyevr_returning(info=3), dsyevr_returning(iu_shift=1)
        monkeypatch.setattr(linalg, "_blas_function", failing)
        with pytest.raises(NumericalError, match="info=3"):
            linalg._lowest_pairs(L.copy(), 3)
        monkeypatch.setattr(linalg, "_blas_function", short)
        with pytest.raises(NumericalError, match="found 2 eigenpairs, not 3"):
            linalg._lowest_pairs(L, 3)


def needs_cholesky():
    if None in map(linalg._blas_function, linalg._CHOLESKY_FUNCTIONS):
        pytest.skip("no loaded library exports the Cholesky functions")


class TestBlasFunction:
    def test_one_library_one_integer_width_from_the_suffix(self):
        # The solvers and the thread controls come from one build.
        names = ("LAPACKE_dsyevr",) + linalg._CHOLESKY_FUNCTIONS + linalg._THREAD_CONTROLS
        found = [linalg._blas_function(name) for name in names]
        if None in found:
            pytest.skip("numpy's library does not export every LAPACKE, CBLAS and OpenBLAS function")
        for name, (fn, integer) in zip(names, found):
            assert fn.__name__.endswith(name) or fn.__name__.endswith(name + "64_")
            wide = fn.__name__.endswith("64_")
            assert integer is (ctypes.c_int64 if wide else ctypes.c_int)
            assert linalg._blas_function(name)[0] is fn  # looked up once
        assert len({integer for _, integer in found}) == 1

    def test_a_name_no_library_exports_is_none(self, monkeypatch):
        monkeypatch.setitem(linalg._SIGNATURES, "LAPACKE_dnone", (linalg._INT, ()))
        assert linalg._blas_function("LAPACKE_dnone") is None


class TestCholeskyInPlace:
    @pytest.mark.parametrize("panel, update, solve", [(1, 1, 1), (7, 5, 3), (64, 256, 128),
                                                      (1000, 1000, 1000)])
    def test_factor_and_solve_of_the_upper_triangle(self, panel, update, solve, monkeypatch):
        # Panels, update chunks and solve blocks narrower than, equal to
        # and wider than n; the strict lower triangle holds other data and
        # is left alone.
        needs_cholesky()
        monkeypatch.setattr(linalg, "CHOLESKY_PANEL", panel)
        monkeypatch.setattr(linalg, "CHOLESKY_UPDATE_COLUMNS", update)
        monkeypatch.setattr(linalg, "CHOLESKY_SOLVE_ROWS", solve)
        rng = np.random.default_rng(panel)
        for n in (1, 2, 63, 64, 65, 150):
            G = rng.normal(size=(n, n))
            A = G @ G.T / n + np.eye(n)
            T = A.copy()
            lower = np.tril_indices(n, -1)
            T[lower] = rng.normal(size=lower[0].size)
            scribbled = T[lower].copy()
            assert linalg._cholesky_in_place(T, 0.25)
            npt.assert_array_equal(T[lower], scribbled)
            shifted = A + 0.25 * np.eye(n)
            npt.assert_allclose(np.triu(T), np.linalg.cholesky(shifted).T, rtol=0, atol=1e-12)
            B = rng.normal(size=(3, n))
            X = B.copy()
            linalg._cholesky_solve(T, X)
            npt.assert_allclose(X, np.linalg.solve(shifted, B.T).T, rtol=0, atol=1e-12)

    def test_non_positive_pivot_is_false(self):
        needs_cholesky()
        for A, shift in ((np.diag([1.0, 0.0, 2.0]), 0.0), (np.eye(3), -1.0),
                         (np.array([[1.0, 2.0], [2.0, 1.0]]), 0.0)):
            assert not linalg._cholesky_in_place(A.copy(), shift)

    def test_rejects_what_lapack_cannot_take(self):
        T = np.eye(4)
        for bad in (np.eye(4)[:, ::-1], np.eye(4, dtype=np.float32), np.eye(4)[:3],
                    np.asfortranarray(np.eye(4)[:, :3])):
            with pytest.raises(ContractViolationError):
                linalg._cholesky_in_place(bad, 0.0)
        for bad in (np.ones((2, 3)), np.ones((4, 2)).T, np.ones((2, 4), dtype=np.float32)):
            with pytest.raises(ContractViolationError):
                linalg._cholesky_solve(T, bad)

    def test_without_the_functions_leaves_the_matrix(self, monkeypatch):
        without_lapacke(monkeypatch)
        T = np.eye(4) * 2.0
        assert not linalg._cholesky_in_place(T, 1.0)
        npt.assert_array_equal(T, np.eye(4) * 2.0)


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


def recorded_sq_dists(log):
    """``linalg._sq_dists`` whose closures keep a copy of every block they give.

    Each closure appends a dict {(start, stop): distances} to ``log``.
    """
    def sq_dists(X):
        dists, blocks = linalg._sq_dists(X), {}
        log.append(blocks)

        def recorded(rows, cols=slice(None), out=None, work=None):
            D = dists(rows, cols, out, work)
            blocks[rows.start, rows.stop] = D.copy()
            return D
        return recorded
    return sq_dists


def assembled(blocks):
    """The recorded row blocks stacked in row order; they must tile the rows."""
    spans = sorted(blocks)
    assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
    return np.vstack([blocks[span] for span in spans])


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

    def test_offset_pair_does_not_cancel(self):
        # Gram expansion at |x| ~ 1e4 loses the 1e-10 squared distance.
        X = np.array([[1e4, 1e4], [1e4 + 1e-5, 1e4], [0.0, 0.0]])
        exact = (X[1, 0] - X[0, 0]) ** 2
        npt.assert_allclose(pairwise_sq_dists(X)[0, 1], exact, rtol=1e-6)
        npt.assert_allclose(pairwise_sq_dists(X, slice(0, 1))[0, 1], exact, rtol=1e-6)

    @pytest.mark.parametrize("cols", [1, 2, 3, 5])
    def test_row_blocks_assemble_the_full_matrix(self, block_cells, cols):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, cols)) + rng.uniform(-50.0, 50.0, size=cols)
        X[11] = X[29]
        full = pairwise_sq_dists(X)
        D = np.vstack([pairwise_sq_dists(X, rows) for rows in row_blocks(40)])
        assert D.min() >= 0.0 and D[11, 29] == D[29, 11] == 0.0
        npt.assert_array_equal(np.diag(D), np.zeros(40))
        if cols <= 3:
            npt.assert_array_equal(D, full)
        else:
            npt.assert_allclose(D, full, rtol=1e-12, atol=1e-10)

    @pytest.mark.parametrize("cols", [2, 50])
    def test_whole_matrix_keeps_the_gram_formula(self, block_cells, cols):
        # The Gram expansion as an expression over the aligned chunks of
        # GRAM_CHUNK_ROWS rows; the in-place form must give the same bytes.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(45, cols)) * rng.uniform(0.1, 30.0, size=cols)
        X[5] = X[40]
        got = pairwise_sq_dists(X)
        if cols <= linalg.DIRECT_DIFFERENCE_COLS:
            want = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
            npt.assert_array_equal(got, got.T)
        else:
            Xc = X - X.mean(axis=0, keepdims=True)
            sq = np.einsum("ij,ij->i", Xc, Xc)
            G = np.vstack([Xc[lo:lo + linalg.GRAM_CHUNK_ROWS] @ Xc.T
                           for lo in range(0, 45, linalg.GRAM_CHUNK_ROWS)])
            want = sq[:, None] + sq[None, :] - 2.0 * G
            np.clip(want, 0.0, None, out=want)
            np.fill_diagonal(want, 0.0)
            # Chunks may round the two orders of a pair apart, by a few
            # units of roundoff of the row norms.
            bound = 4.0 * np.finfo(np.float64).eps * (sq[:, None] + sq[None, :])
            assert (np.abs(got - got.T) <= bound).all()
        npt.assert_array_equal(got, want)

    def test_whole_matrix_is_the_one_n_by_n_array(self):
        n = 600
        X = np.random.default_rng(9).normal(size=(n, 50))
        tracemalloc.start()
        try:
            D = pairwise_sq_dists(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * D.nbytes, f"{peak / D.nbytes:.2f} n x n arrays"

    def test_every_caller_takes_the_same_bits_on_wide_data(self, monkeypatch):
        # Values i/255 in 8 columns take the Gram expansion; calibration's
        # distance rows, the scorer's X-side blocks and pairwise_sq_dists
        # must agree bit for bit at any core count and block budget.
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(313, 8)) / 255.0
        Z = rng.normal(size=(313, 2))
        seen = set()
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(linalg, "usable_cores", lambda w=workers: w)
            for cells in (1, 100, 1 << 16):
                monkeypatch.setattr(linalg, "ROW_BLOCK_CELLS", cells)
                blocks = []
                monkeypatch.setattr(kernels, "_sq_dists", recorded_sq_dists(blocks))
                monkeypatch.setattr(evaluation, "_sq_dists", recorded_sq_dists(blocks))
                seen.add(pairwise_sq_dists(X).tobytes())
                calibrated_kernel(X, 30.0)
                evaluate_embedding(X, Z, [5, 78])
                calibration, x_side, _ = blocks
                seen.add(assembled(calibration).tobytes())
                seen.add(assembled(x_side).tobytes())
        assert len(seen) == 1

    @pytest.mark.parametrize("cols", [0, 1, 3, 5])
    def test_tiles_match_the_whole_matrix(self, cols):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, cols)) + rng.uniform(-50.0, 50.0, size=cols)
        full = pairwise_sq_dists(X)
        dists = linalg._sq_dists(X)
        for rows, tile in [(slice(0, 30), slice(0, 30)), (slice(4, 9), slice(4, 30)),
                           (slice(4, 9), slice(7, 12)), (slice(20, 30), slice(0, 6)),
                           (slice(29, 30), slice(29, 30))]:
            D = dists(rows, tile)
            # Given buffers, dirty as reused ones, get the same numbers.
            out = np.full(D.shape, np.nan)
            assert dists(rows, tile, out=out, work=np.full(D.shape, np.nan)) is out
            assert out.tobytes() == D.tobytes()
            lo, hi = max(rows.start, tile.start), min(rows.stop, tile.stop)
            own = np.arange(lo, hi)
            npt.assert_array_equal(D[own - rows.start, own - tile.start], 0.0)
            if cols <= linalg.DIRECT_DIFFERENCE_COLS:
                npt.assert_array_equal(D, full[rows, tile])
            else:
                npt.assert_allclose(D, full[rows, tile], rtol=1e-12, atol=1e-10)

    def test_finite_entries_whose_sum_overflows_are_accepted(self, block_cells):
        big = np.full((2, 2), 1e308)
        npt.assert_array_equal(linalg.as_float_matrix(big), big)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ContractViolationError, match="non-finite"):
                linalg.as_float_matrix([[1e308, 1e308], [bad, 0.0]])
        with pytest.raises(ContractViolationError, match="non-finite"):
            linalg.as_float_matrix([[np.inf, -np.inf]])

    def test_result_is_row_major_whatever_the_input_order(self):
        A = np.arange(12.0).reshape(3, 4)
        assert linalg.as_float_matrix(A) is A
        big = np.zeros((6, 8))
        big[::2, ::2] = A
        for given in (np.asfortranarray(A), big[::2, ::2]):
            got = linalg.as_float_matrix(given)
            assert got.flags.c_contiguous
            npt.assert_array_equal(got, A)
        with pytest.raises(ContractViolationError, match="ndim=0"):
            linalg.as_float_matrix(1.0)

    def test_blocks_reject_non_finite_points(self):
        with pytest.raises(ContractViolationError):
            pairwise_sq_dists([[0.0, np.nan], [1.0, 2.0]], slice(0, 1))

    def test_gram_nan_mask_only_where_the_bound_fails(self, monkeypatch):
        # Under the bound no inf - inf can arise, so skipping the mask that
        # turns its NaN into +inf changes no bit.
        X = 3e152 * np.random.default_rng(8).normal(size=(40, 5))
        sq = ((X - X.mean(axis=0)) ** 2).sum(axis=1)
        assert linalg._sq_dists_fit(sq.max())
        bounded = pairwise_sq_dists(X)
        monkeypatch.setattr(linalg, "_sq_dists_fit", lambda sq_norm: False)
        assert pairwise_sq_dists(X).tobytes() == bounded.tobytes()
        assert np.isfinite(bounded).all()

    def test_overflow_is_infinite(self):
        for cols in (2, 5):
            X = np.zeros((3, cols))
            X[0], X[1] = 1e200, -1e200
            assert pairwise_sq_dists(X)[0, 1] == np.inf
            assert pairwise_sq_dists(X, slice(1, 3))[0, 0] == np.inf


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_consecutive_blocks_cover_the_rows(self, block_cells, n):
        blocks = list(row_blocks(n))
        step = max(1, block_cells // max(n, 1))
        assert [b.start for b in blocks] == list(range(0, n, step))
        assert [b.stop for b in blocks] == [min(lo + step, n) for lo in range(0, n, step)]

    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_a_given_budget_replaces_the_default(self, block_cells, n, monkeypatch):
        for upper in (False, True):
            want = list(row_blocks(n, upper))
            monkeypatch.setattr(linalg, "ROW_BLOCK_CELLS", 7)
            assert list(row_blocks(n, upper, cells=block_cells)) == want
            monkeypatch.setattr(linalg, "ROW_BLOCK_CELLS", block_cells)

    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_upper_blocks_widen_within_the_budget(self, block_cells, n):
        blocks = list(row_blocks(n, upper=True))
        bounds = [0] + [b.stop for b in blocks]
        assert [b.start for b in blocks] == bounds[:-1] and bounds[-1] == n
        for b in blocks:
            rows = b.stop - b.start
            assert rows == 1 or rows * (n - b.start) <= block_cells
            assert b.stop == n or (rows + 1) * (n - b.start) > block_cells


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    """Run a test with ``request.param`` workers: one, two, or more than the cores."""
    monkeypatch.setattr(linalg, "usable_cores", lambda: request.param)
    return request.param


@pytest.fixture
def warm_pool(workers):
    """The pool threads a walk at ``workers`` needs, started before the test looks at threads."""
    map_blocks(lambda k: k, range(workers))


@pytest.fixture
def fresh_pool(monkeypatch):
    """A pool with no thread yet for the test; its threads are ended after it."""
    tasks, threads = SimpleQueue(), []
    monkeypatch.setattr(linalg, "_pool_lock", threading.Lock())
    monkeypatch.setattr(linalg, "_pool_tasks", tasks)
    monkeypatch.setattr(linalg, "_pool_threads", threads)
    yield threads
    for _ in threads:
        tasks.put(None)
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive()


#: Seconds a test waits for a walk before it counts the walk as deadlocked.
JOIN_TIMEOUT = 60


def finishes(target, *args):
    """``target(*args)``, called on a new thread that must end within ``JOIN_TIMEOUT``.

    A deadlocked walk fails the test instead of hanging it.
    """
    outcome = []

    def body():
        try:
            outcome.append((True, target(*args)))
        except BaseException as exc:  # re-raised on the test's thread
            outcome.append((False, exc))
    thread = threading.Thread(target=body, daemon=True)  # a deadlock must not hold the process
    thread.start()
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive(), f"{target.__name__} did not finish"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


class TestMapBlocks:
    def test_usable_cores_is_positive(self):
        assert linalg.usable_cores() >= 1

    def test_results_in_block_order(self, workers):
        # Later blocks finish first, so completion order is not block order.
        def fn(k):
            time.sleep(0.001 * (12 - k))
            return k * k
        assert map_blocks(fn, range(12)) == [k * k for k in range(12)]

    def test_at_most_one_block_per_worker_in_flight(self, workers):
        lock = threading.Lock()
        running, most = [0], [0]

        def fn(k):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.002)
            with lock:
                running[0] -= 1
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            map_blocks(fn, range(40))
        finally:
            sys.setswitchinterval(switch)
        assert 1 <= most[0] <= workers

    def test_lowest_failing_block_raises(self, workers):
        # Block 5 fails at once, block 2 after a wait: block 2's error,
        # the one a serial walk raises, must win.
        def fn(k):
            if k == 2:
                time.sleep(0.02)
                raise ValueError("block 2")
            if k == 5:
                raise KeyError("block 5")
            return k
        with pytest.raises(ValueError, match="block 2"):
            map_blocks(fn, range(8))

    def test_no_block_starts_after_a_failure_is_seen(self, workers):
        started = []

        def fn(k):
            started.append(k)
            if k == 0:
                raise ValueError("block 0")
            time.sleep(0.001)
        with pytest.raises(ValueError):
            map_blocks(fn, range(50))
        assert len(started) <= workers

    def test_blocks_run_on_the_calling_thread_and_at_most_workers_threads(self, workers):
        def fn(k):
            time.sleep(0.001)
            return threading.get_ident()
        threads = set(map_blocks(fn, range(3 * workers)))
        assert len(threads) <= workers
        if workers > 1:
            # A caller that only waited would add a thread, and a malloc arena.
            assert threading.get_ident() in threads

    def test_no_thread_outlives_the_walk(self, workers, warm_pool):
        before = set(threading.enumerate())
        map_blocks(lambda k: k, range(10))
        with pytest.raises(ZeroDivisionError):
            map_blocks(lambda k: 1 // 0 if k == 3 else k, range(10))
        assert set(threading.enumerate()) == before

    def test_one_block_runs_on_the_calling_thread(self, workers):
        caller = threading.get_ident()
        assert map_blocks(lambda k: threading.get_ident(), [0]) == [caller]
        assert map_blocks(lambda k: k, []) == []

    def test_fold_takes_results_in_block_order_while_later_blocks_run(self, workers):
        # Later blocks finish first; fold must still see block order.
        finished, handed = [], []

        def fn(k):
            time.sleep(0.001 * (12 - k))
            finished.append(k)
            return k * k

        def fold(result):
            handed.append((result, len(finished)))
        assert map_blocks(fn, range(12), fold) is None
        assert [result for result, _ in handed] == [k * k for k in range(12)]
        if workers > 1:
            # Some result is handed over before every block has finished.
            assert min(done for _, done in handed) < 12

    def test_at_most_one_result_per_worker_waits(self, workers):
        lock = threading.Lock()
        folded, pending = [0], []

        def fn(k):
            with lock:
                # Blocks started and not yet handed over, this one included.
                pending.append(k + 1 - folded[0])
            time.sleep(0.001 * (k % 3))
            return k

        def fold(result):
            time.sleep(0.002)
            folded[0] = result + 1
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            map_blocks(fn, range(30), fold)
        finally:
            sys.setswitchinterval(switch)
        # The window: up to 2 * workers blocks started and not handed over;
        # fold is the slowest step, so the pool threads fill it.
        assert max(pending) == (2 * workers if workers > 1 else 1)

    def test_fold_gets_the_blocks_before_the_lowest_failure(self, workers, warm_pool):
        before = set(threading.enumerate())
        handed = []

        def fn(k):
            if k == 2:
                time.sleep(0.02)
                raise ValueError("block 2")
            if k == 5:
                raise KeyError("block 5")
            return k
        with pytest.raises(ValueError, match="block 2"):
            map_blocks(fn, range(8), handed.append)
        assert handed == [0, 1]
        assert set(threading.enumerate()) == before

    def test_fold_error_is_raised_and_threads_end(self, workers, warm_pool):
        before = set(threading.enumerate())
        handed = []

        def fold(result):
            if result == 3:
                raise ValueError("fold 3")
            handed.append(result)
        with pytest.raises(ValueError, match="fold 3"):
            map_blocks(lambda k: k, range(20), fold)
        assert handed == [0, 1, 2]
        assert set(threading.enumerate()) == before

    def test_a_second_walk_starts_no_thread(self, workers, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)
        monkeypatch.setattr(threading.Thread, "start", counted)

        def walks():
            map_blocks(lambda k: k, range(10))
            first = len(started)
            assert map_blocks(lambda k: k, range(10)) == list(range(10))
            return first, len(started)
        first, second = finishes(walks)
        assert second == first

    def test_pool_threads_never_exceed_the_most_workers_less_one(self, fresh_pool, monkeypatch):
        most = 1
        for cores in (1, 2, 3, 2, 1, 3):
            monkeypatch.setattr(linalg, "usable_cores", lambda: cores)
            assert finishes(map_blocks, lambda k: k * k, range(9)) == [k * k for k in range(9)]
            most = max(most, cores)
            assert len(fresh_pool) == most - 1
            assert all(thread.is_alive() for thread in fresh_pool)

    def test_concurrent_callers_both_finish_in_block_order(self, workers, fresh_pool):
        # With 2 workers the pool has one thread, which one walk's task can
        # hold while the other's waits in the queue.
        barrier = threading.Barrier(2)

        def walk(offset):
            barrier.wait(JOIN_TIMEOUT)

            def fn(k):
                time.sleep(0.001 * (k % 3))
                return offset + k
            return map_blocks(fn, range(40))
        results = {}
        callers = [threading.Thread(target=lambda o=o: results.update({o: walk(o)}), daemon=True)
                   for o in (0, 100)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(JOIN_TIMEOUT)
            assert not caller.is_alive()
        assert results == {o: [o + k for k in range(40)] for o in (0, 100)}
        assert len(fresh_pool) == workers - 1

    def test_a_block_may_run_a_walk_of_its_own(self, workers, fresh_pool):
        # An inner walk called on the one pool thread queues a task that
        # cannot start before the walk ends; the walk must not wait for it.
        def fn(k):
            return map_blocks(lambda j: k * j, range(6))
        assert finishes(map_blocks, fn, range(6)) == [[k * j for j in range(6)]
                                                       for k in range(6)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_forked_child_runs_a_walk_on_its_own_pool(self, workers, warm_pool):
        pid = os.fork()
        if pid == 0:  # the child: report through the exit code only
            code = 1
            try:
                fresh = not linalg._pool_threads
                done = map_blocks(lambda k: k * k, range(20)) == [k * k for k in range(20)]
                code = 0 if fresh and done else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + JOIN_TIMEOUT
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's walk did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_a_walk_works_after_a_failing_block_and_a_failing_fold(self, workers):
        def failing_block():
            with pytest.raises(ValueError, match="block 4"):
                map_blocks(lambda k: k if k != 4 else int("block 4"), range(12))

        def failing_fold():
            def fold(result):
                if result == 5:
                    raise KeyError("fold 5")
            with pytest.raises(KeyError, match="fold 5"):
                map_blocks(lambda k: k, range(12), fold)
        for fail in (failing_block, failing_fold):
            finishes(fail)
            assert finishes(map_blocks, lambda k: -k, range(12)) == [-k for k in range(12)]

    def test_fold_runs_on_the_calling_thread_only(self, workers):
        def walk():
            folders = set()
            map_blocks(lambda k: time.sleep(0.001 * (k % 2)),
                       range(20), lambda _: folders.add(threading.get_ident()))
            return folders, threading.get_ident()
        folders, caller = finishes(walk)
        assert folders == {caller}

    def test_the_calling_thread_runs_block_0_and_folds_in_order(self, workers):
        def walks():
            # Many short walks, switching threads often: a pool thread that
            # could take block 0 would take it in some of them, and a lost
            # update to the cursor or the results would drop or repeat one.
            caller, seen = threading.get_ident(), set()
            for _ in range(200):
                folded = []
                map_blocks(lambda k: (k, threading.get_ident()), range(16), folded.append)
                seen.add((folded[0][1] == caller, tuple(k for k, _ in folded)))
            return seen
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert finishes(walks) == {(True, tuple(range(16)))}
        finally:
            sys.setswitchinterval(switch)

    def test_no_block_runs_after_the_call_raises(self, workers):
        events, second = [], threading.Event()

        def fn(k):
            if k == 0:
                if workers > 1:
                    second.wait(JOIN_TIMEOUT)  # until a pool thread runs block 1
                return 0
            second.set()
            time.sleep(0.02)
            events.append(k)
            return k

        def failing(k):
            if fn(k) == 0:
                raise ValueError("block 0")

        def fold(result):
            raise KeyError("fold 0")
        for args, error in [((failing, range(8)), ValueError), ((fn, range(8), fold), KeyError)]:
            events.clear()
            second.clear()

            def walk():
                with pytest.raises(error):
                    map_blocks(*args)
                events.append("raised")
            finishes(walk)
            time.sleep(0.05)
            assert events[-1] == "raised"


class TestSingleBlasThread:
    def test_finds_numpys_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in str(blas.get("name", "")).lower():
            pytest.skip("numpy is not built with OpenBLAS")
        assert linalg._blas_functions(linalg._THREAD_CONTROLS)

    def test_one_thread_inside_restored_after(self, blas_at_two_threads):
        counts = blas_at_two_threads
        before = counts()
        with linalg.single_blas_thread():
            assert counts() == 1
            with linalg.single_blas_thread():
                assert counts() == 1
            assert counts() == 1
        assert counts() == before

    def test_restored_after_a_raise(self, blas_at_two_threads):
        counts = blas_at_two_threads
        before = counts()
        with pytest.raises(KeyError):
            with linalg.single_blas_thread():
                raise KeyError("inside")
        assert counts() == before

    def test_no_openblas_found_changes_nothing(self, blas_at_two_threads, monkeypatch):
        counts = blas_at_two_threads
        before = counts()
        without(monkeypatch, linalg._THREAD_CONTROLS)
        with linalg.single_blas_thread():
            assert counts() == before

    def test_no_library_finds_nothing_and_holds_nothing(self, blas_at_two_threads,
                                                        without_numpys_blas):
        counts = blas_at_two_threads
        without_numpys_blas()
        assert [linalg._blas_function(name) for name in linalg._SIGNATURES] == [
            None] * len(linalg._SIGNATURES)
        with linalg.single_blas_thread():
            assert counts() == 2
        assert counts() == 2

    def test_holds_numpys_openblas_beside_scipys(self):
        # scipy.linalg loads an OpenBLAS of its own; the solvers and the
        # thread controls are still numpy's, and the hold sets numpy's count.
        pytest.importorskip("scipy.linalg")
        umath = pytest.importorskip("numpy.linalg._umath_linalg")
        if not (hasattr(os, "RTLD_NOLOAD") and hasattr(
                ctypes.CDLL(umath.__file__, mode=os.RTLD_NOLOAD | os.RTLD_LAZY),
                "scipy_openblas_get_num_threads64_")):
            pytest.skip("numpy's BLAS is not the scipy-openblas64 build")
        code = ("import ctypes, os, scipy.linalg\n"
                "from numpy.linalg import _umath_linalg\n"
                "from graphcoupling import linalg\n"
                "lib = ctypes.CDLL(_umath_linalg.__file__, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)\n"
                "address = lambda fn: ctypes.cast(fn, ctypes.c_void_p).value\n"
                "for name in linalg._SIGNATURES:\n"
                "    fn = linalg._blas_function(name)[0]\n"
                "    print(fn.__name__, address(fn) == address(getattr(lib, fn.__name__)))\n"
                "get = lib.scipy_openblas_get_num_threads64_\n"
                "before = get()\n"
                "with linalg.single_blas_thread():\n"
                "    inside = get()\n"
                "print(before, inside, get())\n")
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        lines = done.stdout.splitlines()
        assert lines[:-1] == [f"scipy_{name}64_ True" for name in linalg._SIGNATURES]
        assert lines[-1] == "2 1 2"

    def test_one_thread_in_every_block(self, blas_at_two_threads, workers):
        counts = blas_at_two_threads
        before = counts()
        assert all(c == 1 for c in map_blocks(lambda k: counts(), range(6)))
        assert counts() == before

    def test_restored_after_a_block_raises(self, blas_at_two_threads, workers):
        counts = blas_at_two_threads
        before = counts()
        with pytest.raises(ZeroDivisionError):
            map_blocks(lambda k: 1 // 0 if k == 3 else k, range(8))
        assert counts() == before


class TestShortBuffer:
    @pytest.fixture
    def callers_size(self):
        """A buffer size of the caller's own, neither numpy's nor the package's."""
        saved = np.setbufsize(4096)
        yield 4096
        np.setbufsize(saved)

    def test_every_block_sees_the_package_size(self, workers):
        # The first blocks wait for each other, so each runs on its own thread.
        first = threading.Barrier(workers, timeout=JOIN_TIMEOUT)

        def fn(k):
            if k < workers:
                first.wait()
            return np.getbufsize(), threading.get_ident()
        seen = map_blocks(fn, range(4 * workers))
        assert {size for size, _ in seen} == {linalg.BLOCK_BUFSIZE}
        assert len({thread for _, thread in seen}) == workers
        folded = []
        map_blocks(lambda k: np.getbufsize(), range(2 * workers), folded.append)
        assert folded == [linalg.BLOCK_BUFSIZE] * (2 * workers)

    def test_the_size_is_read_at_call_time(self, workers, monkeypatch):
        monkeypatch.setattr(linalg, "BLOCK_BUFSIZE", 8192)
        assert set(map_blocks(lambda k: np.getbufsize(), range(3 * workers))) == {8192}

    def test_callers_size_restored_after(self, workers, callers_size):
        assert map_blocks(lambda k: k, range(8)) == list(range(8))
        assert np.getbufsize() == callers_size
        with pytest.raises(ZeroDivisionError):
            map_blocks(lambda k: 1 // 0 if k == 3 else k, range(8))
        assert np.getbufsize() == callers_size

    def test_restored_when_a_fold_raises(self, workers, callers_size):
        def fold(result):
            if result == 2:
                raise KeyError("fold")
        with pytest.raises(KeyError):
            map_blocks(lambda k: k, range(8), fold)
        assert np.getbufsize() == callers_size

    def test_pool_threads_put_their_size_back(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(linalg, "usable_cores", lambda: 2)
        first = threading.Barrier(2, timeout=JOIN_TIMEOUT)

        def fn(k):
            if k < 2:
                first.wait()
            return np.getbufsize(), threading.get_ident()
        seen = map_blocks(fn, range(8))
        assert len({thread for _, thread in seen}) == 2
        assert {size for size, _ in seen} == {linalg.BLOCK_BUFSIZE}
        # The pool thread's next task, outside any walk, sees numpy's default.
        sizes = SimpleQueue()
        linalg._pool_submit(lambda: sizes.put(np.getbufsize()), 1)
        assert sizes.get(timeout=JOIN_TIMEOUT) == 8192
        assert len(fresh_pool) == 1


def walked_bits(fn, workers=(1, 2)):
    """The bytes of ``fn()`` at the package's buffer size and at numpy's default
    8192, at each number of ``workers``."""
    bits = []
    for size in (linalg.BLOCK_BUFSIZE, 8192):
        for count in workers:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(linalg, "BLOCK_BUFSIZE", size)
                patch.setattr(linalg, "usable_cores", lambda w=count: w)
                bits.append(fn())
    return bits


class TestBufferSizeChangesNoBits:
    """Values formed under the short buffer are numpy's default bits.

    Rows shorter and longer than 256 and than 8192 elements: the tiles and
    blocks of n = 300 have rows of 300 columns and fewer (the last rows of
    an upper triangle) and hold up to 2^16 cells, which the whole-tile
    sums reduce at once; the scores walk rows of 8200.
    """

    @pytest.mark.parametrize("method", METHOD_KINDS)
    def test_coupling_evaluate(self, method):
        n = 300
        X = np.random.default_rng(40).normal(size=(n, 5))
        Z = np.random.default_rng(41).normal(size=(n, 2))
        for latent in ("gaussian", "student"):
            for classic in (False, True) if method in ("tsne", "largevis") else (False,):
                prob = CouplingProblem(method, input_affinity(calibrated_kernel(X, 20.0), method),
                                       latent, classic_scale=classic)
                for factor in (1.0, 12.0):
                    def evaluate():
                        ev = prob.evaluate(Z, factor)
                        return ev.loss, ev.objective, ev.grad.tobytes()
                    bits = walked_bits(evaluate)
                    case = f"{latent} classic={classic} factor={factor}"
                    assert all(b == bits[0] for b in bits[1:]), case

    @pytest.mark.parametrize("cols", [2, 6])
    def test_calibrated_kernel_with_neighbor_sets(self, cols):
        X = np.random.default_rng(42).normal(size=(300, cols))

        def calibrate():
            K = calibrated_kernel(X, 30.0, ks=(5, 150))
            return (K.values.tobytes(), K.bandwidths.tobytes(), K.evaluations.tobytes(),
                    K.neighbors.tobytes())
        bits = walked_bits(calibrate)
        assert all(b == bits[0] for b in bits[1:])

    def test_evaluate_embedding(self):
        n = 8200
        rng = np.random.default_rng(43)
        X, Z = rng.normal(size=(n, 4)), rng.normal(size=(n, 2))
        bits = walked_bits(lambda: evaluate_embedding(X, Z, [10, 4100]), workers=(2,))
        assert all(b == bits[0] for b in bits[1:])
