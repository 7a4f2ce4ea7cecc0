import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling import linalg, spectral
from graphcoupling.coupling import input_affinity
from graphcoupling.errors import ContractViolationError, NumericalError, ParameterError
from graphcoupling.graph import components_from_support, weighted_laplacian
from graphcoupling.kernels import calibrated_kernel
from graphcoupling.linalg import center_columns, leading_signs, pairwise_sq_dists
from graphcoupling.posterior import AffinityMatrix
from graphcoupling.spectral import laplacian_eigenmaps, pca

from oracles import PrecisionCouplingProblem, precision_coupling_closed_form, sym_eig


def gram_from_spectrum(d, seed=0):
    """Random X whose uncentered Gram has the given eigenvalues."""
    rng = np.random.default_rng(seed)
    n = len(d)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    # X = Q sqrt(diag(d)) has X X^T = Q diag(d) Q^T
    return Q * np.sqrt(np.asarray(d, dtype=np.float64))[None, :]


def dense_evaluate(Z, X, gamma):
    """(loss, gradient) through the n x n matrices I + X X^T and I + Z Z^T.

    The oracle for :class:`PrecisionCouplingProblem`, which uses only X's
    thin SVD and the q x q latent Gram.
    """
    n, q = Z.shape
    _, logdet = np.linalg.slogdet(np.eye(q) + Z.T @ Z)
    BinvZ = np.linalg.solve(np.eye(n) + X @ X.T, Z)
    loss = float((Z * BinvZ).sum()) - gamma * float(logdet)
    grad = 2.0 * BinvZ - 2.0 * gamma * np.linalg.solve(np.eye(n) + Z @ Z.T, Z)
    return loss, grad


def dense_closed_form(X, q, gamma):
    """A minimizer from the eigendecomposition of the n x n X X^T: the oracle."""
    d, V = sym_eig(X @ X.T)
    lam = np.clip(gamma * (1.0 + d[:q]) - 1.0, 0.0, None)
    return V[:, :q] * np.sqrt(lam)[None, :]


def design(shape, seed=0):
    """Tall (n > p), wide (n < p) or rank-deficient (centered, one column duplicated) X."""
    rng = np.random.default_rng(seed)
    if shape == "tall":
        return rng.normal(size=(12, 4)) * [3.0, 1.5, 1.0, 0.5]
    if shape == "wide":
        return rng.normal(size=(5, 9))
    X = rng.normal(size=(10, 4)) * [2.0, 1.0, 0.7, 1.0]
    X[:, 3] = X[:, 0]
    return center_columns(X)  # rank 3


SHAPES = ("tall", "wide", "rank-deficient")
GAMMAS = (0.5, 1.0, 2.0)


class TestPca:
    def test_cross_oracle(self):
        # already centered; variance 18 along y, 2 along x
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 3.0], [0.0, -3.0]])
        npt.assert_allclose(pca(X, 1), [[0.0], [0.0], [3.0], [-3.0]],
                            atol=1e-12)
        npt.assert_allclose(pca(X, 2),
                            [[0.0, 1.0], [0.0, -1.0], [3.0, 0.0], [-3.0, 0.0]],
                            atol=1e-12)

    def test_translation_invariant(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 4))
        shifted = X + np.array([5.0, -3.0, 100.0, 0.25])
        npt.assert_allclose(pca(shifted, 3), pca(X, 3), atol=1e-8)

    def test_full_rank_preserves_distances(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 4))
        Z = pca(X, 4)
        npt.assert_allclose(pairwise_sq_dists(Z), pairwise_sq_dists(X),
                            rtol=1e-9, atol=1e-9)

    def test_column_norms_are_sqrt_eigenvalues(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 5))
        Xc = center_columns(X)
        w = np.sort(np.linalg.eigvalsh(Xc @ Xc.T))[::-1]
        Z = pca(X, 3)
        npt.assert_allclose((Z ** 2).sum(axis=0), w[:3], rtol=1e-10)

    def test_components_are_decorrelated(self):
        rng = np.random.default_rng(4)
        Z = pca(rng.normal(size=(20, 6)), 4)
        off = ~np.eye(4, dtype=bool)
        npt.assert_allclose((Z.T @ Z)[off], 0.0, atol=1e-8)

    def test_q_validation(self):
        X = np.random.default_rng(5).normal(size=(6, 3))
        with pytest.raises(ParameterError):
            pca(X, 0)
        with pytest.raises(ParameterError):
            pca(X, 4)  # q capped by column count


class TestLaplacianEigenmaps:
    def test_path_graph_oracle(self):
        A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        result = laplacian_eigenmaps(A, 1)
        npt.assert_allclose(result.coords,
                            [[1.0 / np.sqrt(2.0)], [0.0], [-1.0 / np.sqrt(2.0)]],
                            atol=1e-12)
        assert result.n_components == 1
        assert not result.degenerate

    def test_columns_solve_low_frequency_spectrum(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(9, 3))
        A = np.exp(-pairwise_sq_dists(X))
        np.fill_diagonal(A, 0.0)
        L = weighted_laplacian(A)
        w = np.sort(np.linalg.eigvalsh(L))
        result = laplacian_eigenmaps(A, 3)
        # ascending nonzero eigenvalues, unit-norm orthogonal eigenvectors
        npt.assert_allclose(result.coords.T @ result.coords, np.eye(3),
                            atol=1e-10)
        for k in range(3):
            v = result.coords[:, k]
            npt.assert_allclose(v @ L @ v, w[1 + k], rtol=1e-9)
            npt.assert_allclose(L @ v, (v @ L @ v) * v, atol=1e-8)

    def test_two_blocks_flagged_degenerate(self):
        A = np.zeros((6, 6))
        for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            A[i, j] = A[j, i] = 1.0
        result = laplacian_eigenmaps(A, 2)
        assert result.degenerate
        assert result.n_components == 2
        # null space is skipped structurally: every returned column is
        # orthogonal to both component indicators
        for ind in (np.r_[np.ones(3), np.zeros(3)],
                    np.r_[np.zeros(3), np.ones(3)]):
            npt.assert_allclose(ind @ result.coords, 0.0, atol=1e-10)

    def test_blocks_joined_by_roundoff_weights_flagged_degenerate(self):
        # One support component, but the 1e-90 bridges sit far below
        # roundoff of the unit weights: the second eigenvalue is numerically
        # null, and the returned direction is arbitrary.
        A = np.full((6, 6), 1e-90)
        A[:3, :3] = A[3:, 3:] = 1.0
        np.fill_diagonal(A, 0.0)
        result = laplacian_eigenmaps(A, 2)
        assert result.n_components == 1
        assert result.eigenvalues[0] <= result.null_tol
        assert result.degenerate
        A[A == 1e-90] = 1e-2
        result = laplacian_eigenmaps(A, 2)
        npt.assert_allclose(result.eigenvalues, [0.06, 3.03], rtol=1e-12)
        assert not result.degenerate

    def test_complete_graph_rayleigh_quotients(self):
        n = 5
        A = np.ones((n, n)) - np.eye(n)
        result = laplacian_eigenmaps(A, 3)
        L = weighted_laplacian(A)
        for k in range(3):
            v = result.coords[:, k]
            npt.assert_allclose(v @ L @ v, float(n), rtol=1e-10)

    def test_asymmetric_input_symmetrized(self):
        A = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
        sym = (A + A.T) / 2.0
        npt.assert_array_equal(laplacian_eigenmaps(A, 1).coords,
                               laplacian_eigenmaps(sym, 1).coords)

    def test_without_dsyevr_gives_the_dense_solvers_embedding(self, monkeypatch):
        # The R + q columns past the null space of the full descending
        # spectrum, read backwards: the embedding of the dense solver.
        A = np.random.default_rng(7).random((60, 60)) ** 8
        np.fill_diagonal(A, 0.0)
        A[:20, 20:] = A[20:, :20] = 0.0  # two components
        L = weighted_laplacian((A + A.T) / 2.0)
        w, V = sym_eig(L)
        want = V[:, 60 - 2 - 3:60 - 2][:, ::-1].copy()
        monkeypatch.setattr(linalg, "_blas_function", lambda name: None)
        result = laplacian_eigenmaps(A, 3)
        assert result.coords.tobytes() == want.tobytes()
        assert result.eigenvalues.tobytes() == w[60 - 2 - 3:60 - 2][::-1].tobytes()

    def test_repeatable_at_any_blas_thread_count(self, blas_at_two_threads):
        A = np.random.default_rng(8).random((200, 200))
        np.fill_diagonal(A, 0.0)
        with linalg.single_blas_thread():
            once = laplacian_eigenmaps(A, 2).coords
        assert blas_at_two_threads() == 2
        for _ in range(2):
            assert laplacian_eigenmaps(A, 2).coords.tobytes() == once.tobytes()

    def test_null_tol_is_from_the_infinity_norm(self):
        # Twice the largest degree, here row 0's 2 + 3, bounds lambda_max.
        A = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        result = laplacian_eigenmaps(A, 2)
        assert result.null_tol == 3 * np.finfo(np.float64).eps * 10.0
        assert np.linalg.eigvalsh(weighted_laplacian(A)).max() <= 10.0

    def test_eigensolver_peak_in_n_by_n_arrays(self):
        # An asymmetric affinity is not borrowed.  Its symmetrized form,
        # its support and the Laplacian are one buffer, which goes to the
        # subset eigensolver uncopied, and the solver keeps only
        # n x (R + q) eigenvectors: the peak, 1.46 n x n at n=400, is that
        # buffer and one 2^16-cell row block (0.41 n x n) of the symmetry
        # check or the norm (the input is allocated before tracing
        # starts).  LAPACKE's own workspace is outside tracemalloc.
        # A band of width 3 keeps the component search's edge lists small.
        n = 400
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 3
        A = np.random.default_rng(5).random((n, n)) * band
        np.fill_diagonal(A, 0.0)
        tracemalloc.start()
        try:
            laplacian_eigenmaps(A, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * A.nbytes, f"{peak / A.nbytes:.2f} n x n arrays"

    def test_dense_affinity_peak_in_n_by_n_arrays(self):
        # The same bound on a dense asymmetric affinity: the component
        # search reads its all-positive support in blocks whose edges stay
        # small.
        n = 400
        A = np.random.default_rng(6).random((n, n))
        np.fill_diagonal(A, 0.0)
        tracemalloc.start()
        try:
            laplacian_eigenmaps(A, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * A.nbytes, f"{peak / A.nbytes:.2f} n x n arrays"

    def test_argument_bytes_unchanged(self):
        rng = np.random.default_rng(16)
        A = rng.random((30, 30)) * (rng.random((30, 30)) < 0.3)
        np.fill_diagonal(A, 0.0)
        for values in (A, A + A.T):
            for P in (values, AffinityMatrix(values, "D", "row")):
                before = values.tobytes()
                laplacian_eigenmaps(P, 2)
                assert values.tobytes() == before

    def test_symmetric_affinity_is_borrowed(self):
        # An exactly symmetric affinity holds the Laplacian in its upper
        # triangle while the solver runs: the peak, 0.08 n x n at n=1000,
        # is one 2^16-cell row block of the symmetry check or the norm, and
        # no n x n array.
        n = 1000
        A = np.random.default_rng(9).random((n, n))
        A += A.T
        np.fill_diagonal(A, 0.0)
        before = A.tobytes()
        tracemalloc.start()
        try:
            laplacian_eigenmaps(A, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.tobytes() == before
        assert peak <= 0.25 * A.nbytes, f"{peak / A.nbytes:.2f} n x n arrays"

    def test_borrowed_affinity_gives_the_copys_result(self, monkeypatch):
        # Self-loops too: the saved diagonal is restored, and the results are
        # those of the same matrix read-only, which is copied.
        rng = np.random.default_rng(17)
        A = rng.random((50, 50)) ** 4
        A += A.T
        A[np.diag_indices(50)] = rng.random(50)
        frozen = A.copy()
        frozen.flags.writeable = False
        for lapacke in ("lapacke", None):
            if lapacke is None:
                monkeypatch.setattr(linalg, "_blas_function", lambda name: None)
            want = laplacian_eigenmaps(frozen, 3)
            for P in (A, AffinityMatrix(A, "B", "thresholded-bernoulli")):
                got = laplacian_eigenmaps(P, 3)
                assert A.tobytes() == frozen.tobytes()
                for a, b in zip(got, want):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_borrowed_affinity_restored_when_the_solver_raises(self, monkeypatch):
        A = np.random.default_rng(18).random((40, 40))
        A += A.T
        np.fill_diagonal(A, 1.0)
        before = A.tobytes()

        def scribble(T, *args):
            T[np.triu_indices(T.shape[0])] = np.nan
            raise NumericalError("solver failed")
        # A block solve of the shift-invert iteration, and the full solver
        # after a non-positive pivot.
        for name in ("_cholesky_solve", "_lowest_pairs"):
            with monkeypatch.context() as patch:
                patch.setattr(spectral, name, scribble)
                if name == "_lowest_pairs":
                    patch.setattr(spectral, "SHIFT_RTOL", -1.0)
                with pytest.raises(NumericalError, match="solver failed"):
                    laplacian_eigenmaps(A, 2)
            assert A.tobytes() == before
        # The real dsyevr overwrites the triangle, then reports info=3.
        lookup = linalg._blas_function
        if lookup("LAPACKE_dsyevr") is not None:
            dsyevr, integer = lookup("LAPACKE_dsyevr")
            monkeypatch.setattr(spectral, "SHIFT_RTOL", -1.0)
            monkeypatch.setattr(linalg, "_blas_function",
                                lambda name: (lambda *args: dsyevr(*args) or 3, integer)
                                if name == "LAPACKE_dsyevr" else lookup(name))
            with pytest.raises(NumericalError, match="info=3"):
                laplacian_eigenmaps(A, 2)
            assert A.tobytes() == before

    def test_q_capped_by_components(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1.0
        A[2, 3] = A[3, 2] = 1.0
        laplacian_eigenmaps(A, 2)  # n - R = 2 is fine
        with pytest.raises(ParameterError):
            laplacian_eigenmaps(A, 3)

    def test_rejects_negative_affinity(self):
        with pytest.raises(ParameterError):
            laplacian_eigenmaps([[0.0, -1.0], [-1.0, 0.0]], 1)


def spiral(n, seed=0):
    """n points along two turns of a spiral in the first two of 10 coordinates, 0.1 noise."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 4.0 * np.pi, n))
    X = 0.1 * rng.standard_normal((n, 10))
    X[:, 0], X[:, 1] = t * np.cos(t), t * np.sin(t)
    return X


def clusters(n, seed=0):
    """n points in 10 Gaussian clusters in 50 dimensions, the benchmark's layout."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 4.0, size=(10, 50))
    return centres[np.arange(n) % 10] + rng.standard_normal((n, 50))


def affinity(X, method="umap", perplexity=15.0):
    return input_affinity(calibrated_kernel(X, perplexity), method).values


def dsyevr_pairs(A, q):
    """(eigenvalues, columns, ||L||_inf) of LAPACK's subset solve of A's Laplacian past R."""
    S = (A + A.T) / 2.0
    R = components_from_support(S).n_components
    L = weighted_laplacian(S)
    w, V = linalg._lowest_pairs(L, R + q)
    return w[R:], V[:, R:], np.abs(L).sum(axis=1).max()


@pytest.fixture
def shift_invert(monkeypatch):
    """Count the block solves, and fail a test whose eigenmaps fall back to the full solver."""
    if None in map(linalg._blas_function, linalg._CHOLESKY_FUNCTIONS):
        pytest.skip("no loaded library exports the Cholesky functions")
    solves = []

    def counted(T, B):
        solves.append(B.shape)
        linalg._cholesky_solve(T, B)

    def no_fallback(T, k):
        raise AssertionError("fell back to the full solver")
    monkeypatch.setattr(spectral, "_cholesky_solve", counted)
    monkeypatch.setattr(spectral, "_lowest_pairs", no_fallback)
    return solves


class TestShiftInvertEigenmaps:
    def test_columns_agree_with_dsyevr_on_separated_spectra(self, shift_invert):
        # A spiral's umap affinity (borrowed), its sne row affinity
        # (symmetrized into a copy), and two spirals with no edge between
        # them (R = 2); consecutive eigenvalues differ by 4e-4 ||L|| or more.
        two = np.zeros((270, 270))
        two[:160, :160] = affinity(spiral(160, seed=1))
        two[160:, 160:] = affinity(spiral(110, seed=2))
        for A in (affinity(spiral(300)), affinity(spiral(300), "sne"), two):
            before = A.tobytes()
            w, V, norm = dsyevr_pairs(A, 3)
            result = laplacian_eigenmaps(A, 3)
            assert A.tobytes() == before
            npt.assert_allclose(result.eigenvalues, w, rtol=0, atol=1e-12 * norm)
            npt.assert_allclose(result.coords, V, rtol=0, atol=1e-10)
            assert not result.degenerate or result.n_components == 2
        assert shift_invert

    def test_subspace_agrees_with_dsyevr_on_clustered_data(self, shift_invert):
        # Ten clusters make one component, but ten eigenvalues within
        # roundoff of zero: dsyevr's first ten columns are arbitrary
        # directions of that space, and so is the iteration's pair, which
        # lies within it, orthogonal to the constant.
        A = affinity(clusters(300))
        w, V, norm = dsyevr_pairs(A, 10)
        assert w[:9].max() <= 1e-12 * norm < 1e-4 * norm <= w[9]
        _, near_null = linalg._lowest_pairs(weighted_laplacian(A), 10)
        result = laplacian_eigenmaps(A, 2)
        npt.assert_allclose(result.eigenvalues, w[:2], rtol=0, atol=1e-12 * norm)
        C = result.coords
        npt.assert_allclose(C - near_null @ (near_null.T @ C), 0.0, atol=1e-10)
        npt.assert_allclose(C.T @ C, np.eye(2), atol=1e-12)
        npt.assert_allclose(C.sum(axis=0), 0.0, atol=1e-12)
        assert result.degenerate

    def test_numerical_null_columns_follow_the_start_block(self, shift_invert):
        # Rayleigh-Ritz only sorts roundoff within the clustered data's
        # numerical null space, and its Ritz vectors there single out a
        # cluster or two.  The columns are instead the start block's first
        # rows projected onto that space and orthonormalized in order.
        A = affinity(clusters(300))
        _, near_null = linalg._lowest_pairs(weighted_laplacian(A), 10)
        rng = np.random.default_rng(spectral.SHIFT_INVERT_SEED)
        start = rng.standard_normal((2 + spectral.GUARD_VECTORS, 300))[:2]
        F = (start - start.mean(axis=1, keepdims=True)) @ near_null @ near_null.T
        F[1] -= (F[1] @ F[0]) / (F[0] @ F[0]) * F[0]
        F /= np.linalg.norm(F, axis=1, keepdims=True)
        result = laplacian_eigenmaps(A, 2)
        npt.assert_allclose(result.coords, F.T * leading_signs(F.T), rtol=0, atol=1e-8)

    def test_spread_keeps_the_ritz_rows_unless_it_passes(self):
        # Fewer than two null rows, or rows whose residual would fail, stay.
        rng = np.random.default_rng(3)
        X = np.linalg.qr(rng.normal(size=(40, 4)))[0].T.copy()
        L = np.diag(np.r_[np.zeros(3), np.ones(37)])
        LX, theta = X @ L, np.einsum("ij,ij->i", X @ L, X)
        start = rng.normal(size=(4, 40))
        for k, norm in ((1, 1.0), (3, 1e-300)):
            before = X.copy()
            spectral._spread_null_rows(X, LX.copy(), theta.copy(), start[:k], norm)
            assert X.tobytes() == before.tobytes()

    def test_tiny_n_block_spans_the_complement(self, shift_invert):
        # n - R <= q + GUARD_VECTORS: the block holds all of L past its null
        # space, and one solve gives the exact pairs.  A path of 3 beside
        # an edge has the nonzero spectrum 1, 2, 3.
        path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        beside = np.zeros((5, 5))
        beside[:3, :3] = path
        beside[3, 4] = beside[4, 3] = 2.0
        for A, q, want in ((np.array([[0.0, 1.0], [1.0, 0.0]]), 1, [2.0]),
                           (path, 2, [1.0, 3.0]), (beside, 3, [1.0, 3.0, 4.0])):
            w, V, norm = dsyevr_pairs(A, q)
            result = laplacian_eigenmaps(A, q)
            npt.assert_allclose(result.eigenvalues, want, rtol=0, atol=1e-12 * norm)
            npt.assert_allclose(result.coords, V, rtol=0, atol=1e-10)
        assert len(shift_invert) == 3

    def test_affinity_scale_does_not_matter(self, shift_invert):
        # The solves are scaled by ||L||_inf and the residuals measured
        # against it, so affinities near either end of the float range
        # converge to dsyevr's pairs.
        A = affinity(spiral(200))
        for scale in (1e-300, 1e300):
            w, V, norm = dsyevr_pairs(A * scale, 2)
            result = laplacian_eigenmaps(A * scale, 2)
            npt.assert_allclose(result.eigenvalues, w, rtol=0, atol=1e-12 * norm)
            npt.assert_allclose(result.coords, V, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("force", ["budget", "pivot"])
    def test_forced_fallback_gives_the_dsyevr_bytes(self, force, monkeypatch):
        # One solve is too few for the spiral; a shift of -||L||_inf makes
        # the first pivot negative.  Either way L is rebuilt over the
        # factor, the full solver gives its bytes, and P its own.
        if force == "budget":
            monkeypatch.setattr(spectral, "SHIFT_INVERT_SOLVES", 1)
        else:
            monkeypatch.setattr(spectral, "SHIFT_RTOL", -1.0)
        A = affinity(spiral(200))
        before = A.tobytes()
        w, V, _ = dsyevr_pairs(A, 2)
        result = laplacian_eigenmaps(A, 2)
        assert A.tobytes() == before
        assert result.eigenvalues.tobytes() == w.tobytes()
        assert result.coords.tobytes() == np.ascontiguousarray(V).tobytes()

    def test_fallback_when_no_gap_follows_the_block(self, monkeypatch):
        # A dense uniform affinity's spectrum clusters near its mean
        # degree: the residuals stall, and the iteration stops well before
        # its budget.
        solves = []
        monkeypatch.setattr(spectral, "_cholesky_solve",
                            lambda T, B: solves.append(1) or linalg._cholesky_solve(T, B))
        A = np.random.default_rng(8).random((200, 200))
        np.fill_diagonal(A, 0.0)
        w, V, _ = dsyevr_pairs(A, 2)
        result = laplacian_eigenmaps(A, 2)
        assert result.coords.tobytes() == np.ascontiguousarray(V).tobytes()
        assert len(solves) < spectral.SHIFT_INVERT_SOLVES

    def test_repeatable_at_any_blas_thread_count(self, shift_invert, blas_at_two_threads):
        A = affinity(spiral(300))
        with linalg.single_blas_thread():
            once = laplacian_eigenmaps(A, 3)
        assert blas_at_two_threads() == 2
        for _ in range(2):
            again = laplacian_eigenmaps(A, 3)
            assert again.coords.tobytes() == once.coords.tobytes()
            assert again.eigenvalues.tobytes() == once.eigenvalues.tobytes()
        assert blas_at_two_threads() == 2

    def test_borrowed_peak_in_n_by_n_arrays(self, shift_invert):
        # The iteration holds blocks of n x (q + GUARD_VECTORS) and one
        # square of a quarter row block, so a borrowed P keeps the bound of
        # the full solver's path.
        A = affinity(spiral(1000))
        tracemalloc.start()
        try:
            laplacian_eigenmaps(A, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * A.nbytes, f"{peak / A.nbytes:.2f} n x n arrays"


class TestPrecisionObjective:
    def test_frozen_value(self):
        Z = np.array([[1.0], [0.0]])
        X = np.zeros((2, 1))
        for gamma in (0.5, 1.0, 2.0):
            npt.assert_allclose(PrecisionCouplingProblem(X, gamma).evaluate(Z).loss,
                                1.0 - gamma * np.log(2.0), rtol=1e-14)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(8, 3))
        Z = rng.normal(size=(8, 2))
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        prob = PrecisionCouplingProblem(X, 1.5)
        npt.assert_allclose(prob.evaluate(Z @ Q).loss, prob.evaluate(Z).loss, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(6, 3))
        Z = rng.normal(size=(6, 2))
        prob = PrecisionCouplingProblem(X, 0.7)
        g = prob.evaluate(Z).grad
        h = 1e-6
        for i in range(6):
            for j in range(2):
                Zp = Z.copy()
                Zp[i, j] += h
                Zm = Z.copy()
                Zm[i, j] -= h
                fd = (prob.evaluate(Zp).loss - prob.evaluate(Zm).loss) / (2.0 * h)
                npt.assert_allclose(g[i, j], fd, rtol=2e-5, atol=1e-9)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_dense_oracle(self, shape, gamma):
        X = design(shape)
        Z = np.random.default_rng(9).normal(size=(X.shape[0], 3))
        got = PrecisionCouplingProblem(X, gamma).evaluate(Z)
        loss, grad = dense_evaluate(Z, X, gamma)
        assert got.objective == got.loss
        assert abs(got.loss - loss) <= 1e-12 * abs(loss)
        assert np.abs(got.grad - grad).max() <= 1e-10 * np.abs(grad).max()

    def test_gamma_must_be_positive(self):
        for gamma in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ParameterError):
                PrecisionCouplingProblem(np.zeros((3, 2)), gamma)

    def test_row_count_must_match_x(self):
        prob = PrecisionCouplingProblem(np.ones((4, 2)))
        with pytest.raises(ContractViolationError, match="5 rows but X has 4"):
            prob.evaluate(np.ones((5, 2)))

    def test_no_n_by_n_array(self):
        # X's n x p singular vectors and the q x q latent Gram stand in for
        # the n x n I + X X^T and I + Z Z^T.
        rng = np.random.default_rng(10)
        n = 2000
        X = rng.normal(size=(n, 50))
        Z = rng.normal(size=(n, 2))
        tracemalloc.start()
        try:
            PrecisionCouplingProblem(X, 1.5).evaluate(Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * n * n, f"{peak / (8 * n * n):.3f} n x n arrays"


class TestClosedForm:
    def test_spectrum_oracle_gamma_one(self):
        X = gram_from_spectrum([4.0, 1.0, 0.25], seed=9)
        Z = precision_coupling_closed_form(X, 2, gamma=1.0)
        npt.assert_allclose(np.sort((Z ** 2).sum(axis=0))[::-1], [4.0, 1.0],
                            rtol=1e-10)

    def test_small_gamma_collapses_to_zero(self):
        X = gram_from_spectrum([4.0, 1.0, 0.25], seed=10)
        Z = precision_coupling_closed_form(X, 3, gamma=0.1)
        npt.assert_array_equal(Z, np.zeros((3, 3)))

    def test_stationary_point(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 4))
        Z = precision_coupling_closed_form(X, 2, gamma=1.0)
        npt.assert_allclose(PrecisionCouplingProblem(X, 1.0).evaluate(Z).grad, 0.0,
                            atol=1e-9)

    def test_objective_not_above_random_candidates(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(7, 3))
        for gamma in (0.5, 1.0, 2.0):
            prob = PrecisionCouplingProblem(X, gamma)
            base = prob.evaluate(precision_coupling_closed_form(X, 2, gamma)).loss
            for _ in range(25):
                other = rng.normal(size=(7, 2))
                assert base <= prob.evaluate(other).loss + 1e-10

    def test_gamma_one_is_pca_on_centered_data(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(10, 4))
        Z = precision_coupling_closed_form(center_columns(X), 2, gamma=1.0)
        P = pca(X, 2)
        npt.assert_allclose(Z @ Z.T, P @ P.T, atol=1e-8)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("shape, q", [("tall", 2), ("tall", 4), ("wide", 2),
                                          ("wide", 5), ("rank-deficient", 2)])
    def test_matches_dense_oracle(self, shape, q, gamma):
        # q stays within rank(X), where lambda_q > lambda_{q+1} and Z Z^T is unique.
        X = design(shape)
        Z = precision_coupling_closed_form(X, q, gamma)
        want = dense_closed_form(X, q, gamma)
        gram = want @ want.T
        assert np.abs(Z @ Z.T - gram).max() <= 1e-10 * max(1.0, np.abs(gram).max())

    @pytest.mark.parametrize("gamma", (0.5, 1.0))
    @pytest.mark.parametrize("shape, q", [("tall", 6), ("rank-deficient", 4),
                                          ("rank-deficient", 6)])
    def test_beyond_rank_unique_when_gamma_at_most_one(self, shape, q, gamma):
        # Every null direction of X X^T gets weight max(0, gamma - 1) = 0.
        X = design(shape)
        Z = precision_coupling_closed_form(X, q, gamma)
        want = dense_closed_form(X, q, gamma)
        gram = want @ want.T
        assert np.abs(Z @ Z.T - gram).max() <= 1e-10 * max(1.0, np.abs(gram).max())

    @pytest.mark.parametrize("shape, q", [("tall", 6), ("rank-deficient", 4),
                                          ("rank-deficient", 6)])
    def test_beyond_rank_optimal_when_gamma_above_one(self, shape, q):
        # Null directions carry gamma - 1 > 0 and any orthonormal completion
        # of them is optimal, so Z Z^T is not unique: compare objectives.
        X = design(shape)
        prob = PrecisionCouplingProblem(X, 2.0)
        Z = precision_coupling_closed_form(X, q, 2.0)
        best = dense_evaluate(dense_closed_form(X, q, 2.0), X, 2.0)[0]
        got = prob.evaluate(Z)
        assert abs(got.loss - best) <= 1e-12 * abs(best)
        assert np.abs(got.grad).max() <= 1e-10

    def test_no_n_by_n_array(self):
        rng = np.random.default_rng(14)
        n = 2000
        X = rng.normal(size=(n, 50))
        tracemalloc.start()
        try:
            precision_coupling_closed_form(X, 50, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * n * n, f"{peak / (8 * n * n):.3f} n x n arrays"

    @pytest.mark.parametrize("gamma", (0.0, -1.0, np.inf, np.nan))
    def test_gamma_must_be_positive(self, gamma):
        with pytest.raises(ParameterError):
            precision_coupling_closed_form(np.ones((4, 2)), 1, gamma)

    def test_q_validation(self):
        with pytest.raises(ParameterError):
            precision_coupling_closed_form(np.zeros((4, 2)), 0)
        with pytest.raises(ParameterError):
            precision_coupling_closed_form(np.zeros((4, 2)), 5)
