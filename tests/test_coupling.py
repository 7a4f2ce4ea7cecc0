import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling import coupling, linalg
from graphcoupling.coupling import (
    LARGEVIS,
    METHOD_KINDS,
    SNE,
    TSNE,
    UMAP,
    REQUIRED_NORMALIZATION,
    CouplingProblem,
    input_affinity,
)
from graphcoupling.errors import ContractViolationError, DegenerateRowError, ParameterError
from graphcoupling.graph import weighted_laplacian
from graphcoupling.kernels import (
    GAUSSIAN,
    STUDENT,
    calibrated_kernel,
    kernel_matrix,
    log_kernel,
)
from graphcoupling.linalg import pairwise_sq_dists
from graphcoupling.posterior import AffinityMatrix, posterior_expectation
from graphcoupling.spectral import PrecisionCouplingProblem

from oracles import symmetrize_row_affinity, umap_threshold_prob


def dense_pass(self, Z, exaggeration: float):
    """(attraction, repulsion, objective, gradient) from one pass over D.

    The dense n x n form of ``CouplingProblem._pass``, kept as its oracle.

    The split is of the plain loss; the objective and its gradient
    (None if infinite) are at ``exaggeration``.  The chain factor
    G = dObjective/dD folds in the kernel derivative: -K^2 per unit
    of squared distance for the Student kernel, -K/2 for the Gaussian.
    """
    if not (math.isfinite(exaggeration) and exaggeration > 0.0):
        raise ParameterError(f"exaggeration must be positive, got {exaggeration}")
    Z = self._check_z(Z)
    D = pairwise_sq_dists(Z)
    if not np.isfinite(D).all():
        # Squared distances overflowed; the configuration is out of
        # range, not invalid, so score it with the infinite sentinel.
        return math.inf, math.inf, math.inf, None
    # Each n x n temporary is dropped once used, so at most three are
    # alive at a time.
    logK = log_kernel(D, self.latent_kernel)
    del D
    attraction = float(-(self.P * logK).sum()) * self._edge_scale
    np.fill_diagonal(logK, -np.inf)  # self-pairs carry no latent mass
    normalized = self.method in (SNE, TSNE)
    if normalized:
        axis = 1 if self.method == SNE else None
        peak = logK.max(axis=axis, keepdims=True)
        if not np.isfinite(peak).all():
            return attraction, math.inf, math.inf, None
        # Largest entry 1 per normalizer, so this cannot overflow even
        # when the normalizer itself underflows.
        R = np.exp(logK - peak)
        total = R.sum(axis=axis, keepdims=True)
        weight = self.P.sum(axis=axis, keepdims=True) * self._edge_scale
        repulsion = float((weight * (peak + np.log(total))).sum())
        R *= weight * (exaggeration / total)
        K = np.exp(logK, out=logK) if self.latent_kernel == STUDENT else None
    else:
        # Both edgewise methods reduce to the same ordered-pair form:
        # the (1 - P)-weighted and P-weighted log(1 + K) terms merge.
        K = np.exp(logK, out=logK)
        repulsion = float(np.log1p(K).sum())
        R = 1.0 + K
        np.divide(K, R, out=R)
    del logK
    if not math.isfinite(repulsion):
        return attraction, math.inf, math.inf, None
    objective = exaggeration * attraction + (
        exaggeration * repulsion if normalized else repulsion)
    # R now holds the latent expected graph the repulsion pushes toward.
    G = self.P * (exaggeration * self._edge_scale)
    G -= R
    del R
    if self.latent_kernel == GAUSSIAN:
        G *= 0.5
    else:
        G *= K
    del K
    F = G + G.T
    del G
    grad = 2.0 * (F.sum(axis=1)[:, None] * Z - F @ Z)
    return attraction, repulsion, objective, grad


def _affinity(K, method):
    """Build the affinity a method expects from a calibrated kernel."""
    if method == SNE:
        return posterior_expectation(K, "D")
    if method in (TSNE, LARGEVIS):
        return symmetrize_row_affinity(posterior_expectation(K, "D"))
    return umap_threshold_prob(posterior_expectation(K, "B"))


def uniform_affinity(method, n):
    """Uniform affinity with the normalization tag the method requires."""
    off = ~np.eye(n, dtype=bool)
    if method == SNE:
        V = np.where(off, 1.0 / (n - 1), 0.0)
        return AffinityMatrix(V, "D", "row")
    if method in (TSNE, LARGEVIS):
        V = np.where(off, 2.0 / (n - 1), 0.0)
        return AffinityMatrix(V, "D", "symmetrized-row")
    V = np.where(off, 0.5, 0.0)
    return AffinityMatrix(V, "B", "thresholded-bernoulli")


def equilateral(n=4, q=2, scale=1.0):
    """Coordinates with all pairwise distances equal (simplex corners)."""
    X = np.eye(n)
    X = X - X.mean(axis=0)
    return X * scale


def finite_difference(f, Z, h=1e-6):
    """Central differences of a scalar function of Z."""
    g = np.zeros_like(Z)
    for i in range(Z.shape[0]):
        for j in range(Z.shape[1]):
            Zp = Z.copy()
            Zp[i, j] += h
            Zm = Z.copy()
            Zm[i, j] -= h
            g[i, j] = (f(Zp) - f(Zm)) / (2.0 * h)
    return g


def attraction(prob, Z):
    return prob.attraction_repulsion(Z)[0]


def repulsion(prob, Z):
    return prob.attraction_repulsion(Z)[1]


class TestConstruction:
    def test_tag_requirements(self):
        K = kernel_matrix(np.random.default_rng(0).normal(size=(5, 2)),
                          "gaussian")
        row = posterior_expectation(K, "D")
        CouplingProblem(SNE, row)  # correct pairing passes
        for method in (TSNE, LARGEVIS, UMAP):
            with pytest.raises(ContractViolationError):
                CouplingProblem(method, row)
        with pytest.raises(ContractViolationError):
            CouplingProblem(SNE, posterior_expectation(K, "B"))

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            CouplingProblem("pca", uniform_affinity(SNE, 4))

    def test_default_latent_kernels(self):
        assert CouplingProblem(SNE, uniform_affinity(SNE, 4)).latent_kernel == "gaussian"
        for method in (TSNE, LARGEVIS, UMAP):
            prob = CouplingProblem(method, uniform_affinity(method, 4))
            assert prob.latent_kernel == "student"

    def test_kernel_override(self):
        prob = CouplingProblem(SNE, uniform_affinity(SNE, 4),
                               latent_kernel="student")
        assert prob.latent_kernel == "student"

    @pytest.mark.parametrize("method", [TSNE, LARGEVIS, UMAP])
    def test_rejects_asymmetric_affinity(self, method, block_cells):
        V = uniform_affinity(method, 9).values.copy()
        V[7, 2] = np.nextafter(V[7, 2], 1.0)
        with pytest.raises(ContractViolationError, match="symmetric"):
            CouplingProblem(method, tagged_affinity(method, V))

    @pytest.mark.parametrize("method", METHOD_KINDS)
    def test_accepts_input_affinity(self, method, block_cells):
        X = np.random.default_rng(26).normal(size=(40, 5))
        P = input_affinity(calibrated_kernel(X, 8.0), method)
        CouplingProblem(method, P)
        if method != SNE:
            npt.assert_array_equal(P.values, P.values.T)

    @pytest.mark.parametrize("method", METHOD_KINDS)
    def test_input_affinity_is_the_public_transform(self, method, block_cells):
        # input_affinity writes the posterior over K and symmetrizes it in
        # place; the public transforms work on a copy and must give the
        # same bytes.
        X = np.random.default_rng(27).normal(size=(40, 5))
        K = calibrated_kernel(X, 8.0)
        if method == UMAP:
            want = umap_threshold_prob(posterior_expectation(K, "B"))
        elif method == SNE:
            want = posterior_expectation(K, "D")
        else:
            want = symmetrize_row_affinity(posterior_expectation(K, "D"))
        got = input_affinity(K, method)
        assert got.normalization == want.normalization
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("method", [SNE, TSNE, LARGEVIS])
    def test_failed_validation_leaves_kernel_alone(self, method):
        # The D prior checks every row sum before it writes over K.
        K = kernel_matrix(np.random.default_rng(28).normal(size=(9, 3)), "gaussian")
        K.values[6] = 0.0
        before = K.values.tobytes()
        with pytest.raises(DegenerateRowError, match="row 6"):
            input_affinity(K, method)
        assert K.values.tobytes() == before

    def test_rejects_out_of_range_affinity(self):
        V = np.full((3, 3), 2.0)
        np.fill_diagonal(V, 0.0)
        bad = AffinityMatrix(V, "B", "thresholded-bernoulli")
        with pytest.raises(ContractViolationError):
            CouplingProblem(UMAP, bad)


class TestLossOracles:
    def test_row_loss_uniform_triangle(self):
        # Three equidistant points, Gaussian latent kernel with K = e^{-1/2}:
        # each row normalizer is 2e^{-1/2}, each of the 6 ordered pairs has
        # weight 1/2, so the cross entropy is log 2 per row summed = 3 log 2.
        Z = equilateral(3)
        prob = CouplingProblem(SNE, uniform_affinity(SNE, 3))
        npt.assert_allclose(prob.loss(Z), 3.0 * np.log(2.0), rtol=1e-12)

    def test_global_loss_uniform_triangle(self):
        # Same geometry with P-bar = 2/(n-1) entries and a global student
        # normalizer: attraction = -sum (P/2) log K and repulsion uses the
        # total mass m = 6, giving 3 log 6 at the equilateral configuration.
        Z = equilateral(3)
        prob = CouplingProblem(TSNE, uniform_affinity(TSNE, 3),
                               latent_kernel="student")
        # edge mass m = sum P-bar / 2 = 3; each edge pays log of the global
        # normalizer ratio, which is log 6 when all six kernel values agree.
        npt.assert_allclose(prob.loss(Z), 3.0 * np.log(6.0), rtol=1e-12)

    def test_binary_losses_from_definition(self):
        # Independent recomputation of the LargeVis and UMAP objectives as the
        # Bernoulli cross entropy between the expected edge weight E_ij and
        # the latent edge probability q = K/(1+K), summed over ordered pairs.
        # The implementation never forms q or the (1-E) log(1-q) term; it uses
        # the algebraically merged -E log K + log1p(K) decomposition instead.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 3))
        Z = rng.normal(size=(7, 2))
        S = pairwise_sq_dists(Z)
        K = kernel_matrix(X, "gaussian")

        for method in (LARGEVIS, UMAP):
            prob = CouplingProblem(method, _affinity(K, method))
            E = prob.expected_graph()
            expected = 0.0
            for i in range(7):
                for j in range(7):
                    if i == j:
                        continue
                    q = 1.0 / (2.0 + S[i, j])  # K/(1+K) with K = 1/(1+S)
                    expected -= E[i, j] * np.log(q)
                    expected -= (1.0 - E[i, j]) * np.log1p(-q)
            npt.assert_allclose(prob.loss(Z), expected, rtol=1e-10)

    def test_tsne_matches_classic_symmetric_form(self):
        # With classic_scale the affinity carries mass 1 and the objective is
        # the familiar sum_ij p_ij log(p_ij / q_ij) plus the entropy constant,
        # halved because each ordered pair carries half its undirected weight.
        rng = np.random.default_rng(6)
        X = rng.normal(size=(8, 3))
        Z = rng.normal(size=(8, 2))
        K = kernel_matrix(X, "gaussian")
        P = _affinity(K, TSNE)
        prob = CouplingProblem(TSNE, P, classic_scale=True)

        p = P.values / P.values.sum()
        S = pairwise_sq_dists(Z)
        k = 1.0 / (1.0 + S)
        np.fill_diagonal(k, 0.0)
        q = k / k.sum()
        off = ~np.eye(8, dtype=bool)
        kl = (p[off] * np.log(p[off] / q[off])).sum()
        entropy = -(p[off] * np.log(p[off])).sum()
        npt.assert_allclose(prob.loss(Z), (kl + entropy) / 2.0, rtol=1e-10)

    def test_classic_scale_divides_by_mass(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 2))
        Z = rng.normal(size=(6, 2))
        P = _affinity(kernel_matrix(X, "gaussian"), TSNE)
        raw = CouplingProblem(TSNE, P)
        classic = CouplingProblem(TSNE, P, classic_scale=True)
        npt.assert_allclose(attraction(classic, Z),
                            attraction(raw, Z) / P.values.sum(), rtol=1e-12)

    def test_umap_repulsion_nonnegative_when_threshold_zero(self):
        # With no edges the objective is pure repulsion, a sum of log(1/(1-K))
        # terms that cannot be negative.
        V = np.zeros((4, 4))
        P = AffinityMatrix(V, "B", "thresholded-bernoulli")
        prob = CouplingProblem(UMAP, P)
        Z = np.random.default_rng(8).normal(size=(4, 2))
        assert attraction(prob, Z) == 0.0
        assert repulsion(prob, Z) >= 0.0


class TestDecomposition:
    def test_attraction_plus_repulsion_is_loss(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(9, 3))
        K = kernel_matrix(X, "gaussian")
        for method in METHOD_KINDS:
            P = _affinity(K, method)
            prob = CouplingProblem(method, P)
            for trial in range(5):
                Z = np.random.default_rng(100 + trial).normal(size=(9, 2))
                # bit-exact: both sides are computed from the same terms
                assert attraction(prob, Z) + repulsion(prob, Z) == prob.loss(Z)
                plain = prob.evaluate(Z)
                assert plain.objective == plain.loss == prob.loss(Z)

    def test_gaussian_attraction_is_laplacian_quadratic_form(self):
        # For a Gaussian latent kernel, -sum E_ij log K_ij equals the
        # Laplacian quadratic form tr(Z^T L(E + E^T) Z) / 2.
        rng = np.random.default_rng(10)
        X = rng.normal(size=(6, 3))
        Z = rng.normal(size=(6, 2))
        K = kernel_matrix(X, "gaussian")
        for method in METHOD_KINDS:
            P = _affinity(K, method)
            prob = CouplingProblem(method, P, latent_kernel="gaussian")
            E = prob.expected_graph()
            L = weighted_laplacian(E + E.T)
            quad = np.trace(Z.T @ L @ Z) / 2.0
            npt.assert_allclose(attraction(prob, Z), quad, rtol=1e-10)

    def test_expected_graph_halves_symmetrized_mass(self):
        P = uniform_affinity(TSNE, 5)
        prob = CouplingProblem(TSNE, P)
        npt.assert_allclose(prob.expected_graph(), P.values / 2.0, rtol=1e-15)
        P2 = uniform_affinity(SNE, 5)
        npt.assert_array_equal(
            CouplingProblem(SNE, P2).expected_graph(), P2.values)


class TestLowerBound:
    def test_uniform_affinity_minimized_at_equilateral(self):
        # When targets are uniform the loss cannot drop below its value at a
        # perfectly uniform kernel, attained at equilateral configurations.
        for method in METHOD_KINDS:
            prob = CouplingProblem(method, uniform_affinity(method, 4))
            base = prob.loss(equilateral(4))
            rng = np.random.default_rng(11)
            for _ in range(20):
                Z = rng.normal(size=(4, 4))
                assert prob.loss(Z) >= base - 1e-10

    def test_scaling_equilateral_stays_above(self):
        for method in (SNE, TSNE):
            prob = CouplingProblem(method, uniform_affinity(method, 4))
            base = prob.loss(equilateral(4))
            for s in (0.1, 0.5, 2.0, 10.0):
                assert prob.loss(equilateral(4, scale=s)) >= base - 1e-10


class TestGradient:
    def test_matches_finite_differences_all_methods(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(7, 3))
        K = kernel_matrix(X, "gaussian")
        for method in METHOD_KINDS:
            for latent in ("gaussian", "student"):
                P = _affinity(K, method)
                prob = CouplingProblem(method, P, latent_kernel=latent)
                Z = np.random.default_rng(13).normal(size=(7, 2))
                g = prob.grad(Z)
                fd = finite_difference(prob.loss, Z)
                npt.assert_allclose(g, fd, rtol=2e-5, atol=1e-8)

    def test_gradient_sums_to_zero(self):
        # Translation invariance of pairwise objectives.
        rng = np.random.default_rng(14)
        X = rng.normal(size=(8, 3))
        K = kernel_matrix(X, "gaussian")
        for method in METHOD_KINDS:
            prob = CouplingProblem(method, _affinity(K, method))
            Z = np.random.default_rng(15).normal(size=(8, 2))
            npt.assert_allclose(prob.grad(Z).sum(axis=0), 0.0, atol=1e-10)

    def test_gradient_finite_when_normalizers_underflow(self):
        # A spread-out embedding makes every Gaussian row normalizer
        # underflow (log-sum below -745); the gradient must stay finite
        # because only differences of log kernel values enter it.
        rng = np.random.default_rng(18)
        X = rng.normal(size=(6, 3))
        K = kernel_matrix(X, "gaussian")
        Z = 400.0 * np.random.default_rng(19).normal(size=(6, 2))
        for method in (SNE, TSNE):
            prob = CouplingProblem(method, _affinity(K, method),
                                   latent_kernel="gaussian")
            assert np.isfinite(prob.loss(Z))
            assert np.isfinite(prob.grad(Z)).all()

    def test_classic_scale_scales_gradient(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(6, 3))
        Z = rng.normal(size=(6, 2))
        P = _affinity(kernel_matrix(X, "gaussian"), TSNE)
        raw = CouplingProblem(TSNE, P).grad(Z)
        classic = CouplingProblem(TSNE, P, classic_scale=True).grad(Z)
        npt.assert_allclose(classic, raw / P.values.sum(), rtol=1e-12)


def exaggeration_case(method):
    rng = np.random.default_rng(17)
    X = rng.normal(size=(6, 3))
    Z = rng.normal(size=(6, 2))
    return CouplingProblem(method, _affinity(kernel_matrix(X, "gaussian"), method)), Z


class TestExaggeration:
    @pytest.mark.parametrize("method", [SNE, TSNE])
    def test_normalized_methods_scale_whole_objective(self, method):
        # Exaggeration scales attraction and the normalizer weight alike.
        prob, Z = exaggeration_case(method)
        plain = prob.evaluate(Z)
        boosted = prob.evaluate(Z, 12.0)
        assert boosted.loss == plain.loss
        npt.assert_allclose(boosted.objective, 12.0 * plain.loss, rtol=1e-12)
        npt.assert_allclose(boosted.grad, 12.0 * plain.grad, rtol=1e-12)

    @pytest.mark.parametrize("method", [LARGEVIS, UMAP])
    def test_edgewise_methods_scale_attraction_only(self, method):
        prob, Z = exaggeration_case(method)
        att, rep = prob.attraction_repulsion(Z)
        boosted = prob.evaluate(Z, 4.0)
        assert boosted.loss == prob.loss(Z)
        npt.assert_allclose(boosted.objective, 4.0 * att + rep, rtol=1e-12)
        fd = finite_difference(lambda W: prob.evaluate(W, 4.0).objective, Z)
        npt.assert_allclose(boosted.grad, fd, rtol=2e-5, atol=1e-8)

    def test_factor_must_be_positive(self):
        prob = CouplingProblem(TSNE, uniform_affinity(TSNE, 4))
        for factor in (0.0, -1.0, np.inf):
            with pytest.raises(ParameterError):
                prob.evaluate(equilateral(4), factor)

    def test_precision_coupling_has_no_exaggerated_form(self):
        rng = np.random.default_rng(20)
        prob = PrecisionCouplingProblem(rng.normal(size=(5, 3)))
        Z = rng.normal(size=(5, 2))
        assert prob.evaluate(Z, 1.0).loss == prob.loss(Z)
        with pytest.raises(ParameterError):
            prob.evaluate(Z, 12.0)


class TestNonFinite:
    @pytest.mark.parametrize("method", METHOD_KINDS)
    def test_overflowing_embedding_scores_infinite(self, method):
        # Finite coordinates whose squared distances overflow are out of
        # range, not invalid: the loss is the +inf sentinel the optimizer
        # uses to trigger step halving, and the split stays consistent.
        prob = CouplingProblem(method, uniform_affinity(method, 4))
        Z = np.full((4, 2), 1e200)
        Z[0] = -1e200
        assert prob.loss(Z) == np.inf
        att, rep = prob.attraction_repulsion(Z)
        assert att + rep == prob.loss(Z)
        assert prob.evaluate(Z, 12.0).objective == np.inf
        assert prob.grad(Z) is None

    def test_nan_embedding_raises(self):
        prob = CouplingProblem(TSNE, uniform_affinity(TSNE, 4))
        Z = np.zeros((4, 2))
        Z[1, 0] = np.nan
        with pytest.raises(ContractViolationError):
            prob.loss(Z)

    def test_wrong_row_count_raises(self):
        prob = CouplingProblem(TSNE, uniform_affinity(TSNE, 4))
        with pytest.raises(ContractViolationError):
            prob.loss(np.zeros((5, 2)))


def tagged_affinity(method, V):
    """V under the prior and normalization tags the method requires."""
    return AffinityMatrix(V, "B" if method == UMAP else "D", REQUIRED_NORMALIZATION[method])


def calibrated_problem(method, latent, n, seed):
    X = np.random.default_rng(seed).normal(size=(n, 5))
    K = calibrated_kernel(X, 8.0)
    return CouplingProblem(method, input_affinity(K, method), latent)


class TestBlockedPass:
    N = 30

    # One-row tiles, uneven upper-triangle tiles (7 + 9 + 14 and 13 + 17
    # rows) and a single tile.
    @pytest.mark.parametrize("block_cells", [1, 7 * N, 13 * N + 5, linalg.ROW_BLOCK_CELLS],
                             indirect=True)
    @pytest.mark.parametrize("method", METHOD_KINDS)
    def test_matches_dense_oracle(self, method, block_cells):
        for latent in (GAUSSIAN, STUDENT):
            prob = calibrated_problem(method, latent, self.N, 21)
            # Scale 400 makes every Gaussian normalizer underflow.
            for scale in (1.0, 400.0):
                Z = scale * np.random.default_rng(22).normal(size=(self.N, 2))
                for factor in (1.0, 12.0):
                    att, rep, obj, grad = prob._pass(Z, factor)
                    dense = dense_pass(prob, Z, factor)
                    case = f"{latent} scale={scale} factor={factor}"
                    for got, want in zip((att, rep, obj), dense[:3]):
                        npt.assert_allclose(got, want, rtol=1e-12, err_msg=case)
                    ev = prob.evaluate(Z, factor)
                    assert ev.loss == att + rep, case
                    err = np.abs(grad - dense[3]).max() / np.abs(dense[3]).max()
                    assert err <= 1e-10, case

    @pytest.mark.parametrize("block_cells", [1, 7 * N, 13 * N + 5, linalg.ROW_BLOCK_CELLS],
                             indirect=True)
    @pytest.mark.parametrize("method", METHOD_KINDS)
    def test_any_core_count_gives_the_same_bits(self, monkeypatch, method, block_cells):
        # The tiles run on the workers and are added up in tile order, so
        # the sums are the serial walk's at any core count.
        for latent in (GAUSSIAN, STUDENT):
            prob = calibrated_problem(method, latent, self.N, 21)
            for scale in (1.0, 400.0):
                Z = scale * np.random.default_rng(22).normal(size=(self.N, 2))
                for factor in (1.0, 12.0):
                    runs = []
                    for cores in (1, 2, 3):
                        monkeypatch.setattr(linalg, "usable_cores", lambda c=cores: c)
                        runs.append(prob._pass(Z, factor))
                    case = f"{latent} scale={scale} factor={factor}"
                    for got in runs[1:]:
                        assert got[:3] == runs[0][:3], case
                        assert got[3].tobytes() == runs[0][3].tobytes(), case

    def test_sne_row_sums_taken_once_give_the_same_bits(self, block_cells):
        # sne's tiles are whole rows, so the row sums of P taken once at
        # construction are the ones each tile would take of its own rows.
        class TileRowSums:
            def __init__(self, P):
                self.P = P

            def __getitem__(self, rows):
                return self.P[rows].sum(axis=1, keepdims=True)

        for n in (7, 150, 1000):
            X = np.random.default_rng(n).normal(size=(n, 5))
            P = input_affinity(calibrated_kernel(X, min(8.0, n - 1.0)), SNE)
            Z = np.random.default_rng(n + 1).normal(size=(n, 2))
            for latent in (GAUSSIAN, STUDENT):
                once = CouplingProblem(SNE, P, latent)
                per_tile = CouplingProblem(SNE, P, latent)
                per_tile._row_mass = TileRowSums(per_tile.P)
                for factor in (1.0, 12.0):
                    got, want = once.evaluate(Z, factor), per_tile.evaluate(Z, factor)
                    case = f"n={n} {latent} factor={factor}"
                    assert (got.loss, got.objective) == (want.loss, want.objective), case
                    assert got.grad.tobytes() == want.grad.tobytes(), case

    @pytest.mark.parametrize("block_cells", [1, 7 * N], indirect=True)
    @pytest.mark.parametrize("method", METHOD_KINDS)
    def test_any_overflowing_tile_scores_infinite(self, monkeypatch, method, block_cells):
        # Only the squared distance of the pair (a, b) overflows, so one
        # tile (two full-row tiles for sne) is out of range.
        prob = calibrated_problem(method, None, self.N, 21)
        rng = np.random.default_rng(28)
        for a, b in ((0, 1), (3, 17), (12, 29), (28, 29)):
            Z = rng.normal(size=(self.N, 2))
            Z[a, 0] = 1e154
            assert math.isfinite(prob.loss(Z))
            Z[b, 0] = -1e154
            for cores in (1, 2, 3):
                monkeypatch.setattr(linalg, "usable_cores", lambda c=cores: c)
                assert prob._pass(Z, 1.0) == (math.inf, math.inf, math.inf, None)
            assert dense_pass(prob, Z, 1.0) == (math.inf, math.inf, math.inf, None)

    @pytest.mark.parametrize("method", METHOD_KINDS)
    def test_lone_point_and_overflow_match_dense_oracle(self, method, block_cells):
        prob = CouplingProblem(method, uniform_affinity(method, 4))
        Z = np.full((4, 2), 1e200)
        Z[2] = -1e200
        assert prob._pass(Z, 1.0) == dense_pass(prob, Z, 1.0)
        lone = CouplingProblem(method, tagged_affinity(method, np.zeros((1, 1))))
        got, want = lone._pass(np.zeros((1, 2)), 1.0), dense_pass(lone, np.zeros((1, 2)), 1.0)
        assert got[:3] == want[:3]
        if want[3] is None:
            assert got[3] is None
        else:
            npt.assert_array_equal(got[3], want[3])

    @pytest.mark.parametrize("method", METHOD_KINDS)
    def test_visits_each_pair_once(self, monkeypatch, method, block_cells):
        # The symmetric methods read the upper triangle: n(n + 1) / 2 cells
        # plus the lower half of each tile's diagonal square; sne reads n^2.
        n = 200
        cells = []

        def counted(X):
            dists = linalg._sq_dists(X)

            def count(rows, cols, out=None, work=None):
                D = dists(rows, cols, out, work)
                cells.append(D.size)
                return D
            return count

        prob = calibrated_problem(method, None, n, 24)
        monkeypatch.setattr(coupling, "_sq_dists", counted)
        prob.evaluate(np.random.default_rng(25).normal(size=(n, 2)))
        if method == SNE:
            assert sum(cells) == n * n
        else:
            squares = sum((b.stop - b.start) * (b.stop - b.start - 1) // 2
                          for b in linalg.row_blocks(n, upper=True))
            assert sum(cells) == n * (n + 1) // 2 + squares
            if block_cells == 1:
                assert squares == 0

    def test_no_n_by_n_temporary(self):
        n = 2000
        rng = np.random.default_rng(23)
        P = rng.random((n, n))
        P = (P + P.T) / n
        np.fill_diagonal(P, 0.0)
        Z = rng.normal(size=(n, 2))
        for method in METHOD_KINDS:
            prob = CouplingProblem(method, tagged_affinity(method, P))
            tracemalloc.start()
            try:
                prob.evaluate(Z, 12.0 if method in (SNE, TSNE) else 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 10e6, f"{method}: {peak / 1e6:.1f} MB"
