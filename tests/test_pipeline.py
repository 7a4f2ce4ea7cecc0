import copy

import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling.errors import ParameterError
from graphcoupling.kernels import calibrate_bandwidths, kernel_from_sq_dists
from graphcoupling.linalg import pairwise_sq_dists
from graphcoupling.optim import OptimizerConfig
from graphcoupling.pipeline import (
    INIT_SCALE,
    RunSpec,
    default_eval_ks,
    initial_embedding,
    prepare_input,
    rescale_init,
    run,
)
from graphcoupling.spectral import pca

FAST_OPT = OptimizerConfig(iterations=60, momentum_switch=30,
                           exaggeration_iters=30)


def blob_data(seed=0, n=40, p=4, separation=8.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X[n // 2:, 0] += separation
    return X


class TestRunSpec:
    def test_defaults_validate(self):
        spec = RunSpec().validate()
        assert spec.method == "tsne"
        assert spec.init == "pca"
        assert spec.q == 2

    def test_rejects_unknown_fields(self):
        with pytest.raises(ParameterError):
            RunSpec(method="isomap").validate()
        with pytest.raises(ParameterError):
            RunSpec(init="umap").validate()
        with pytest.raises(ParameterError):
            RunSpec(q=0).validate()


class TestPrepareInput:
    def test_normalization_tags_per_method(self):
        X = blob_data(1, n=20)
        expected = {"sne": "row", "tsne": "symmetrized-row",
                    "largevis": "symmetrized-row",
                    "umap": "thresholded-bernoulli"}
        for method, tag in expected.items():
            P, K = prepare_input(X, method, 5.0)
            assert P.normalization == tag
            assert K.kind == "gaussian"

    def test_kernel_shared_across_methods(self):
        # one calibration serves every method, including the edgewise route
        X = blob_data(2, n=18)
        _, K_sne = prepare_input(X, "sne", 6.0)
        _, K_umap = prepare_input(X, "umap", 6.0)
        assert K_sne.values.tobytes() == K_umap.values.tobytes()
        D = pairwise_sq_dists(X)
        tau = calibrate_bandwidths(D, 6.0)
        npt.assert_array_equal(K_sne.bandwidths, tau)
        npt.assert_array_equal(K_sne.values,
                               kernel_from_sq_dists(D, "gaussian", tau).values)


class TestInitialization:
    def test_random_init_scale_and_shape(self):
        X = blob_data(3)
        spec = RunSpec(init="random", seed=5)
        P, K = prepare_input(X, "tsne", 10.0)
        Z0, degenerate = initial_embedding(X, spec, P, K)
        assert Z0.shape == (40, 2)
        assert not degenerate
        # standard normal times 1e-4: all coordinates small, none zero
        assert np.abs(Z0).max() < 1e-3
        assert (Z0 != 0.0).all()

    def test_spectral_inits_hit_exact_peak_scale(self):
        # initial_embedding returns spectral coordinates at their natural
        # scale; run shrinks them with rescale_init
        X = blob_data(4)
        P, K = prepare_input(X, "tsne", 10.0)
        for init in ("pca", "le", "ccpca"):
            spec = RunSpec(init=init, seed=2)
            Z0, _ = initial_embedding(X, spec, P, K)
            npt.assert_allclose(np.abs(rescale_init(Z0, 40)).max(),
                                INIT_SCALE * np.sqrt(40.0), rtol=1e-12)
        pca_Z0, _ = initial_embedding(X, RunSpec(init="pca"), P, K)
        npt.assert_array_equal(pca_Z0, pca(X, 2))

    def test_rescale_preserves_direction(self):
        Z = np.array([[3.0, 0.0], [0.0, -6.0]])
        out = rescale_init(Z, 9)
        npt.assert_allclose(out, Z * (INIT_SCALE * 3.0 / 6.0), rtol=1e-15)

    def test_rescale_zero_matrix_unchanged(self):
        npt.assert_array_equal(rescale_init(np.zeros((3, 2)), 3),
                               np.zeros((3, 2)))

    def test_seed_controls_random_and_ccpca_independently(self):
        X = blob_data(5)
        P, K = prepare_input(X, "tsne", 10.0)
        r0, _ = initial_embedding(X, RunSpec(init="random", seed=0), P, K)
        r1, _ = initial_embedding(X, RunSpec(init="random", seed=1), P, K)
        assert r0.tobytes() != r1.tobytes()
        c0, _ = initial_embedding(X, RunSpec(init="ccpca", seed=0), P, K)
        c0b, _ = initial_embedding(X, RunSpec(init="ccpca", seed=0), P, K)
        assert c0.tobytes() == c0b.tobytes()

    def test_le_init_reports_degenerate_components(self):
        # two far blocks: the affinity support splits and le flags it
        X = blob_data(6, separation=200.0)
        P, K = prepare_input(X, "tsne", 5.0)
        _, degenerate = initial_embedding(X, RunSpec(init="le"), P, K)
        assert degenerate


class TestDefaultKs:
    def test_quarter_and_half(self):
        assert default_eval_ks(100) == (25, 50)

    def test_small_n_clamped_and_merged(self):
        assert default_eval_ks(4) == (1, 2)
        assert default_eval_ks(5) == (1, 2)
        assert default_eval_ks(3) == (1,)


class TestRun:
    def test_deterministic_across_calls(self):
        X = blob_data(7)
        spec = RunSpec(seed=3, optimizer=FAST_OPT)
        a = run(X, spec)
        b = run(X, spec)
        assert a.Z.tobytes() == b.Z.tobytes()
        assert a.history.tobytes() == b.history.tobytes()
        ma = copy.deepcopy(a.manifest)
        mb = copy.deepcopy(b.manifest)
        ma.pop("timings")
        mb.pop("timings")
        assert ma == mb

    def test_exaggeration_policy_by_method(self):
        X = blob_data(8, n=30)
        t = run(X, RunSpec(method="tsne", seed=1, perplexity=10.0,
                           optimizer=FAST_OPT))
        assert t.manifest["run"]["optimizer"]["early_exaggeration"] is True
        s = run(X, RunSpec(method="sne", seed=1, perplexity=10.0,
                           optimizer=FAST_OPT))
        assert s.manifest["run"]["optimizer"]["early_exaggeration"] is False
        forced = run(X, RunSpec(method="tsne", seed=1, perplexity=10.0,
                                optimizer=OptimizerConfig(
                                    iterations=60, momentum_switch=30,
                                    exaggeration_iters=30,
                                    early_exaggeration=False)))
        assert forced.manifest["run"]["optimizer"]["early_exaggeration"] is False

    def test_exaggerated_history_shows_switch(self):
        X = blob_data(9, n=36)
        result = run(X, RunSpec(method="tsne", seed=2, perplexity=12.0,
                                optimizer=FAST_OPT))
        assert result.history[30] < result.history[29]

    def test_manifest_structure(self):
        X = blob_data(10, n=24)
        result = run(X, RunSpec(seed=4, perplexity=8.0, optimizer=FAST_OPT,
                                eval_ks=(3, 8)))
        m = result.manifest
        assert set(m) == {"run", "input", "results", "timings", "artifacts"}
        assert m["input"] == {"rows": 24, "cols": 4}
        assert m["run"]["method"] == "tsne"
        assert m["run"]["latent_kernel"] == "student"
        assert m["results"]["iterations_run"] == len(result.history)
        assert [s["k"] for s in m["results"]["scores"]] == [3, 8]
        npt.assert_allclose(m["results"]["initial_loss"], result.history[0])
        assert all(v >= 0.0 for v in m["timings"].values())

    def test_scores_reproducible_from_artifacts(self):
        # evaluation is a pure function of (X, Z): recomputing from the
        # returned embedding reproduces the manifest scores exactly
        from graphcoupling.evaluation import evaluate_embedding

        X = blob_data(11, n=28)
        result = run(X, RunSpec(seed=5, perplexity=9.0, optimizer=FAST_OPT))
        again = evaluate_embedding(X, result.Z, [s.k for s in result.scores])
        assert again == result.scores
        assert [{"k": s.k, "q": s.q, "r": s.r} for s in again] \
            == result.manifest["results"]["scores"]

    def test_final_loss_matches_best_embedding(self):
        X = blob_data(12, n=24)
        result = run(X, RunSpec(seed=6, perplexity=8.0, optimizer=FAST_OPT))
        from graphcoupling.coupling import CouplingProblem
        P, _ = prepare_input(X, "tsne", 8.0)
        prob = CouplingProblem("tsne", P)
        npt.assert_allclose(result.manifest["results"]["final_loss"],
                            prob.loss(result.Z), rtol=1e-12)

    def test_all_methods_and_inits_run(self):
        X = blob_data(13, n=24)
        tiny = OptimizerConfig(iterations=12, momentum_switch=6,
                               exaggeration_iters=6)
        for method in ("sne", "tsne", "largevis", "umap"):
            for init in ("random", "pca", "le", "ccpca"):
                result = run(X, RunSpec(method=method, init=init, seed=1,
                                        perplexity=8.0, optimizer=tiny,
                                        ccpca_samples=10))
                assert np.isfinite(result.Z).all()
                assert result.Z.shape == (24, 2)
