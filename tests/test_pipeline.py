import copy
import sys
import threading
import tracemalloc
import types
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from graphcoupling import kernels, linalg, pipeline
from graphcoupling.errors import ParameterError
from graphcoupling.evaluation import evaluate_embedding
from graphcoupling.kernels import GAUSSIAN, calibrated_kernel, kernel_matrix
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
        tau = calibrated_kernel(X, 6.0).bandwidths
        npt.assert_array_equal(K_sne.bandwidths, tau)
        npt.assert_array_equal(K_sne.values, kernel_matrix(X, GAUSSIAN, tau).values)

    @pytest.mark.parametrize("method", ["tsne", "largevis", "umap"])
    def test_peak_memory_in_n_by_n_arrays(self, method, monkeypatch):
        # The kernel is written over the distances, so calibration holds
        # one n x n array plus the temporaries of the blocks in flight,
        # and the affinity is the second.  The bound is for two blocks in
        # flight; each further worker adds one block's temporaries, a
        # fixed ~1.6 MB (0.57 n x n at this n).
        monkeypatch.setattr(linalg, "usable_cores", lambda: 2)
        n = 600
        X = np.random.default_rng(16).normal(size=(n, 50))
        tracemalloc.start()
        try:
            prepare_input(X, method, 30.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (n * n * 8) <= 2.5


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
        # No K lies in [1, n - 2] below three rows.
        assert default_eval_ks(2) == ()


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
        assert m["input"] == {
            "rows": 24, "cols": 4,
            "calibration": {"evaluations": int(calibrated_kernel(X, 8.0).evaluations.sum()),
                            "capped_rows": 0}}
        assert 0 <= m["results"]["best_iteration"] <= m["results"]["iterations_run"]
        assert m["run"]["method"] == "tsne"
        assert m["run"]["latent_kernel"] == "student"
        assert m["results"]["iterations_run"] == len(result.history)
        assert [s["k"] for s in m["results"]["scores"]] == [3, 8]
        npt.assert_allclose(m["results"]["initial_loss"], result.history[0])
        assert all(v >= 0.0 for v in m["timings"].values())

    @pytest.mark.parametrize("block_cells", [1, linalg.ROW_BLOCK_CELLS], indirect=True)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_calibration_report_independent_of_blocks_and_cores(
            self, block_cells, workers, monkeypatch):
        X = blob_data(17, n=50)
        spec = RunSpec(seed=4, perplexity=12.0, optimizer=OptimizerConfig(iterations=3))
        default = run(X, spec).manifest["input"]["calibration"]
        monkeypatch.setattr(linalg, "usable_cores", lambda: workers)
        assert run(X, spec).manifest["input"]["calibration"] == default
        assert default == {"evaluations": int(calibrated_kernel(X, 12.0).evaluations.sum()),
                           "capped_rows": 0}

    def test_capped_rows_counted(self, monkeypatch):
        # With a cap of one evaluation every row stops at the cap and is
        # counted, met or not.
        X = blob_data(18, n=30)
        monkeypatch.setattr(kernels, "MAX_ENTROPY_EVALS", 1)
        monkeypatch.setattr(pipeline, "MAX_ENTROPY_EVALS", 1)
        evaluations = calibrated_kernel(X, 8.0).evaluations
        assert (evaluations == 1).all()
        report = run(X, RunSpec(perplexity=8.0, optimizer=OptimizerConfig(iterations=2))
                     ).manifest["input"]["calibration"]
        assert report == {"evaluations": 30, "capped_rows": 30}

    def test_sne_divergence_shows_in_best_iteration(self):
        # The default optimizer diverges on sne here: the loss grows by
        # orders of magnitude after the first step, and the fit returns
        # iterate 1.
        X = np.random.default_rng(0).standard_normal((300, 8))
        result = run(X, RunSpec(method="sne", init="pca", seed=1,
                                optimizer=OptimizerConfig(iterations=30)))
        results = result.manifest["results"]
        assert results["best_iteration"] == 1
        assert results["final_loss"] == result.history[1] < result.history[0]
        assert result.history[-1] > 1e6 * results["final_loss"]

    def test_scores_reproducible_from_artifacts(self):
        # evaluation is a pure function of (X, Z): recomputing from the
        # returned embedding reproduces the manifest scores exactly
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

    @pytest.mark.parametrize("method", ["sne", "tsne", "largevis", "umap"])
    def test_row_blocks_match_a_single_block(self, monkeypatch, method):
        # At n = 300 the default budget splits every pass into two blocks.
        X = blob_data(15, n=300, p=5)
        assert linalg.ROW_BLOCK_CELLS < 300 * 300
        spec = RunSpec(method=method, perplexity=20.0, seed=2,
                       optimizer=OptimizerConfig(iterations=20))
        blocked = run(X, spec)
        monkeypatch.setattr(linalg, "ROW_BLOCK_CELLS", 300 * 300)
        single = run(X, spec)
        assert np.abs(blocked.Z - single.Z).max() <= 1e-12 * np.abs(single.Z).max()
        assert blocked.scores == single.scores

    def test_bad_eval_k_rejected_before_prepare(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "prepare_input", lambda *args: calls.append(args))
        with pytest.raises(ParameterError, match="got 400"):
            run(blob_data(16, n=300), RunSpec(eval_ks=(400,)))
        assert calls == []

    @pytest.mark.parametrize("method, init", [("tsne", "ccpca"), ("umap", "le"),
                                              ("sne", "random"), ("largevis", "pca")])
    def test_input_side_freed_before_scoring(self, monkeypatch, method, init):
        # The n x n affinity and kernel must be gone before scoring, and the
        # kernel before any initialization but ccPCA, the one that reads it.
        refs, scored, kernel_at_init = [], [], []

        def prepare_and_watch(*args):
            affinity, kernel = prepare_input(*args)
            refs.extend(weakref.ref(m.values) for m in (affinity, kernel))
            return affinity, kernel

        def init_and_watch(*args):
            kernel_at_init.append(refs[1]() is not None)
            return initial_embedding(*args)

        def evaluate_when_freed(*args):
            scored.append(all(ref() is None for ref in refs))
            return evaluate_embedding(*args)

        monkeypatch.setattr(pipeline, "prepare_input", prepare_and_watch)
        monkeypatch.setattr(pipeline, "initial_embedding", init_and_watch)
        monkeypatch.setattr(pipeline, "evaluate_embedding", evaluate_when_freed)
        tiny = OptimizerConfig(iterations=12, momentum_switch=6, exaggeration_iters=6)
        run(blob_data(14, n=24), RunSpec(method=method, init=init, seed=1, perplexity=8.0,
                                         optimizer=tiny, ccpca_samples=5))
        assert len(refs) == 2
        assert kernel_at_init == [init == "ccpca"]
        assert scored == [True]


class TestThreads:
    SPEC = RunSpec(method="umap", init="le", perplexity=8.0, seed=1,
                   optimizer=OptimizerConfig(iterations=12))

    def test_one_blas_thread_inside_run_restored_after(self, monkeypatch,
                                                        blas_at_two_threads):
        counts = blas_at_two_threads
        before = counts()
        seen, minimize = [], pipeline.minimize

        def minimize_and_count(*args):
            seen.append(counts())
            return minimize(*args)

        monkeypatch.setattr(pipeline, "minimize", minimize_and_count)
        run(blob_data(17, n=40), self.SPEC)
        assert seen and set(seen[0]) == {1}
        assert counts() == before

    def test_blas_threads_restored_after_run_raises(self, monkeypatch,
                                                     blas_at_two_threads):
        counts = blas_at_two_threads
        before = counts()

        def fail(*args):
            raise RuntimeError("in the fit")

        monkeypatch.setattr(pipeline, "evaluate_embedding", fail)
        with pytest.raises(RuntimeError, match="in the fit"):
            run(blob_data(17, n=40), self.SPEC)
        assert counts() == before

    def test_workers_call_no_public_function(self, monkeypatch):
        # Outside tools may wrap every public function of the package (the
        # benchmark's tracer does, with one span stack); the block walks'
        # workers call only private helpers, so no wrapper runs off the
        # calling thread.
        off_thread = []
        caller = threading.get_ident()

        def watch(fn, name):
            def watched(*args, **kwargs):
                if threading.get_ident() != caller:
                    off_thread.append(name)
                return fn(*args, **kwargs)
            return watched

        for name, module in list(sys.modules.items()):
            if name.startswith("graphcoupling."):
                for attr, value in list(vars(module).items()):
                    if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                            and value.__module__.startswith("graphcoupling")):
                        monkeypatch.setattr(module, attr, watch(value, attr))
        monkeypatch.setattr(linalg, "usable_cores", lambda: 3)
        monkeypatch.setattr(linalg, "ROW_BLOCK_CELLS", 200)
        for method, init in (("tsne", "ccpca"), ("sne", "pca"), ("umap", "le")):
            pipeline.run(blob_data(18, n=60), RunSpec(
                method=method, init=init, perplexity=8.0, seed=1, ccpca_samples=3,
                optimizer=OptimizerConfig(iterations=6)))
        assert off_thread == []
