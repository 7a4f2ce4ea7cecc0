import copy
import sys
import threading
import tracemalloc
import types
import weakref
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest
import yaml

from graphcoupling import kernels, linalg, pipeline
from graphcoupling.coupling import input_affinity
from graphcoupling.errors import ParameterError
from graphcoupling.evaluation import evaluate_embedding
from graphcoupling.kernels import GAUSSIAN, calibrated_kernel
from graphcoupling.optim import OptimizerConfig, minimize
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
from oracles import kernel_matrix, posterior_expectation, umap_threshold_prob

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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_rejects_seeds_that_are_not_nonnegative_integers(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            RunSpec(seed=seed).validate()
        assert RunSpec(seed=np.int64(3)).validate().seed == 3


def start(X, spec):
    """(Z0, degenerate, affinity) of a run: the input side read in order."""
    return initial_embedding(X, spec, prepare_input(X, spec))


class TestPrepareInput:
    def test_normalization_tags_per_method(self):
        X = blob_data(1, n=20)
        expected = {"sne": "row", "tsne": "symmetrized-row",
                    "largevis": "symmetrized-row",
                    "umap": "thresholded-bernoulli"}
        for method, tag in expected.items():
            spec = RunSpec(method=method, perplexity=5.0)
            K = prepare_input(X, spec)
            assert K.kind == "gaussian"
            _, _, P = initial_embedding(X, spec, K)
            assert P.normalization == tag
            # The affinity's values are the kernel's buffer.
            assert P.values is K.values

    def test_kernel_shared_across_methods(self):
        # one calibration serves every method, including the edgewise route
        X = blob_data(2, n=18)
        K_sne = prepare_input(X, RunSpec(method="sne", perplexity=6.0))
        K_umap = prepare_input(X, RunSpec(method="umap", perplexity=6.0))
        assert K_sne.values.tobytes() == K_umap.values.tobytes()
        tau = calibrated_kernel(X, 6.0).bandwidths
        npt.assert_array_equal(K_sne.bandwidths, tau)
        K = kernel_matrix(X, GAUSSIAN, tau)
        npt.assert_array_equal(K_sne.values, K.values)
        sne = initial_embedding(X, RunSpec(method="sne"), K_sne)[2]
        umap = initial_embedding(X, RunSpec(method="umap"), K_umap)[2]
        assert sne.values.tobytes() == posterior_expectation(K, "D").values.tobytes()
        want = umap_threshold_prob(posterior_expectation(K, "B"))
        assert umap.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("method, init", [
        pytest.param("tsne", "pca", id="tsne"),
        pytest.param("largevis", "pca", id="largevis"),
        pytest.param("umap", "pca", id="umap"),
        pytest.param("umap", "le", id="umap-le"),
        pytest.param("tsne", "ccpca", id="tsne-ccpca")])
    def test_peak_memory_in_n_by_n_arrays(self, method, init, monkeypatch):
        # Calibration writes the kernel over the distances, ccPCA's D-prior
        # draws read it one row block at a time, and the affinity is written
        # over it: one n x n array plus the temporaries of the blocks in
        # flight, which the bound allows for two workers.  Holding the
        # kernel and the affinity as two arrays takes 2 n x n, and so does
        # eigenmaps that copies the affinity rather than borrowing it.
        monkeypatch.setattr(linalg, "usable_cores", lambda: 2)
        n = 2000
        X = np.random.default_rng(16).normal(size=(n, 50))
        spec = RunSpec(method=method, init=init, perplexity=30.0, ccpca_samples=5,
                       ccpca_prior="D")
        tracemalloc.start()
        try:
            start(X, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (n * n * 8) <= 1.25


class TestInitialization:
    def test_random_init_scale_and_shape(self):
        X = blob_data(3)
        Z0, degenerate, _ = start(X, RunSpec(init="random", seed=5, perplexity=10.0))
        assert Z0.shape == (40, 2)
        assert not degenerate
        # standard normal times 1e-4: all coordinates small, none zero
        assert np.abs(Z0).max() < 1e-3
        assert (Z0 != 0.0).all()

    def test_spectral_inits_hit_exact_peak_scale(self):
        # initial_embedding returns spectral coordinates at their natural
        # scale; run shrinks them with rescale_init
        X = blob_data(4)
        for init in ("pca", "le", "ccpca"):
            Z0, _, _ = start(X, RunSpec(init=init, seed=2, perplexity=10.0))
            npt.assert_allclose(np.abs(rescale_init(Z0, 40)).max(),
                                INIT_SCALE * np.sqrt(40.0), rtol=1e-12)
        pca_Z0, _, _ = start(X, RunSpec(init="pca", perplexity=10.0))
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
        r0 = start(X, RunSpec(init="random", seed=0, perplexity=10.0))[0]
        r1 = start(X, RunSpec(init="random", seed=1, perplexity=10.0))[0]
        assert r0.tobytes() != r1.tobytes()
        c0 = start(X, RunSpec(init="ccpca", seed=0, perplexity=10.0))[0]
        c0b = start(X, RunSpec(init="ccpca", seed=0, perplexity=10.0))[0]
        assert c0.tobytes() == c0b.tobytes()

    def test_le_init_reports_degenerate_components(self):
        # two far blocks: the affinity support splits and le flags it
        X = blob_data(6, separation=200.0)
        _, degenerate, _ = start(X, RunSpec(init="le", perplexity=5.0))
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

    def test_bits_do_not_depend_on_the_memory_order_of_x(self):
        # A column-major X is read as its row-major copy, so the fit is a
        # function of X's values alone.
        X = np.random.default_rng(21).normal(size=(300, 6))
        spec = RunSpec(method="tsne", init="pca", seed=5, perplexity=20.0,
                       optimizer=OptimizerConfig(iterations=20, momentum_switch=10,
                                                 exaggeration_iters=10),
                       eval_ks=(10,))
        want = run(X, spec).Z
        assert run(np.asfortranarray(X), spec).Z.tobytes() == want.tobytes()

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

    def test_manifest_records_every_setting(self):
        # Every field away from its default: two runs that differ in any
        # setting write different run records.
        opt = OptimizerConfig(iterations=7, learning_rate=150.0, momentum_early=0.4,
                              momentum_late=0.7, momentum_switch=3, gain_min=0.02,
                              gain_increase=0.3, gain_decay=0.7, early_exaggeration=True,
                              exaggeration_factor=4.0, exaggeration_iters=2,
                              grad_tol=1e-6, max_halvings=20)
        spec = RunSpec(method="tsne", init="ccpca", q=3, perplexity=8.0,
                       latent_kernel=GAUSSIAN, classic_scale=True, ccpca_samples=3,
                       ccpca_prior="B", seed=5, optimizer=opt, eval_ks=(8, 3))
        record = run(blob_data(11, n=24), spec).manifest["run"]
        # Plain Python types only: safe_dump refuses numpy scalars.
        yaml.safe_dump(record)
        ccpca_fields = {"ccpca_samples": "samples", "ccpca_prior": "prior"}
        for f in fields(RunSpec):
            value = getattr(spec, f.name)
            if f.name in ccpca_fields:
                assert record["ccpca"][ccpca_fields[f.name]] == value
            elif f.name == "optimizer":
                assert set(record["optimizer"]) == {g.name for g in fields(OptimizerConfig)}
                for g in fields(OptimizerConfig):
                    assert record["optimizer"][g.name] == getattr(opt, g.name), g.name
            elif f.name == "eval_ks":
                assert record["eval_ks"] == sorted(value)
            else:
                assert record[f.name] == value, f.name
        assert set(record) == ({f.name for f in fields(RunSpec)} - set(ccpca_fields)) | {"ccpca"}

    def test_numpy_scalar_settings_are_written_as_plain_values(self):
        # safe_dump raises RepresenterError on a numpy scalar anywhere in the manifest.
        X = blob_data(12, n=24)
        plain = RunSpec(q=2, perplexity=8.0, seed=4, init="ccpca", ccpca_samples=3,
                        optimizer=replace(FAST_OPT, iterations=20, early_exaggeration=True))
        numpy = replace(plain, q=np.int64(2), perplexity=np.float64(8.0), seed=np.int64(4),
                        ccpca_samples=np.int32(3),
                        optimizer=replace(plain.optimizer, iterations=np.int64(20),
                                          early_exaggeration=np.bool_(True)))
        manifests = [run(X, spec).manifest for spec in (numpy, plain)]
        for manifest in manifests:
            manifest.pop("timings")
        yaml.safe_dump(manifests[0])
        assert manifests[0] == manifests[1]

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
        prob = CouplingProblem("tsne", input_affinity(calibrated_kernel(X, 8.0), "tsne"))
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
        # The input side is read in one order: calibration, ccPCA's draws
        # from the kernel, the affinity written over the kernel's buffer,
        # eigenmaps on the affinity.  That one buffer is gone before scoring.
        events, refs, scored = [], [], []

        def watch(name, fn):
            def watched(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return watched

        def affinity_and_watch(kernel, method):
            events.append("affinity")
            affinity = input_affinity(kernel, method)
            assert affinity.values is kernel.values
            refs.append(weakref.ref(affinity.values))
            return affinity

        def evaluate_when_freed(*args):
            scored.append(all(ref() is None for ref in refs))
            return evaluate_embedding(*args)

        monkeypatch.setattr(pipeline, "calibrated_kernel",
                            watch("kernel", calibrated_kernel))
        monkeypatch.setattr(pipeline, "ccpca", watch("ccpca", pipeline.ccpca))
        monkeypatch.setattr(pipeline, "laplacian_eigenmaps",
                            watch("le", pipeline.laplacian_eigenmaps))
        monkeypatch.setattr(pipeline, "input_affinity", affinity_and_watch)
        monkeypatch.setattr(pipeline, "evaluate_embedding", evaluate_when_freed)
        tiny = OptimizerConfig(iterations=12, momentum_switch=6, exaggeration_iters=6)
        run(blob_data(14, n=24), RunSpec(method=method, init=init, seed=1, perplexity=8.0,
                                         optimizer=tiny, ccpca_samples=5))
        order = {"ccpca": ["kernel", "ccpca", "affinity"], "le": ["kernel", "affinity", "le"]}
        assert events == order.get(init, ["kernel", "affinity"])
        assert len(refs) == 1
        assert scored == [True]

    @pytest.mark.parametrize("classic_scale", [False, True])
    def test_classic_scale_affinity_freed_before_minimize(self, monkeypatch,
                                                          classic_scale):
        # classic_scale is a scalar of the problem, not a copy of P: under
        # either setting the descent reads the affinity's own buffer, and
        # run keeps no other reference to the affinity by then.
        refs, seen = [], []

        def affinity_and_watch(*args):
            affinity = input_affinity(*args)
            refs.append((weakref.ref(affinity), weakref.ref(affinity.values)))
            return affinity

        def minimize_and_watch(problem, *args):
            affinity, values = refs[0]
            seen.append((affinity() is None, problem.P is values()))
            return minimize(problem, *args)

        monkeypatch.setattr(pipeline, "input_affinity", affinity_and_watch)
        monkeypatch.setattr(pipeline, "minimize", minimize_and_watch)
        run(blob_data(17, n=24), RunSpec(perplexity=8.0, classic_scale=classic_scale,
                                         optimizer=OptimizerConfig(iterations=2)))
        assert seen == [(True, True)]


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
        assert seen and seen[0] == 1
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
