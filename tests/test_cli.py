import argparse
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graphcoupling
from graphcoupling import cli, linalg, pipeline
from graphcoupling.cli import OUT_DIR_ENV, build_parser, load_config, main
from graphcoupling.coupling import METHOD_KINDS, input_affinity
from graphcoupling.dataio import load_csv, load_embedding, save_embedding
from graphcoupling.errors import ParameterError
from graphcoupling.evaluation import evaluate_embedding
from graphcoupling.kernels import KERNEL_KINDS, calibrated_kernel
from graphcoupling.pipeline import (INIT_KINDS, SPECTRAL_INIT_KINDS, RunSpec,
                                    initial_embedding, prepare_input, run)
from graphcoupling.posterior import PRIOR_KINDS


@pytest.fixture
def blob_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    X[15:, 0] += 8.0
    path = tmp_path / "data.csv"
    lines = ["f1,f2,f3,cls"]
    for i, row in enumerate(X):
        cls = "a" if i < 15 else "b"
        lines.append(",".join(format(v, ".17g") for v in row) + f",{cls}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


FAST = ["--iterations", "40", "--perplexity", "8"]


def fit_args(blob_csv, out, extra=()):
    return (["fit", "--input", str(blob_csv), "--label", "cls",
             "--out-dir", str(out)] + FAST + list(extra))


def assert_same_fit_outputs(a, b):
    """The two fit directories hold the same bytes and manifest, timings aside."""
    assert (a / "embedding.csv").read_bytes() == (b / "embedding.csv").read_bytes()
    assert (a / "embedding.svg").read_bytes() == (b / "embedding.svg").read_bytes()
    ma = yaml.safe_load((a / "manifest.yaml").read_text())
    mb = yaml.safe_load((b / "manifest.yaml").read_text())
    ma.pop("timings")
    mb.pop("timings")
    assert ma == mb


def blas_env(threads: str) -> dict:
    """The environment of a subprocess that runs this package on ``threads`` BLAS threads."""
    src = str(Path(graphcoupling.__file__).parent.parent)
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(
                    [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_import_starts_no_thread_and_no_executor():
    # The fit's block walks start their pool of threads on the first walk
    # with two or more workers; importing the entry point must not, nor
    # load concurrent.futures or the logging it pulls in, which would add
    # to every command's start-up.
    code = ("import sys, threading\n"
            "import graphcoupling.cli\n"
            "print(threading.active_count(), 'concurrent.futures' in sys.modules,\n"
            "      'logging' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(graphcoupling.__file__).parent.parent)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.split() == ["1", "False", "False"]


class TestConfigFile:
    def test_parses_flat_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "method = umap\n"
            "perplexity = 12.5   # trailing comment\n"
            "no-header = yes\n"
            "iterations=77\n"
            "\n",
            encoding="utf-8")
        parsed = load_config(cfg)
        assert parsed == {"method": "umap", "perplexity": 12.5,
                          "no_header": True, "iterations": 77}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verbosity = 3\n", encoding="utf-8")
        with pytest.raises(ParameterError, match="unknown option"):
            load_config(cfg)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method tsne\n", encoding="utf-8")
        with pytest.raises(ParameterError, match="line 1"):
            load_config(cfg)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="cannot read config"):
            load_config(tmp_path / "absent.cfg")

    def test_bad_boolean_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("classic_scale = maybe\n", encoding="utf-8")
        with pytest.raises(ParameterError, match="boolean"):
            load_config(cfg)

    @pytest.mark.parametrize("line", ["dim = two", "perplexity = 1,5"])
    def test_bad_number_names_file_line_and_key(self, blob_csv, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n" + line + "\n", encoding="utf-8")
        key = line.split()[0]
        with pytest.raises(ParameterError, match=rf"run\.cfg line 2: bad value for '{key}'"):
            load_config(cfg)
        assert main(fit_args(blob_csv, tmp_path / "out", ["--config", str(cfg)])) == 2
        assert f"line 2: bad value for '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["threads = 0", "seed = 5", "out_dir = DIR"])
    def test_eval_rejects_keys_of_other_commands(self, tmp_path, capsys, line):
        emb = tmp_path / "e.csv"
        save_embedding(emb, np.zeros((4, 2)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delimiter = ,\n" + line.replace("DIR", str(tmp_path / "out")) + "\n",
                       encoding="utf-8")
        assert main(["eval", "--input", str(emb), "--embedding", str(emb),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and line.split()[0] in err
        assert not (tmp_path / "out").exists()

    def test_diagnose_reads_its_options_from_config(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_diagnostics", lambda **kw: seen.append(kw) or [])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nsamples = 123\n", encoding="utf-8")
        assert main(["diagnose", "--config", str(cfg)]) == 0
        assert main(["diagnose", "--config", str(cfg), "--samples", "9"]) == 0
        assert seen == [{"seed": 7, "samples": 123}, {"seed": 7, "samples": 9}]
        cfg.write_text("method = tsne\n", encoding="utf-8")
        assert main(["diagnose", "--config", str(cfg)]) == 2


class TestFit:
    def test_writes_all_artifacts(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(fit_args(blob_csv, out)) == 0
        assert (out / "embedding.csv").exists()
        assert (out / "manifest.yaml").exists()
        assert (out / "embedding.svg").exists()
        printed = capsys.readouterr().out
        assert "run seed=0:" in printed and "r@" in printed

        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["artifacts"] == {"embedding": "embedding.csv",
                                         "manifest": "manifest.yaml",
                                         "figure": "embedding.svg"}
        assert manifest["input"]["rows"] == 30
        assert manifest["input"]["path"] == str(blob_csv)
        assert len(manifest["input"]["sha256"]) == 64
        ds = load_embedding(out / "embedding.csv")
        assert ds.X.shape == (30, 2)
        assert ds.label_names == ["a", "b"]

    def test_two_rows_fit_without_scores(self, tmp_path):
        # R(K) has no valid K below three rows; the fit itself still runs.
        data = tmp_path / "two.csv"
        data.write_text("f1,f2\n0,0\n1,2\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["fit", "--input", str(data), "--out-dir", str(out),
                     "--perplexity", "1", "--iterations", "5"]) == 0
        assert load_embedding(out / "embedding.csv").X.shape == (2, 2)
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["results"]["scores"] == []

    def test_bad_k_rejected_before_fitting(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "prepare_input", lambda *args: calls.append(args))
        data = tmp_path / "two.csv"
        data.write_text("f1,f2\n0,0\n1,2\n", encoding="utf-8")
        assert main(["fit", "--input", str(data), "--out-dir", str(tmp_path / "out"),
                     "--perplexity", "1", "--k", "1"]) == 2
        assert "got 1" in capsys.readouterr().err
        assert calls == []

    def test_threads_setting_never_changes_bytes(self, blob_csv, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            assert main(fit_args(blob_csv, out,
                                 ["--threads", threads, "--seed", "3"])) == 0
            outs.append(out)
        assert_same_fit_outputs(*outs)

    def test_blas_thread_count_never_changes_bytes(self, tmp_path):
        # From n = 145 on, with these data, LAPACK's eigensolver in Laplacian
        # eigenmaps gives other bits on two OpenBLAS threads than on one;
        # the fit holds OpenBLAS at one thread, whatever the environment says.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(145, 5))
        X[72:, 0] += 8.0
        data = tmp_path / "data.csv"
        data.write_text("a,b,c,d,e\n" + "\n".join(
            ",".join(format(v, ".17g") for v in row) for row in X) + "\n")
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            subprocess.run([sys.executable, "-m", "graphcoupling", "fit", "--input",
                            str(data), "--method", "umap", "--init", "le",
                            "--iterations", "1", "--perplexity", "10", "--seed", "0",
                            "--out-dir", str(out)],
                           env=blas_env(threads), capture_output=True, timeout=120, check=True)
            outs.append(out)
        assert_same_fit_outputs(*outs)

    def test_no_openblas_found_gives_the_same_bytes(self, blob_csv, tmp_path,
                                                     monkeypatch):
        outs = [tmp_path / "found", tmp_path / "none"]
        assert main(fit_args(blob_csv, outs[0], ["--seed", "3"])) == 0
        lookup = linalg._blas_function
        monkeypatch.setattr(linalg, "_blas_function",
                            lambda name: None if name in linalg._THREAD_CONTROLS else lookup(name))
        assert main(fit_args(blob_csv, outs[1], ["--seed", "3"])) == 0
        assert_same_fit_outputs(*outs)

    def test_no_numpy_library_gives_the_same_bytes(self, blob_csv, tmp_path,
                                                   without_numpys_blas):
        # The bytes of test_no_openblas_found_gives_the_same_bytes.
        outs = [tmp_path / "found", tmp_path / "none"]
        assert main(fit_args(blob_csv, outs[0], ["--seed", "3"])) == 0
        without_numpys_blas()
        assert main(fit_args(blob_csv, outs[1], ["--seed", "3"])) == 0
        assert_same_fit_outputs(*outs)

    @pytest.mark.parametrize("block_cells", [100], indirect=True)
    @pytest.mark.parametrize("method, init", [("tsne", "ccpca"), ("umap", "le")])
    def test_usable_cores_never_change_bytes(self, blob_csv, tmp_path, monkeypatch,
                                             block_cells, method, init):
        # Small blocks give the calibration walk many blocks to share out.
        outs = []
        for workers in (None, 1, 3):
            if workers is not None:
                monkeypatch.setattr(linalg, "usable_cores", lambda w=workers: w)
            out = tmp_path / f"w{workers}"
            assert main(fit_args(blob_csv, out, ["--method", method, "--init", init,
                                                 "--samples", "5", "--seed", "3"])) == 0
            outs.append(out)
        assert_same_fit_outputs(outs[0], outs[1])
        assert_same_fit_outputs(outs[0], outs[2])

    def test_repeat_suffixes_and_aggregate(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(fit_args(blob_csv, out,
                             ["--repeat", "2", "--k", "5"])) == 0
        for index in ("00", "01"):
            assert (out / f"embedding-{index}.csv").exists()
            assert (out / f"manifest-{index}.yaml").exists()
        printed = capsys.readouterr().out
        assert "run seed=0:" in printed
        assert "run seed=1:" in printed
        assert "r@5: mean=" in printed and "std=" in printed and "over 2 seeds" in printed

    def test_config_supplies_defaults_flags_override(self, blob_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = sne\nseed = 9\niterations = 40\n"
                       "perplexity = 8\n", encoding="utf-8")
        out = tmp_path / "cfg-out"
        args = ["fit", "--input", str(blob_csv), "--label", "cls",
                "--out-dir", str(out), "--config", str(cfg),
                "--method", "largevis"]  # flag beats config
        assert main(args) == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["run"]["method"] == "largevis"
        assert manifest["run"]["seed"] == 9
        assert manifest["run"]["optimizer"]["iterations"] == 40

    def test_out_dir_from_environment(self, blob_csv, tmp_path, monkeypatch):
        env_out = tmp_path / "env-out"
        monkeypatch.setenv(OUT_DIR_ENV, str(env_out))
        args = ["fit", "--input", str(blob_csv), "--label", "cls"] + FAST
        assert main(args) == 0
        assert (env_out / "embedding.csv").exists()

    def test_k_tokens(self, blob_csv, tmp_path):
        out = tmp_path / "k-out"
        assert main(fit_args(blob_csv, out,
                             ["--k", "n/4", "--k", "5", "--k", "5"])) == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert [s["k"] for s in manifest["results"]["scores"]] == [5, 7]

    @pytest.mark.parametrize("k", ["0", "-3", "29", "500"])  # 29 is n - 1
    def test_k_outside_its_range_exits_2(self, blob_csv, tmp_path, capsys, k):
        out = tmp_path / "out"
        assert main(fit_args(blob_csv, out, ["--k", "5", "--k", k])) == 2
        assert f"got {k}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_below_a_file_exits_2(self, blob_csv, tmp_path, capsys):
        blocker = tmp_path / "d.csv"
        blocker.write_text("", encoding="utf-8")
        assert main(fit_args(blob_csv, blocker / "sub")) == 2
        assert f"error: cannot write {blocker / 'sub'}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["embedding.csv", "embedding.svg", "manifest.yaml"])
    def test_unwritable_artifact_exits_2(self, blob_csv, tmp_path, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(fit_args(blob_csv, out)) == 2
        assert f"error: cannot write {out / name}" in capsys.readouterr().err

    def test_exaggeration_flags_conflict(self, blob_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(fit_args(blob_csv, tmp_path,
                          ["--exaggeration", "--no-exaggeration"]))
        assert err.value.code == 2

    def test_bad_perplexity_exits_2(self, blob_csv, tmp_path, capsys):
        args = ["fit", "--input", str(blob_csv), "--label", "cls",
                "--out-dir", str(tmp_path / "x"), "--perplexity", "500"]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_infinite_learning_rate_exits_2_before_fitting(self, blob_csv, tmp_path,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "prepare_input", lambda *args: calls.append(args))
        assert main(fit_args(blob_csv, tmp_path / "x", ["--learning-rate", "inf"])) == 2
        assert calls == []

    def test_bad_threads_exits_2(self, blob_csv, tmp_path):
        assert main(fit_args(blob_csv, tmp_path / "x", ["--threads", "0"])) == 2

    def test_ragged_input_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        args = ["fit", "--input", str(bad), "--out-dir", str(tmp_path / "x")]
        assert main(args) == 3
        assert "line 3" in capsys.readouterr().err

    def test_non_finite_input_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,nan\n4,5\n", encoding="utf-8")
        args = ["fit", "--input", str(bad), "--out-dir", str(tmp_path / "x")]
        assert main(args) == 3
        assert "line 3, column 'b': non-finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_input_exits_3(self, tmp_path):
        args = ["fit", "--input", str(tmp_path / "absent.csv"),
                "--out-dir", str(tmp_path / "x")]
        assert main(args) == 3

    def test_zero_ccpca_samples_exit_2_under_any_init(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(fit_args(blob_csv, out, ["--init", "pca", "--samples", "0"])) == 2
        assert "samples must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2_before_writing(self, blob_csv, tmp_path, capsys):
        # np.random.SeedSequence would raise a bare ValueError deep in the run.
        out = tmp_path / "out"
        assert main(fit_args(blob_csv, out, ["--seed", "-1"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a nonnegative integer, got -1")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--perplexity", "50"], "perplexity must lie in [1, 29] for n=30, got 50.0"),
        (["--dim", "40"], "q must lie in [1, min(n, p)=3], got 40"),
    ], ids=["perplexity", "dim"])
    def test_data_shape_errors_exit_2_before_writing(self, blob_csv, tmp_path, capsys,
                                                     extra, message):
        # The checks that need the data's shape run before the output directory is made.
        out = tmp_path / "out"
        assert main(fit_args(blob_csv, out, extra)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [("prior = Q", "unknown prior"),
                                               ("latent_kernel = cauchy", "unknown kernel")])
    def test_bad_config_choice_exits_2(self, blob_csv, tmp_path, capsys, line, message):
        # argparse's choices check flags only, not config values.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(fit_args(blob_csv, out, ["--config", str(cfg)])) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, exit_code, message", [
    (["fit", "--perplexity", "2"], 3, "row 0 is at distance zero from every other row"),
    (["init", "--method", "le", "--perplexity", "2", "--dim", "9"], 2,
     "q must lie in [1, n - R = 8] for n=10 with 2 components, got 9"),
], ids=["fit-constant-rows", "init-le-dim"])
def test_failed_run_leaves_no_out_dir(tmp_path, capsys, command, exit_code, message):
    # Both fail inside the run, after every check that needs only the data's shape.
    if command[0] == "fit":
        X = np.ones((5, 2))
    else:
        X = np.repeat([[0.0, 0.0], [1000.0, 1000.0]], 5, axis=0)
        X += np.random.default_rng(0).normal(size=X.shape)
    data = tmp_path / "data.csv"
    save_embedding(data, X)
    out = tmp_path / "out"
    assert main(command + ["--input", str(data), "--out-dir", str(out)]) == exit_code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_out_dir_and_its_missing_parents_are_made(blob_csv, tmp_path):
    out = tmp_path / "a" / "b"
    args = ["init", "--input", str(blob_csv), "--label", "cls", "--out-dir", str(out),
            "--method", "pca"]
    assert main(args) == 0
    assert sorted(path.name for path in out.iterdir()) == ["init.csv", "init.svg"]


class TestInit:
    @pytest.mark.parametrize("extra", [["--samples", "0"], ["--prior", "B", "--samples", "-1"],
                                       ["--seed", "-1"]])
    def test_bad_ccpca_settings_exit_2_before_writing(self, blob_csv, tmp_path, capsys, extra):
        out = tmp_path / "out"
        args = ["init", "--input", str(blob_csv), "--label", "cls",
                "--out-dir", str(out), "--method", "pca"] + extra
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--method", "le", "--perplexity", "50"],
         "perplexity must lie in [1, 29] for n=30, got 50.0"),
        (["--method", "pca", "--dim", "40"], "q must lie in [1, min(n, p)=3], got 40"),
        (["--method", "ccpca", "--dim", "40"],
         "perplexity must lie in [1, 29] for n=30, got 30.0"),
        (["--method", "ccpca", "--dim", "40", "--perplexity", "8"],
         "q must lie in [1, min(n, p)=3], got 40"),
    ], ids=["le-perplexity", "pca-dim", "ccpca-perplexity", "ccpca-dim"])
    def test_data_shape_errors_exit_2_before_writing(self, blob_csv, tmp_path, capsys,
                                                     extra, message):
        out = tmp_path / "out"
        args = ["init", "--input", str(blob_csv), "--label", "cls", "--out-dir", str(out)]
        assert main(args + extra) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_pca_init_takes_no_perplexity_check(self, blob_csv, tmp_path):
        # pca calibrates nothing, so a perplexity out of range for 30 rows is unused.
        out = tmp_path / "out"
        args = ["init", "--input", str(blob_csv), "--label", "cls", "--out-dir", str(out),
                "--method", "pca", "--perplexity", "50"]
        assert main(args) == 0
        assert (out / "init.csv").is_file()

    def test_bad_config_prior_exits_2(self, blob_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("prior = Q\n", encoding="utf-8")
        out = tmp_path / "out"
        args = ["init", "--input", str(blob_csv), "--label", "cls",
                "--out-dir", str(out), "--method", "ccpca", "--config", str(cfg)]
        assert main(args) == 2
        assert "unknown prior" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--method", "pca"],
                                       ["--method", "ccpca", "--samples", "5"]],
                             ids=["pca", "ccpca"])
    def test_blas_thread_count_never_changes_bytes(self, tmp_path, extra):
        # On these data LAPACK's SVD gives other bits on two OpenBLAS
        # threads than on one; init holds OpenBLAS at one thread, whatever
        # the environment says.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(600, 300))
        X[300:, 0] += 8
        data = tmp_path / "data.csv"
        data.write_text(",".join(f"c{j}" for j in range(300)) + "\n" + "\n".join(
            ",".join(format(v, ".17g") for v in row) for row in X) + "\n")
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            subprocess.run([sys.executable, "-m", "graphcoupling", "init", "--input",
                            str(data), "--out-dir", str(out)] + extra,
                           env=blas_env(threads), capture_output=True, timeout=120, check=True)
            outs.append(out)
        for name in ("init.csv", "init.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_pca_init_writes_embedding(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "init-out"
        args = ["init", "--input", str(blob_csv), "--label", "cls",
                "--out-dir", str(out), "--method", "pca"]
        assert main(args) == 0
        assert (out / "init.csv").exists()
        assert (out / "init.svg").exists()
        assert "wrote" in capsys.readouterr().out
        from graphcoupling.spectral import pca
        ds_in = load_embedding(out / "init.csv")
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        X[15:, 0] += 8.0
        npt.assert_allclose(ds_in.X, pca(X, 2), atol=1e-12)

    def test_le_warns_on_disconnected_graph(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 2))
        X[10:, 0] += 500.0  # kernel underflows between the halves
        path = tmp_path / "far.csv"
        path.write_text(
            "a,b\n" + "\n".join(",".join(format(v, ".17g") for v in row)
                                for row in X) + "\n", encoding="utf-8")
        args = ["init", "--input", str(path), "--out-dir",
                str(tmp_path / "o"), "--method", "le", "--perplexity", "5"]
        assert main(args) == 0
        assert "connected" in capsys.readouterr().err

    def test_ccpca_deterministic_in_seed(self, blob_csv, tmp_path):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            args = ["init", "--input", str(blob_csv), "--label", "cls",
                    "--out-dir", str(out), "--method", "ccpca",
                    "--samples", "20", "--perplexity", "8", "--seed", "5"]
            assert main(args) == 0
            outs.append((out / "init.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_le_matches_row_affinity_eigenmaps(self, blob_csv, tmp_path):
        # init builds fit's symmetrized affinity; eigenmaps symmetrizes its
        # input, so this is a rescaling of the row affinity's Laplacian
        from graphcoupling.spectral import laplacian_eigenmaps
        from oracles import posterior_expectation

        out = tmp_path / "le"
        args = ["init", "--input", str(blob_csv), "--label", "cls",
                "--out-dir", str(out), "--method", "le", "--perplexity", "8"]
        assert main(args) == 0
        X = load_csv(blob_csv, label="cls").X
        K = calibrated_kernel(X, 8.0)
        row = laplacian_eigenmaps(posterior_expectation(K, "D"), 2).coords
        npt.assert_allclose(load_embedding(out / "init.csv").X, row, atol=1e-10)

    def test_ccpca_writes_what_fit_starts_from(self, blob_csv, tmp_path):
        out = tmp_path / "cc"
        args = ["init", "--input", str(blob_csv), "--label", "cls",
                "--out-dir", str(out), "--method", "ccpca",
                "--samples", "20", "--perplexity", "8", "--seed", "5"]
        assert main(args) == 0
        X = load_csv(blob_csv, label="cls").X
        spec = RunSpec(init="ccpca", ccpca_samples=20, perplexity=8.0, seed=5)
        # A fit's ccPCA draws before the affinity is written over the kernel.
        Z0, _, _ = initial_embedding(X, spec, prepare_input(X, spec))
        npt.assert_array_equal(load_embedding(out / "init.csv").X, Z0)

    def test_le_reads_the_tsne_affinity(self, blob_csv, tmp_path):
        # init has no coupling method, so eigenmaps reads t-SNE's affinity
        # whatever method a fit would couple; it does not write the start
        # of fit --method umap --init le.
        out = tmp_path / "le"
        args = ["init", "--input", str(blob_csv), "--label", "cls",
                "--out-dir", str(out), "--method", "le", "--perplexity", "8"]
        assert main(args) == 0
        X = load_csv(blob_csv, label="cls").X
        spec = RunSpec(init="le", perplexity=8.0)
        written = load_embedding(out / "init.csv").X
        Z0, _, _ = initial_embedding(X, spec, prepare_input(X, spec))
        npt.assert_array_equal(written, Z0)
        umap = replace(spec, method="umap")
        umap_Z0, _, _ = initial_embedding(X, umap, prepare_input(X, umap))
        assert np.abs(np.abs(written) - np.abs(umap_Z0)).max() > 1e-3

    @pytest.mark.parametrize("method", SPECTRAL_INIT_KINDS)
    def test_builds_only_what_the_init_reads(self, blob_csv, tmp_path, monkeypatch,
                                             method):
        # Eigenmaps reads the affinity, ccPCA the kernel, PCA neither; the
        # affinity's values are the kernel's buffer.
        kernels, affinities = [], []

        def kernel_and_watch(*args):
            kernels.append(calibrated_kernel(*args))
            return kernels[-1]

        def affinity_and_watch(*args):
            affinities.append(input_affinity(*args))
            return affinities[-1]

        monkeypatch.setattr(pipeline, "calibrated_kernel", kernel_and_watch)
        monkeypatch.setattr(pipeline, "input_affinity", affinity_and_watch)
        args = ["init", "--input", str(blob_csv), "--label", "cls", "--out-dir",
                str(tmp_path / "o"), "--method", method, "--perplexity", "8",
                "--samples", "5"]
        assert main(args) == 0
        assert len(kernels) == (method != "pca")
        assert len(affinities) == (method == "le")
        assert all(P.values is K.values for P, K in zip(affinities, kernels))

    def test_le_peak_in_n_by_n_arrays(self, tmp_path, monkeypatch):
        # The affinity, its symmetrized copy or Laplacian, and the
        # eigenvectors: no kernel beside them.  The first call pays
        # one-off allocations, so the second is measured.  Calibration
        # holds one block per worker, so the worker count is pinned.
        monkeypatch.setattr(linalg, "usable_cores", lambda: 2)
        n = 600
        X = np.random.default_rng(3).normal(size=(n, 10))
        path = tmp_path / "x.csv"
        np.savetxt(path, X, delimiter=",", header="a,b,c,d,e,f,g,h,i,j", comments="")
        args = ["init", "--input", str(path), "--out-dir", str(tmp_path / "o"),
                "--method", "le"]
        assert main(args) == 0
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.4 * 8 * n * n, f"{peak / (8 * n * n):.2f} n x n arrays"

    def test_config_random_method_exits_2(self, blob_csv, tmp_path):
        cfg = tmp_path / "init.cfg"
        cfg.write_text("method = random\n", encoding="utf-8")
        args = ["init", "--input", str(blob_csv), "--label", "cls",
                "--out-dir", str(tmp_path / "r"), "--config", str(cfg)]
        assert main(args) == 2

    def test_unknown_method_exits_2(self, blob_csv, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["init", "--input", str(blob_csv), "--method", "random"])
        assert err.value.code == 2


class TestDefaults:
    """Every unset option takes the library's default and choices."""

    @pytest.fixture
    def plain_csv(self, tmp_path):
        X = np.random.default_rng(4).normal(size=(30, 3))
        path = tmp_path / "plain.csv"
        path.write_text(
            "a,b,c\n" + "\n".join(",".join(format(v, ".17g") for v in row)
                                  for row in X) + "\n", encoding="utf-8")
        return path

    def test_fit_run_block_is_runspec_default(self, plain_csv, tmp_path):
        out = tmp_path / "fit"
        args = ["fit", "--input", str(plain_csv), "--out-dir", str(out),
                "--perplexity", "8"]
        assert main(args) == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        expected = run(load_csv(plain_csv).X, RunSpec(perplexity=8.0)).manifest
        assert manifest["run"] == expected["run"]

    def test_init_without_method_is_runspec_default(self, plain_csv, tmp_path):
        out = tmp_path / "init"
        assert main(["init", "--input", str(plain_csv), "--out-dir", str(out)]) == 0
        Z0, _, _ = initial_embedding(load_csv(plain_csv).X, RunSpec(), None, fitting=False)
        npt.assert_array_equal(load_embedding(out / "init.csv").X, Z0)

    def test_parser_choices_are_library_kinds(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))

        def choices(command, dest):
            return next(action.choices for action in sub.choices[command]._actions
                        if action.dest == dest)

        assert choices("fit", "method") == METHOD_KINDS
        assert choices("fit", "init") == INIT_KINDS
        assert choices("fit", "latent_kernel") == KERNEL_KINDS
        assert choices("fit", "prior") == PRIOR_KINDS
        assert choices("init", "method") == SPECTRAL_INIT_KINDS
        assert choices("init", "prior") == PRIOR_KINDS


class TestEval:
    def test_scores_identity_embedding(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 2))
        data = tmp_path / "d.csv"
        data.write_text(
            "a,b\n" + "\n".join(",".join(format(v, ".17g") for v in row)
                                for row in X) + "\n", encoding="utf-8")
        emb = tmp_path / "e.csv"
        save_embedding(emb, X)
        args = ["eval", "--input", str(data), "--embedding", str(emb),
                "--k", "3", "--k", "7"]
        assert main(args) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "k,q,r"
        assert out[1] == "3,1.000000,1.000000"
        assert out[2] == "7,1.000000,1.000000"

    def test_prints_the_scores_of_the_fit_that_wrote_the_embedding(self, blob_csv,
                                                                    tmp_path, capsys):
        out = tmp_path / "out"
        ks = ["--k", "1", "--k", "7", "--k", "n/2", "--k", "28"]
        assert main(fit_args(blob_csv, out, ks)) == 0
        scores = yaml.safe_load((out / "manifest.yaml").read_text())["results"]["scores"]
        capsys.readouterr()
        assert main(["eval", "--input", str(blob_csv), "--label", "cls",
                     "--embedding", str(out / "embedding.csv")] + ks) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == [f"{s['k']},{s['q']:.6f},{s['r']:.6f}" for s in scores]
        assert [s["k"] for s in scores] == [1, 7, 15, 28]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_reproduces_the_fit_scores_exactly(self, tmp_path, monkeypatch, capsys, workers):
        # The fit takes the data's neighbor sets from calibration's blocks,
        # eval from its own scoring blocks: wide data (the Gram path) and a
        # small block budget give the two walks many blocks of other heights.
        monkeypatch.setattr(linalg, "usable_cores", lambda: workers)
        monkeypatch.setattr(linalg, "ROW_BLOCK_CELLS", 20 * 120)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(120, 8))
        X[60:, 0] += 6.0
        data = tmp_path / "d.csv"
        data.write_text("\n".join(["a,b,c,d,e,f,g,h,cls"] + [
            ",".join(format(v, ".17g") for v in row) + f",c{i % 2}"
            for i, row in enumerate(X)]) + "\n", encoding="utf-8")
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(data), "--label", "cls", "--out-dir", str(out),
                     "--iterations", "30", "--perplexity", "10", "--seed", "2"]) == 0
        scores = yaml.safe_load((out / "manifest.yaml").read_text())["results"]["scores"]
        returned = []

        def evaluate_and_keep(*args):
            returned.extend(evaluate_embedding(*args))
            return returned

        monkeypatch.setattr(cli, "evaluate_embedding", evaluate_and_keep)
        capsys.readouterr()
        assert main(["eval", "--input", str(data), "--label", "cls",
                     "--embedding", str(out / "embedding.csv"),
                     "--k", "n/4", "--k", "n/2"]) == 0
        assert [s["k"] for s in scores] == [30, 60]
        assert [{"k": s.k, "q": s.q, "r": s.r} for s in returned] == scores
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == [f"{s['k']},{s['q']:.6f},{s['r']:.6f}" for s in scores]

    @pytest.mark.parametrize("k", ["0", "-3", "19", "9999"])  # 19 is n - 1
    def test_k_outside_its_range_exits_2(self, tmp_path, capsys, k):
        emb = tmp_path / "e.csv"
        save_embedding(emb, np.random.default_rng(2).normal(size=(20, 2)))
        args = ["eval", "--input", str(emb), "--embedding", str(emb), "--k", k]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert f"got {k}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("option, value", [("--threads", "0"), ("--seed", "1"),
                                               ("--out-dir", None)])
    def test_options_it_never_reads_are_usage_errors(self, tmp_path, capsys, option, value):
        emb = tmp_path / "e.csv"
        save_embedding(emb, np.zeros((4, 2)))
        value = value or str(tmp_path / "out")
        with pytest.raises(SystemExit) as err:
            main(["eval", "--input", str(emb), "--embedding", str(emb), option, value])
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad_file", ["input", "embedding"])
    def test_non_finite_cells_exit_3(self, tmp_path, capsys, bad_file):
        good = tmp_path / "good.csv"
        save_embedding(good, np.arange(8.0).reshape(4, 2))
        bad = tmp_path / "bad.csv"
        bad.write_text("z1,z2\n0,1\n2,-inf\n4,5\n6,7\n", encoding="utf-8")
        files = {"input": good, "embedding": good, bad_file: bad}
        args = ["eval", "--input", str(files["input"]),
                "--embedding", str(files["embedding"])]
        assert main(args) == 3
        assert "line 3, column 'z2': non-finite value '-inf'" in capsys.readouterr().err

    def test_row_mismatch_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a\n1\n2\n3\n", encoding="utf-8")
        emb = tmp_path / "e.csv"
        save_embedding(emb, np.zeros((2, 2)))
        args = ["eval", "--input", str(data), "--embedding", str(emb)]
        assert main(args) == 3
        assert "rows" in capsys.readouterr().err


class TestPlot:
    def test_renders_next_to_embedding(self, tmp_path, capsys):
        emb = tmp_path / "e.csv"
        save_embedding(emb, np.random.default_rng(3).normal(size=(8, 2)),
                       labels=[0, 1] * 4, label_names=["u", "v"])
        assert main(["plot", "--embedding", str(emb)]) == 0
        svg = (tmp_path / "e.svg").read_text(encoding="utf-8")
        assert svg.count("<circle") == 10  # 8 points + 2 legend markers
        assert "wrote" in capsys.readouterr().out

    def test_explicit_out_path(self, tmp_path):
        emb = tmp_path / "e.csv"
        save_embedding(emb, np.arange(6.0).reshape(3, 2))
        target = tmp_path / "figs" / "scatter.svg"
        target.parent.mkdir()
        assert main(["plot", "--embedding", str(emb), "--out", str(target)]) == 0
        assert target.exists()

    def test_out_path_in_a_missing_directory_exits_2(self, tmp_path, capsys):
        emb = tmp_path / "e.csv"
        save_embedding(emb, np.arange(6.0).reshape(3, 2))
        target = tmp_path / "nodir" / "x.svg"
        assert main(["plot", "--embedding", str(emb), "--out", str(target)]) == 2
        assert f"error: cannot write {target}" in capsys.readouterr().err


    def test_config_is_a_usage_error(self, tmp_path, capsys):
        emb = tmp_path / "e.csv"
        save_embedding(emb, np.zeros((3, 2)))
        with pytest.raises(SystemExit) as err:
            main(["plot", "--embedding", str(emb), "--config", "x"])
        assert err.value.code == 2


class TestDiagnose:
    def test_all_checks_pass(self, capsys):
        assert main(["diagnose", "--samples", "4000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 5
        assert all(line.startswith("PASS") for line in lines)

    @pytest.mark.parametrize("option, value, message", [
        ("--seed", "-1", "seed must be nonnegative, got -1"),
        ("--samples", "-3", "samples must be at least 1, got -3"),
        # Zero draws would pass the sampling check having tested nothing.
        ("--samples", "0", "samples must be at least 1, got 0")])
    def test_bad_seed_or_samples_exit_2(self, capsys, option, value, message):
        assert main(["diagnose", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


@st.composite
def tiny_fits(draw):
    """(X, fit options): 2 to 4 rows of 1 to 3 columns, with duplicated or
    constant rows, two clusters 1e6 apart, scales of 1e154 or 1e-160 and
    offsets of 1e12, under every method, 0 to 5 iterations, dimensions
    1 to 3, and at most one perplexity or learning rate out of range."""
    n = draw(st.integers(2, 4))
    p = draw(st.integers(1, 3))
    X = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(size=(n, p))
    shape = draw(st.sampled_from(["normal", "duplicated", "constant", "clusters"]))
    if shape == "duplicated":
        X[-1] = X[0]
    elif shape == "constant":
        X[:] = X[0]
    elif shape == "clusters":
        X[n // 2:, 0] += 1e6
    X = X * draw(st.sampled_from([1.0, 1e154, 1e-160])) + draw(st.sampled_from([0.0, 1e12]))
    broken = draw(st.sampled_from([None, None, None, "--perplexity", "--learning-rate"]))
    perplexity = ["nan", "inf"] if broken == "--perplexity" else ["1", str(n - 1)]
    options = ["--method", draw(st.sampled_from(METHOD_KINDS)),
               "--iterations", str(draw(st.sampled_from([0, 2, 3, 4, 5]))),
               "--perplexity", draw(st.sampled_from(perplexity))]
    if broken == "--learning-rate":
        options += [broken, draw(st.sampled_from(["0", "-5", "nan"]))]
    dim = draw(st.sampled_from([None, "1", "3"]))
    return X, options + ([] if dim is None else ["--dim", dim])


def test_fit_exits_0_where_ties_put_rows_below_their_entropy_floor(tmp_path):
    # Rows 0-4 cannot reach perplexity 1.5; they stop as capped while their
    # kernel rows still hold their nearest ties, so the D prior takes them.
    data = tmp_path / "ties.csv"
    save_embedding(data, np.array([[0.0], [0.0], [0.0], [1.0], [2.5], [4.0]]))
    out = tmp_path / "out"
    assert main(["fit", "--input", str(data), "--perplexity", "1.5", "--init", "random",
                 "--out-dir", str(out)]) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["input"]["calibration"]["capped_rows"] == 5


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tiny_fits())
def test_fit_exits_with_a_code_and_writes_only_on_success(tmp_path_factory, case):
    # Every fit ends in an exit code, not an exception; it makes its
    # output directory only when it succeeds, and a seed fixes its bytes.
    X, options = case
    tmp = tmp_path_factory.mktemp("fit")
    data = tmp / "data.csv"
    save_embedding(data, X)
    codes = []
    for out in (tmp / "a", tmp / "b"):
        codes.append(main(["fit", "--input", str(data), "--out-dir", str(out), "--seed", "3"]
                          + options))
        assert codes[-1] in (0, 2, 3, 4), options
        assert out.exists() == (codes[-1] == 0), options
    assert codes[0] == codes[1], options
    if codes[0] == 0:
        assert sorted(path.name for path in (tmp / "a").iterdir()) == sorted(
            path.name for path in (tmp / "b").iterdir())
        for path in (tmp / "a").iterdir():
            if path.name != "manifest.yaml":
                assert path.read_bytes() == (tmp / "b" / path.name).read_bytes(), options
