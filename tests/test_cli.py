import numpy as np
import numpy.testing as npt
import pytest
import yaml

from graphcoupling.cli import OUT_DIR_ENV, load_config, main
from graphcoupling.dataio import load_csv, load_embedding, save_embedding
from graphcoupling.errors import ParameterError


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

    def test_threads_setting_never_changes_bytes(self, blob_csv, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            assert main(fit_args(blob_csv, out,
                                 ["--threads", threads, "--seed", "3"])) == 0
            outs.append(out)
        a, b = outs
        assert (a / "embedding.csv").read_bytes() == (b / "embedding.csv").read_bytes()
        assert (a / "embedding.svg").read_bytes() == (b / "embedding.svg").read_bytes()
        ma = yaml.safe_load((a / "manifest.yaml").read_text())
        mb = yaml.safe_load((b / "manifest.yaml").read_text())
        ma.pop("timings")
        mb.pop("timings")
        assert ma == mb

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

    def test_bad_threads_exits_2(self, blob_csv, tmp_path):
        assert main(fit_args(blob_csv, tmp_path / "x", ["--threads", "0"])) == 2

    def test_ragged_input_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        args = ["fit", "--input", str(bad), "--out-dir", str(tmp_path / "x")]
        assert main(args) == 3
        assert "line 3" in capsys.readouterr().err

    def test_missing_input_exits_3(self, tmp_path):
        args = ["fit", "--input", str(tmp_path / "absent.csv"),
                "--out-dir", str(tmp_path / "x")]
        assert main(args) == 3


class TestInit:
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
        from graphcoupling.posterior import posterior_expectation
        from graphcoupling.pipeline import prepare_input

        out = tmp_path / "le"
        args = ["init", "--input", str(blob_csv), "--label", "cls",
                "--out-dir", str(out), "--method", "le", "--perplexity", "8"]
        assert main(args) == 0
        X = load_csv(blob_csv, label="cls").X
        _, K = prepare_input(X, "tsne", 8.0)
        row = laplacian_eigenmaps(posterior_expectation(K, "D"), 2).coords
        npt.assert_allclose(load_embedding(out / "init.csv").X, row, atol=1e-10)

    def test_ccpca_writes_what_fit_starts_from(self, blob_csv, tmp_path):
        from graphcoupling.pipeline import RunSpec, initial_embedding, prepare_input

        out = tmp_path / "cc"
        args = ["init", "--input", str(blob_csv), "--label", "cls",
                "--out-dir", str(out), "--method", "ccpca",
                "--samples", "20", "--perplexity", "8", "--seed", "5"]
        assert main(args) == 0
        X = load_csv(blob_csv, label="cls").X
        spec = RunSpec(init="ccpca", ccpca_samples=20, perplexity=8.0, seed=5)
        Z0, _ = initial_embedding(X, spec, *prepare_input(X, spec.method, 8.0))
        npt.assert_array_equal(load_embedding(out / "init.csv").X, Z0)

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


class TestDiagnose:
    def test_all_checks_pass(self, capsys):
        assert main(["diagnose", "--samples", "4000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 5
        assert all(line.startswith("PASS") for line in lines)
