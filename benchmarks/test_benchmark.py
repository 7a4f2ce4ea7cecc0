"""Self-tests of the benchmark at tiny n.

    python3 -m pytest benchmarks -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer, package_modules  # noqa: E402
from workloads import WORKLOADS, Workload, generate_data  # noqa: E402

from graphcoupling.coupling import CouplingProblem  # noqa: E402

ITERATIONS = 3
TINY = Workload("tiny-tsne", 80, "tsne", "pca", ITERATIONS, r_floor=-1.0,
                why="self-test")
TINY_CCPCA = Workload("tiny-ccpca", 80, "tsne", "ccpca", ITERATIONS, r_floor=-1.0,
                      samples=2, why="self-test")


def _attributes():
    state = {}
    for name, module in package_modules().items():
        for attr, value in vars(module).items():
            state[(name, attr)] = id(value)
    for attr, value in vars(CouplingProblem).items():
        state[("CouplingProblem", attr)] = id(value)
    return state


def test_tracer_restores_every_patched_attribute():
    before = _attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(0):
            during = _attributes()
            raise RuntimeError("fit crashed")
    assert _attributes() == before
    changed = {key for key in before if during[key] != before[key]}
    # Patched where it is defined and where it is imported by name.
    assert ("graphcoupling.linalg", "pairwise_sq_dists") in changed
    assert ("graphcoupling.coupling", "pairwise_sq_dists") in changed
    assert ("CouplingProblem", "loss") in changed
    assert not any(attr.startswith("_") for _, attr in changed)


@pytest.mark.parametrize("workload", [TINY, TINY_CCPCA], ids=lambda w: w.name)
def test_traced_counts_repeat_exactly(tmp_path, workload):
    runs = [run.measure(workload, 3, 0, True, tmp_path / str(i)) for i in range(2)]
    for record in runs:
        assert record["failed_frac"] == 0.0
    counts = [{name: m["value"] for name, m in record["metrics"].items()
               if name.endswith(".calls") or name == "coupling.evals_per_iter"}
              for record in runs]
    assert counts[0] == counts[1]
    assert counts[0]["coupling.grad.calls"] == ITERATIONS
    # Under early exaggeration: exaggerated, plain and step-check losses per
    # iteration, plus the start, the end and the manifest's final loss.
    assert counts[0]["coupling.loss.calls"] == 3 * ITERATIONS + 3
    expected_samples = workload.samples or 0
    assert counts[0]["posterior.sample_posterior_graph.calls"] == expected_samples


def _corrupt(out_dir: Path, kind: str) -> None:
    path = out_dir / "embedding.csv"
    lines = path.read_text().splitlines()
    if kind == "nan-row":
        lines[5] = "nan,nan," + lines[5].rsplit(",", 1)[1]
    elif kind == "missing-row":
        del lines[5]
    else:
        lines = []
    path.write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("kind", ["nan-row", "missing-row", "empty"])
def test_corrupted_artifact_is_failed_not_timed(tmp_path, kind):
    calls = []

    def corrupting_fit(argv):
        wall, code = run.fit_once(argv)
        if not calls:
            _corrupt(Path(argv[argv.index("--out-dir") + 1]), kind)
        calls.append(wall)
        return wall, code

    record = run.measure(TINY, 0, 0, False, tmp_path, fit=corrupting_fit)
    first, second = record["fits"]
    assert first["reasons"] and not second["reasons"]
    assert record["failed_frac"] == 0.5
    assert record["metrics"]["fit_s"]["value"] == second["seconds"]


def test_changed_embedding_fails_the_determinism_check(tmp_path):
    calls = []

    def drifting_fit(argv):
        wall, code = run.fit_once(argv)
        if calls:
            path = Path(argv[argv.index("--out-dir") + 1]) / "embedding.csv"
            lines = path.read_text().splitlines()
            lines[1], lines[2] = lines[2], lines[1]
            path.write_text("\n".join(lines) + "\n")
        calls.append(wall)
        return wall, code

    record = run.measure(TINY, 0, 0, False, tmp_path, fit=drifting_fit)
    assert [bool(f["reasons"]) for f in record["fits"]] == [False, True]
    assert "differs" in record["fits"][1]["reasons"][0]


def test_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        record = run.measure(TINY, 1, 0, trace, tmp_path)
        declared = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {name: m["unit"] for name, m in record["metrics"].items()}
        assert emitted == declared
        for name, metric in record["metrics"].items():
            assert math.isfinite(metric["value"]), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_data_is_a_function_of_the_seed():
    X0, labels0 = generate_data(50, 7)
    X1, labels1 = generate_data(50, 7)
    assert (X0 == X1).all() and (labels0 == labels1).all()
    assert not (generate_data(50, 8)[0] == X0).all()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tsne-n1000",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
