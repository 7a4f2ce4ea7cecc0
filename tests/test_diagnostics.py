"""``diagnose`` runs a fit's own path, passes on working code and fails
under a fault planted in the code each check covers."""

import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from graphcoupling import coupling, graph
from graphcoupling.cli import main
from graphcoupling.coupling import CouplingProblem, input_affinity
from graphcoupling.diagnostics import run_diagnostics
from graphcoupling.graph import components_from_edges
from graphcoupling.kernels import calibrated_kernel
from graphcoupling.posterior import PosteriorSampler


def negated_shares(monkeypatch):
    shares = coupling._pair_shares
    monkeypatch.setattr(coupling, "_pair_shares",
                        lambda *args: tuple(-share for share in shares(*args)))


def cdf_one_row_off(monkeypatch):
    # Row i draws from row i - 1's CDF.
    row_cdf = PosteriorSampler._row_cdf
    monkeypatch.setattr(PosteriorSampler, "_row_cdf",
                        lambda self, rows: np.roll(row_cdf(self, rows), 1, axis=0))


def one_wrong_root(monkeypatch):
    # The first node that is not its component's root becomes a root.
    component_roots = graph._component_roots

    def roots(n, rows, cols, parent=None):
        found = component_roots(n, rows, cols, parent)
        members = np.flatnonzero(found != np.arange(n))
        if members.size:
            found[members[0]] = members[0]
        return found
    monkeypatch.setattr(graph, "_component_roots", roots)


def laplacian_without_diagonal(monkeypatch):
    monkeypatch.setattr(graph, "weighted_laplacian",
                        lambda A: np.subtract(0.0, np.asarray(A, dtype=np.float64)))


@pytest.mark.parametrize("plant, check", [
    (negated_shares, "analytic-gradient"),
    (cdf_one_row_off, "posterior-sampling-frequencies"),
    (one_wrong_root, "component-shift-invariance"),
    (laplacian_without_diagonal, "gaussian-trace-identity"),
], ids=lambda value: getattr(value, "__name__", value))
def test_a_planted_fault_fails_its_check(monkeypatch, plant, check):
    plant(monkeypatch)
    results = run_diagnostics(seed=0, samples=1000)
    assert [result.name for result in results if not result.passed] == [check]


def test_passes_at_the_default_samples(capsys):
    assert main(["diagnose"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5 and all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("seed", range(1, 10))
def test_passes_at_other_seeds(seed):
    assert main(["diagnose", "--seed", str(seed), "--samples", "4000"]) == 0


def test_runs_the_fit_path_and_no_oracle(capsys):
    # sys.setprofile sees the calling thread only; each block walk runs its
    # first block there.
    entered = set()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        code = main(["diagnose", "--samples", "200"])
    finally:
        sys.setprofile(None)
    assert code == 0, capsys.readouterr().err
    path = [calibrated_kernel, input_affinity, components_from_edges,
            PosteriorSampler.draws, CouplingProblem.evaluate]
    assert [f.__qualname__ for f in path if f.__code__ not in entered] == []
    oracle_file = Path(oracles.__file__).resolve()
    assert not [c.co_name for c in entered if Path(c.co_filename).resolve() == oracle_file]
