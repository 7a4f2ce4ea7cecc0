"""The exp floor moves no bit: calibration and the coupling tiles with
``EXP_FLOOR`` at -inf (every exp exact) and at its value give the same
bytes."""

import numpy as np
import pytest

from graphcoupling import coupling, kernels
from graphcoupling.coupling import CouplingProblem, input_affinity
from graphcoupling.kernels import calibrated_kernel
from graphcoupling.linalg import pairwise_sq_dists

#: numpy's vector exp leaves its fast path for arguments below about this.
SLOW_EXP = -708.0


def clustered(n, seed=3, p=10, spread=12.0):
    """Ten clusters far enough apart that the logits between them at
    tau = 1 fall well below -708."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, spread, size=(10, p))
    return centres[rng.permutation(np.arange(n) % 10)] + rng.standard_normal((n, p))


def near_duplicates(n=60, seed=4):
    X = clustered(n, seed)
    X[n // 2:] = X[:n - n // 2] + 1e-9 * np.random.default_rng(seed).normal(size=X[n // 2:].shape)
    return X


def underflow_share(X):
    """The share of calibration's first-pass exp arguments below -708."""
    D = pairwise_sq_dists(X)
    np.fill_diagonal(D, np.inf)
    shifted = -(D - D.min(axis=1, keepdims=True)) / 2.0
    return float((shifted[np.isfinite(shifted)] < SLOW_EXP).mean())


def exact_and_floored(monkeypatch, run):
    """``run()`` with every exp exact, then with the floor in place."""
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "EXP_FLOOR", -np.inf)
        patch.setattr(coupling, "EXP_FLOOR", -np.inf)
        exact = run()
    return exact, run()


CALIBRATION_CASES = {
    "clustered": (clustered(400), 30.0),
    "near-duplicates": (near_duplicates(), 5.0),
    "large-offset": (clustered(200, seed=5) + 1e4, 20.0),
    "tiny-n": (clustered(3, seed=6), 1.5),
    "perplexity-n-1": (clustered(40, seed=7), 39.0),
    "scaled-up": (np.random.default_rng(8).normal(size=(80, 3)) * 1e3, 10.0),
    # Ties put rows 0-4's targets below their entropy floor: they halve tau
    # until Var_p(l) collapses and stop as capped.
    "capped-ties": (np.array([[0.0], [0.0], [0.0], [1.0], [2.5], [4.0]]), 1.5),
}


def test_the_clustered_cases_underflow():
    assert underflow_share(CALIBRATION_CASES["clustered"][0]) > 0.10
    assert underflow_share(CALIBRATION_CASES["large-offset"][0]) > 0.10


@pytest.mark.parametrize("case", CALIBRATION_CASES)
def test_calibration_is_byte_identical(monkeypatch, case):
    X, perplexity = CALIBRATION_CASES[case]
    exact, floored = exact_and_floored(monkeypatch, lambda: calibrated_kernel(X, perplexity))
    assert floored.bandwidths.tobytes() == exact.bandwidths.tobytes()
    assert floored.values.tobytes() == exact.values.tobytes()
    assert floored.evaluations.tobytes() == exact.evaluations.tobytes()


def spread_embedding(n, seed):
    """Ten clusters in the plane 30 apart: the Gaussian log K between them
    lies far below -708."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 30.0, size=(10, 2))
    return centres[rng.permutation(np.arange(n) % 10)] + rng.standard_normal((n, 2))


@pytest.mark.parametrize("method", ["sne", "tsne"])
@pytest.mark.parametrize("n, seed", [(3, 1), (40, 2), (300, 3)])
def test_gaussian_tiles_are_byte_identical(monkeypatch, method, n, seed):
    X = clustered(n, seed)
    problem = CouplingProblem(method, input_affinity(calibrated_kernel(X, min(10.0, n - 1.0)),
                                                     method), "gaussian")
    Z = spread_embedding(n, seed)
    D = pairwise_sq_dists(Z)
    if n > 3:
        np.fill_diagonal(D, np.inf)
        gaps = -(D - D.min(axis=1, keepdims=True)) / 2.0
        assert (gaps[np.isfinite(gaps)] < SLOW_EXP).mean() > 0.10

    def run():
        return [(problem.evaluate(Z, alpha), problem.attraction_repulsion(Z))
                for alpha in (1.0, 12.0)]

    exact, floored = exact_and_floored(monkeypatch, run)
    for (want, want_split), (got, got_split) in zip(exact, floored):
        assert np.float64(got.loss).tobytes() == np.float64(want.loss).tobytes()
        assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
        assert got.grad.tobytes() == want.grad.tobytes()
        assert got_split == want_split


@pytest.mark.parametrize("method", ["sne", "tsne"])
def test_masked_pairs_add_nothing(monkeypatch, method):
    # With the floor raised to 0 every unmasked pair's normalizer term is
    # exp(0) = 1, so the normalizers count the pairs: n - 1 per sne row,
    # n (n - 1) for tsne.  A masked pair that kept its floored term would
    # add to the count.
    n = 50
    X = clustered(n, 9)
    problem = CouplingProblem(method, input_affinity(calibrated_kernel(X, 10.0), method),
                              "gaussian")
    Z = spread_embedding(n, 9)
    D = pairwise_sq_dists(Z)
    np.fill_diagonal(D, np.inf)
    monkeypatch.setattr(coupling, "EXP_FLOOR", 0.0)
    repulsion = problem.attraction_repulsion(Z)[1]
    if method == "sne":
        weight = problem.P.sum(axis=1)
        want = float((weight * (-D.min(axis=1) / 2.0 + np.log(n - 1.0))).sum())
    else:
        want = float(problem.P.sum()) * 0.5 * (-D.min() / 2.0 + np.log(n * (n - 1.0)))
    assert repulsion == pytest.approx(want, rel=1e-12)
