"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test also asserts its criterion so a plain pytest run gates
on the same conditions.
"""

import time

import numpy as np
import yaml

from graphcoupling import linalg
from graphcoupling.ccpca import ccpca
from graphcoupling.cli import main as cli_main
from graphcoupling.coupling import CouplingProblem
from graphcoupling.graph import log_mrf_density, weighted_laplacian
from graphcoupling.kernels import calibrated_kernel
from graphcoupling.linalg import pairwise_sq_dists
from graphcoupling.optim import OptimizerConfig, minimize
from graphcoupling.pipeline import RunSpec, run
from graphcoupling.posterior import PosteriorSampler
from graphcoupling.spectral import pca

from oracles import (
    PrecisionCouplingProblem,
    averaged_projector,
    connected_components,
    expected_graph,
    kary_agreement,
    kernel_matrix,
    neighbor_indices,
    posterior_expectation,
    precision_coupling_closed_form,
    sample_posterior_graph,
    symmetrize_row_affinity,
    umap_threshold_prob,
)


def report(number, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number:2d} ({name}): {detail}"
    print(line)
    assert ok, line


def random_latent_graph(rng, n):
    W = rng.integers(0, n + 1, size=(n, n))
    np.fill_diagonal(W, 0)
    return W


def method_affinity(K, method):
    if method == "umap":
        return umap_threshold_prob(posterior_expectation(K, "B"))
    P = posterior_expectation(K, "D")
    if method in ("tsne", "largevis"):
        return symmetrize_row_affinity(P)
    return P


class TestAcceptance:
    def test_01_log_density_trace_identity(self):
        start = time.time()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 11))
            p = int(rng.integers(1, 5))
            X = rng.normal(size=(n, p))
            W = random_latent_graph(rng, n)
            lhs = log_mrf_density(X, W, "gaussian")
            rhs = -np.trace(X.T @ weighted_laplacian(W + W.T) @ X) / 2.0
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        elapsed = time.time() - start
        report(1, "log-density trace identity",
               worst <= 1e-8 and elapsed < 1.0,
               f"max rel err {worst:.2e} (tol 1e-08), {elapsed:.2f}s (< 1s)")

    def test_02_per_component_shift_invariance(self):
        start = time.time()
        rng = np.random.default_rng(102)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(3, 11))
            p = int(rng.integers(1, 5))
            X = rng.normal(size=(n, p))
            groups = rng.integers(0, int(rng.integers(1, 4)), size=n)
            W = rng.integers(0, n + 1, size=(n, n))
            W *= groups[:, None] == groups[None, :]
            np.fill_diagonal(W, 0)
            kind = "gaussian" if trial % 2 == 0 else "student"
            base = log_mrf_density(X, W, kind)
            parts = connected_components(W)
            shifted = X.copy()
            for c in range(parts.n_components):
                shifted[parts.assignment == c] += rng.normal(size=p)
            worst = max(worst, abs(log_mrf_density(shifted, W, kind) - base))
        elapsed = time.time() - start
        report(2, "per-component shift invariance",
               worst <= 1e-9 and elapsed < 1.0,
               f"max abs change {worst:.2e} (tol 1e-09), {elapsed:.2f}s (< 1s)")

    def test_03_posterior_sampling_laws(self):
        start = time.time()
        X = np.random.default_rng(3).normal(size=(5, 3))
        K = kernel_matrix(X, "gaussian")
        samples, chunk = 100_000, 1000
        off = ~np.eye(5, dtype=bool)
        worst_z = 0.0
        structure_ok = True
        for prior in ("B", "D", "E"):
            expect = posterior_expectation(K, prior).values
            rng = np.random.default_rng(15)
            sampler = PosteriorSampler(K, prior)
            total = np.zeros((5, 5))
            # A generator listed m times gives m exact, independent draws;
            # one call per chunk keeps the per-call cost off every draw.
            for _ in range(samples // chunk):
                for edges in sampler.draws([rng] * chunk):
                    W = edges.dense()
                    if prior == "D":
                        structure_ok &= bool((W.sum(axis=1) == 1).all())
                    elif prior == "E":
                        structure_ok &= W.sum() == 5
                    total += W
            freq = total / samples
            # E draws 5 edges per sample from the global cell law, so the
            # per-cell count is binomial with 5 trials; B and D cells are
            # single bernoulli indicators.
            mean = expect * (5 if prior == "E" else 1)
            var = 5 * expect * (1 - expect) if prior == "E" else mean * (1 - mean)
            z = np.abs(freq - mean)[off] / np.sqrt(var[off] / samples)
            worst_z = max(worst_z, float(z.max()))
        elapsed = time.time() - start
        report(3, "posterior sampling laws",
               worst_z <= 4.0 and structure_ok and elapsed < 30.0,
               f"max z {worst_z:.2f} (tol 4 SE), edge-count structure "
               f"{'exact' if structure_ok else 'violated'}, {elapsed:.1f}s (< 30s)")

    def test_04_loss_recovery_and_gradients(self):
        start = time.time()
        # Asymmetric ordered-pair form vs the symmetrized objective.
        rng = np.random.default_rng(104)
        worst_pair = 0.0
        for _ in range(20):
            n = int(rng.integers(4, 10))
            X = rng.normal(size=(n, 3))
            Z = rng.normal(size=(n, 2))
            P_row = posterior_expectation(calibrated_kernel(X, n / 2.0), "D")
            prob = CouplingProblem("tsne", symmetrize_row_affinity(P_row))
            logQ = -np.log1p(pairwise_sq_dists(Z))
            off = ~np.eye(n, dtype=bool)
            log_total = np.log(np.exp(logQ)[off].sum())
            asym = -float((P_row.values[off] * (logQ[off] - log_total)).sum())
            worst_pair = max(worst_pair, abs(prob.loss(Z) - asym))

        # Thresholded-OR edge probabilities vs Monte-Carlo frequencies.
        X4 = np.random.default_rng(7).normal(size=(4, 2))
        K4 = kernel_matrix(X4, "gaussian")
        ptilde = umap_threshold_prob(posterior_expectation(K4, "B")).values
        sampler = np.random.default_rng(17)
        samples = 100_000
        count = np.zeros((4, 4))
        for _ in range(samples):
            W = sample_posterior_graph(K4, "B", sampler)
            count += (W + W.T) >= 1
        off4 = ~np.eye(4, dtype=bool)
        se = np.sqrt(ptilde[off4] * (1 - ptilde[off4]) / samples)
        worst_mc = float((np.abs(count / samples - ptilde)[off4] / se).max())

        # Analytic gradients vs central finite differences.
        rng = np.random.default_rng(140)
        worst_grad = 0.0
        h = 1e-5
        for method in ("sne", "tsne", "largevis", "umap"):
            for _ in range(20):
                n = int(rng.integers(5, 10))
                X = rng.normal(size=(n, 3))
                Z = rng.normal(size=(n, 2))
                prob = CouplingProblem(
                    method, method_affinity(calibrated_kernel(X, n / 2.0), method))
                g = prob.grad(Z)
                g_fd = np.zeros_like(Z)
                for i in range(n):
                    for j in range(Z.shape[1]):
                        Zp = Z.copy()
                        Zp[i, j] += h
                        Zm = Z.copy()
                        Zm[i, j] -= h
                        g_fd[i, j] = (prob.loss(Zp) - prob.loss(Zm)) / (2 * h)
                rel = np.linalg.norm(g - g_fd) / (1.0 + np.linalg.norm(g_fd))
                worst_grad = max(worst_grad, rel)
        elapsed = time.time() - start
        report(4, "loss recovery and gradients",
               worst_pair <= 1e-10 and worst_mc <= 4.0 and worst_grad <= 1e-5
               and elapsed < 60.0,
               f"pair-form gap {worst_pair:.2e} (tol 1e-10), threshold-prob max z "
               f"{worst_mc:.2f} (tol 4 SE), grad rel err {worst_grad:.2e} "
               f"(tol 1e-05), {elapsed:.1f}s (< 60s)")

    def test_05_attraction_is_laplacian_quadratic_form(self):
        start = time.time()
        rng = np.random.default_rng(105)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(4, 12))
            X = rng.normal(size=(n, 3))
            Z = rng.normal(size=(n, 2))
            prob = CouplingProblem(
                "sne", posterior_expectation(calibrated_kernel(X, n / 2.0), "D"),
                latent_kernel="gaussian")
            att = prob.attraction_repulsion(Z)[0]
            E = expected_graph(prob)
            quad = np.trace(Z.T @ weighted_laplacian(E + E.T) @ Z) / 2.0
            worst = max(worst, abs(att - quad))
        elapsed = time.time() - start
        report(5, "attraction equals Laplacian quadratic form",
               worst <= 1e-8 and elapsed < 5.0,
               f"max abs gap {worst:.2e} (tol 1e-08), {elapsed:.2f}s (< 5s)")

    def test_06_precision_coupling_closed_form(self):
        start = time.time()
        optimizer = OptimizerConfig(iterations=4000, learning_rate=0.05,
                                    momentum_switch=100, grad_tol=1e-10)
        gammas = (0.5, 1.0, 2.0, 0.02, 1.0)  # 0.02 drives every weight to zero
        worst = 0.0
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            X = rng.normal(size=(20, 5)) * rng.uniform(0.5, 2.0, size=5)
            X = X - X.mean(axis=0)
            problem = PrecisionCouplingProblem(X, gammas[trial])
            result = minimize(problem, 0.5 * rng.normal(size=(20, 2)), optimizer)
            Zc = precision_coupling_closed_form(X, 2, gammas[trial])
            gap = np.linalg.norm(result.Z @ result.Z.T - Zc @ Zc.T)
            worst = max(worst, gap / max(np.linalg.norm(Zc @ Zc.T), 1.0))
        Xp = np.random.default_rng(200).normal(size=(20, 5))
        Xp = Xp - Xp.mean(axis=0)
        Zc = precision_coupling_closed_form(Xp, 2, 1.0)
        Zp = pca(Xp, 2)
        pca_gap = float(np.abs(Zc @ Zc.T - Zp @ Zp.T).max())
        elapsed = time.time() - start
        report(6, "precision-coupling closed form",
               worst <= 1e-3 and pca_gap <= 1e-8 and elapsed < 30.0,
               f"numerical-vs-closed rel {worst:.2e} (tol 1e-03), gamma=1 vs PCA "
               f"gram gap {pca_gap:.2e} (tol 1e-08), {elapsed:.1f}s (< 30s)")

    def test_07_block_diagonal_averaged_projector(self):
        start = time.time()
        rng = np.random.default_rng(31)
        shift = np.zeros(6)
        shift[0] = 150.0
        X = np.vstack([rng.normal(size=(15, 6)),
                       rng.normal(size=(15, 6)) + shift])
        K = calibrated_kernel(X, 10.0)
        # The separation drives every cross-block kernel value to an exact
        # zero, so the kernel is block diagonal by construction.
        cross_mass = float(K.values[:15, 15:].sum() + K.values[15:, :15].sum())
        block_means = np.vstack([X[:15].mean(axis=0), X[15:].mean(axis=0)])
        ref_means = pca(block_means, 2)
        ref = float(np.linalg.norm(ref_means[0] - ref_means[1]))
        zeros_ok = cross_mass == 0.0
        worst_rel = 0.0
        for seed in range(5):
            M = averaged_projector(K, 100, "D", seed)
            zeros_ok &= bool((M[:15, 15:] == 0.0).all())
            zeros_ok &= bool((M[15:, :15] == 0.0).all())
            Z = ccpca(X, K, 2, 100, "D", seed)
            dist = float(np.linalg.norm(Z[:15].mean(axis=0) - Z[15:].mean(axis=0)))
            worst_rel = max(worst_rel, abs(dist - ref) / ref)
        elapsed = time.time() - start
        report(7, "block-diagonal averaged projector",
               zeros_ok and worst_rel <= 0.10 and elapsed < 10.0,
               f"cross-block zeros {'exact' if zeros_ok else 'violated'}, "
               f"inter-block distance rel err {worst_rel:.2e} (tol 0.10), "
               f"{elapsed:.1f}s (< 10s)")

    def test_08_initialization_quality_ordering(self):
        start = time.time()
        rng = np.random.default_rng(42)
        centers = np.zeros((3, 10))
        centers[1, 0] = 30.0
        centers[2, 1] = 30.0
        X = np.vstack([rng.normal(size=(50, 10)) + c for c in centers])
        k = X.shape[0] // 4
        means = {}
        for init in ("ccpca", "pca", "random"):
            scores = []
            for seed in range(5):
                spec = RunSpec(method="tsne", init=init, seed=seed,
                               perplexity=30.0, eval_ks=(k,))
                result = run(X, spec)
                scores.append(result.manifest["results"]["scores"][0]["r"])
            means[init] = float(np.mean(scores))
        elapsed = time.time() - start
        beats_random = means["ccpca"] > means["random"]
        near_pca = means["ccpca"] >= means["pca"] - 0.02
        report(8, "initialization quality ordering",
               beats_random and near_pca and elapsed < 120.0,
               f"mean r@{k}: ccpca {means['ccpca']:.4f}, pca {means['pca']:.4f}, "
               f"random {means['random']:.4f} (need ccpca > random and "
               f">= pca - 0.02), {elapsed:.1f}s (< 120s)")

    def test_09_neighborhood_agreement_metric(self):
        start = time.time()
        rng = np.random.default_rng(23)
        X = rng.normal(size=(500, 4))
        identity_r = kary_agreement(X, X.copy(), 125).r
        perm_scores = [
            kary_agreement(X, X[np.random.default_rng(1000 + s).permutation(500)],
                           125).r
            for s in range(20)
        ]
        perm_mean = float(np.mean(perm_scores))
        oracle_ok = True
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(5, 51))
            Y = rng.normal(size=(n, 3))
            D = pairwise_sq_dists(Y)
            k = int(rng.integers(1, n - 1))
            got = neighbor_indices(D, k)
            for i in range(n):
                order = sorted((D[i, j], j) for j in range(n) if j != i)
                oracle_ok &= set(got[i].tolist()) == {j for _, j in order[:k]}
        elapsed = time.time() - start
        report(9, "neighborhood agreement metric",
               identity_r == 1.0 and abs(perm_mean) <= 0.05 and oracle_ok
               and elapsed < 30.0,
               f"identity r {identity_r} (need exactly 1), permutation mean r "
               f"{perm_mean:+.4f} (tol 0.05), rank sets "
               f"{'match' if oracle_ok else 'mismatch'} brute-force sort, "
               f"{elapsed:.1f}s (< 30s)")

    def test_10_perplexity_connectivity_monotonicity(self):
        start = time.time()
        rng = np.random.default_rng(19)
        centers = rng.normal(size=(4, 5)) * 8.0
        X = np.vstack([rng.normal(size=(20, 5)) + c for c in centers])
        means = []
        for perplexity in (5, 15, 30, 60):
            K = calibrated_kernel(X, float(perplexity))
            counts = [
                connected_components(
                    sample_posterior_graph(
                        K, "D", np.random.default_rng([perplexity, s]))
                ).n_components
                for s in range(50)
            ]
            means.append(float(np.mean(counts)))
        violations = sum(1 for a, b in zip(means, means[1:]) if b > a)
        elapsed = time.time() - start
        report(10, "perplexity-connectivity monotonicity",
               violations <= 1 and elapsed < 30.0,
               f"mean components {[round(m, 2) for m in means]}, adjacent "
               f"violations {violations} (tol 1), {elapsed:.1f}s (< 30s)")

    def test_11_fit_determinism(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        X[15:, 0] += 8.0
        data = tmp_path / "data.csv"
        rows = [",".join(format(v, ".17g") for v in row) for row in X]
        data.write_text("a,b,c\n" + "\n".join(rows) + "\n", encoding="utf-8")

        # --threads is only validated, so the block workers are set by
        # patching usable_cores: the usable cores, then 1, then 4.
        runs = (("run1", "1", linalg.usable_cores()), ("run2", "1", 1), ("run3", "4", 4))
        outputs = []
        for name, threads, workers in runs:
            monkeypatch.setattr(linalg, "usable_cores", lambda w=workers: w)
            out = tmp_path / name
            code = cli_main([
                "fit", "--input", str(data), "--out-dir", str(out),
                "--seed", "7", "--threads", threads,
                "--iterations", "300", "--perplexity", "8",
            ])
            assert code == 0
            manifest = yaml.safe_load((out / "manifest.yaml").read_text())
            # The output contract pins every manifest field except the
            # wall-clock timings block, which is the one part of a run
            # that fixing the seed cannot make reproducible.
            manifest.pop("timings")
            outputs.append(((out / "embedding.csv").read_bytes(),
                            (out / "embedding.svg").read_bytes(),
                            manifest))
        same_bytes = (outputs[0][0] == outputs[1][0] == outputs[2][0]
                      and outputs[0][1] == outputs[1][1] == outputs[2][1])
        same_manifest = outputs[0][2] == outputs[1][2] == outputs[2][2]
        report(11, "fit determinism",
               same_bytes and same_manifest,
               f"embedding/figure bytes {'identical' if same_bytes else 'differ'} "
               f"and manifests {'identical' if same_manifest else 'differ'} "
               f"across runs at {', '.join(str(w) for *_, w in runs)} workers "
               f"with --threads {', '.join(t for _, t, _ in runs)} (timings excluded)")
