"""The benchmark's workloads, the data they run on, and what each layer moves.

Every workload fits 10 isotropic Gaussian clusters in p = 50: centres are
drawn N(0, 4^2) per coordinate, noise has unit variance, and the cluster
is written to a ``class`` column.  The data and the fit's ``--seed`` both
come from the workload seed; the program sees only the generated file.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

CLUSTERS = 10
FEATURES = 50
CENTRE_SD = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    method: str
    init: str
    iterations: int
    #: Lowest acceptable R(n/4); a fit scoring below it counts as failed.
    r_floor: float
    why: str
    samples: Optional[int] = None

    def argv(self, csv_path, seed: int, out_dir) -> list:
        """Command line of ``graphcoupling fit`` for this workload."""
        argv = ["fit", "--input", str(csv_path), "--label", "class",
                "--method", self.method, "--init", self.init,
                "--iterations", str(self.iterations)]
        if self.samples is not None:
            argv += ["--samples", str(self.samples)]
        return argv + ["--seed", str(seed), "--out-dir", str(out_dir)]


WORKLOADS = {w.name: w for w in (
    # Dense coupling and the optimizer loop take ~85% of the fit; each n x n
    # float64 matrix (8 MB) is larger than L2 and smaller than L3.
    Workload("tsne-n1000", 1000, "tsne", "pca", 40, r_floor=0.3,
             why="optimizer loop and dense normaliser coupling dominate: "
                 "3 losses + 1 gradient per iteration under early exaggeration"),
    # Same coupling/optim layers, used differently: edgewise repulsion, no
    # exaggeration, B-prior thresholded input and Laplacian eigenmaps.
    Workload("umap-le-n1000", 1000, "umap", "le", 25, r_floor=0.1,
             why="edgewise log(1+K) repulsion without exaggeration, B-prior "
                 "input and Laplacian eigenmaps init; guards the non-t-SNE path"),
    # Input side and init take ~85%: calibration, 25 posterior samples with
    # n x n projectors, the n x n Gram PCA and R(K); the optimizer ~13%.
    Workload("ccpca-n2000", 2000, "tsne", "ccpca", 1, r_floor=0.3, samples=25,
             why="calibration, posterior sampling, ccPCA projectors, PCA and "
                 "R(K) dominate at n=2000; the optimizer runs one iteration"),
)}

#: Which end-to-end metric each per-layer metric should move, on which
#: workloads.  A later performance change takes its claim from this map;
#: on the workloads not listed the prediction is no change.
LAYER_EFFECTS = [
    {"layers": ["coupling.loss.calls", "coupling.grad.calls", "coupling.loss.s",
                "coupling.grad.s", "coupling.evals_per_iter", "optim.minimize.s",
                "optim.minimize.self_s", "optim.iter_s",
                "linalg.pairwise_sq_dists.calls", "linalg.pairwise_sq_dists.s"],
     "moves": ["fit_s"], "on": ["tsne-n1000", "umap-le-n1000"]},
    {"layers": ["kernels.calibrate_bandwidths.s", "kernels.log_kernel.calls",
                "posterior.posterior_expectation.s",
                "posterior.sample_posterior_graph.calls",
                "posterior.sample_posterior_graph.s", "graph.connected_components.s",
                "graph.cc_projector.s", "ccpca.averaged_projector.s",
                "ccpca.ccpca.self_s", "spectral.pca.s", "linalg.sym_eig.s",
                "evaluation.kary_agreement.calls", "evaluation.kary_agreement.s"],
     "moves": ["fit_s", "peak_rss_mb"], "on": ["ccpca-n2000"]},
    {"layers": ["spectral.laplacian_eigenmaps.s", "graph.components_from_support.s"],
     "moves": ["fit_s"], "on": ["umap-le-n1000"]},
    {"layers": ["pipeline.prepare_s", "pipeline.init_s", "pipeline.optimize_s",
                "pipeline.evaluate_s"],
     "moves": ["fit_s"], "on": list(WORKLOADS)},
    {"layers": ["pipeline.prepare.rss_mb", "pipeline.init.rss_mb",
                "pipeline.optimize.rss_mb", "pipeline.evaluate.rss_mb"],
     "moves": ["peak_rss_mb"], "on": list(WORKLOADS)},
    # Guards: under 2% of fit_s on every workload.
    {"layers": ["dataio.load_csv.s", "dataio.save_embedding.s",
                "svgplot.render_svg_scatter.s", "cli.cmd_fit.self_s"],
     "moves": ["fit_s"], "on": list(WORKLOADS)},
]


def generate_data(n: int, seed: int):
    """Clustered data and integer labels, a pure function of (n, seed)."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, CENTRE_SD, size=(CLUSTERS, FEATURES))
    labels = rng.permutation(np.arange(n) % CLUSTERS)
    X = centres[labels] + rng.standard_normal((n, FEATURES))
    return X, labels


def write_dataset(path, n: int, seed: int) -> None:
    """Write the generated data as a CSV with a header and a ``class`` column."""
    X, labels = generate_data(n, seed)
    head = [f"x{j}" for j in range(FEATURES)] + ["class"]
    lines = [",".join(head)]
    for row, label in zip(X, labels):
        lines.append(",".join(format(v, ".17g") for v in row) + f",c{label}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
