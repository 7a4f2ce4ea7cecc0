"""Command line interface.

Subcommands: ``fit`` (full pipeline), ``init`` (spectral initialization
only), ``eval`` (neighborhood scores for an existing embedding),
``plot`` (re-render an embedding as SVG), ``diagnose`` (self-checks).

Options may come from a flat ``key = value`` config file via
``--config``; command line flags override it.  The output directory can
also come from the ``GRAPHCOUPLING_OUT_DIR`` environment variable.
Exit codes: 0 success, 2 bad parameters, 3 bad input data, 4 numerical
failure.
"""

import argparse
import hashlib
import os
import sys

import numpy as np
import yaml

from .dataio import load_csv, load_embedding, save_embedding
from .diagnostics import run_diagnostics
from .errors import DataError, GraphCouplingError, ParameterError
from .evaluation import evaluate_embedding
from .optim import OptimizerConfig
from .pipeline import RunSpec, default_eval_ks, initial_embedding, prepare_input, run
from .svgplot import render_svg_scatter

OUT_DIR_ENV = "GRAPHCOUPLING_OUT_DIR"

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


#: Options a config file may set, with the cast applied to its strings.
CONFIG_CASTS = {
    "method": str, "init": str, "dim": int, "perplexity": float,
    "latent_kernel": str, "classic_scale": _parse_bool,
    "iterations": int, "learning_rate": float, "exaggeration": _parse_bool,
    "samples": int, "prior": str, "seed": int, "repeat": int,
    "out_dir": str, "delimiter": str, "no_header": _parse_bool,
    "label": str, "threads": int,
}


def load_config(path) -> dict:
    """Read a flat key = value file; '#' starts a comment."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from None
    config = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path} line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in CONFIG_CASTS:
            raise ParameterError(f"{path} line {lineno}: unknown option {key!r}")
        config[key] = CONFIG_CASTS[key](value)
    return config


def _resolve(args, config, name, default):
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name)
    return default if value is None else value


def _check_threads(threads) -> None:
    # Caps worker pools; every pipeline here is single-threaded one-shot
    # numpy, so the setting can never change results.
    if threads is not None and threads < 1:
        raise ParameterError(f"threads must be at least 1, got {threads}")


def _load_dataset(args, config):
    path = args.input
    delimiter = _resolve(args, config, "delimiter", ",")
    header = not _resolve(args, config, "no_header", False)
    label = _resolve(args, config, "label", None)
    if label is not None and not header:
        try:
            label = int(label)
        except ValueError:
            raise ParameterError(
                "label must be a column index when the file has no header") from None
    return load_csv(path, delimiter=delimiter, header=header, label=label)


def _out_dir(args, config) -> str:
    out = _resolve(args, config, "out_dir", None)
    if out is None:
        out = os.environ.get(OUT_DIR_ENV, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _parse_k(tokens, n: int):
    if not tokens:
        return None
    ks = []
    for token in tokens:
        text = str(token).strip().lower().replace(" ", "")
        try:
            if text.startswith("n/"):
                ks.append(n // int(text[2:]))
            else:
                ks.append(int(text))
        except (ValueError, ZeroDivisionError):
            raise ParameterError(
                f"cannot parse neighborhood size {token!r}; use an integer or n/4") from None
    clipped = sorted({min(max(1, k), n - 2) for k in ks})
    return clipped


def cmd_fit(args, config) -> int:
    dataset = _load_dataset(args, config)
    n = dataset.X.shape[0]
    _check_threads(_resolve(args, config, "threads", None))
    out = _out_dir(args, config)
    repeat = int(_resolve(args, config, "repeat", 1))
    if repeat < 1:
        raise ParameterError("repeat must be at least 1")
    base_seed = int(_resolve(args, config, "seed", 0))
    dim = int(_resolve(args, config, "dim", 2))
    opt = OptimizerConfig(
        iterations=int(_resolve(args, config, "iterations", 1000)),
        learning_rate=float(_resolve(args, config, "learning_rate", 200.0)),
        early_exaggeration=_resolve(args, config, "exaggeration", None),
    )
    ks = _parse_k(args.k, n)
    collected = {}
    for index in range(repeat):
        spec = RunSpec(
            method=_resolve(args, config, "method", "tsne"),
            init=_resolve(args, config, "init", "pca"),
            q=dim,
            perplexity=float(_resolve(args, config, "perplexity", 30.0)),
            latent_kernel=_resolve(args, config, "latent_kernel", None),
            classic_scale=bool(_resolve(args, config, "classic_scale", False)),
            ccpca_samples=int(_resolve(args, config, "samples", 100)),
            ccpca_prior=_resolve(args, config, "prior", "D"),
            seed=base_seed + index,
            optimizer=opt,
            eval_ks=tuple(ks) if ks else None,
        )
        result = run(dataset.X, spec)
        suffix = "" if repeat == 1 else f"-{index:02d}"
        emb_name = f"embedding{suffix}.csv"
        man_name = f"manifest{suffix}.yaml"
        save_embedding(os.path.join(out, emb_name), result.Z,
                       dataset.labels, dataset.label_names)
        artifacts = {"embedding": emb_name, "manifest": man_name}
        if dim == 2:
            fig_name = f"embedding{suffix}.svg"
            render_svg_scatter(os.path.join(out, fig_name), result.Z,
                               dataset.labels, dataset.label_names)
            artifacts["figure"] = fig_name
        result.manifest["input"]["path"] = str(args.input)
        result.manifest["input"]["sha256"] = _sha256(args.input)
        result.manifest["artifacts"] = artifacts
        with open(os.path.join(out, man_name), "w", encoding="utf-8") as handle:
            yaml.safe_dump(result.manifest, handle, sort_keys=True)
        summary = "  ".join(f"r@{s.k}={s.r:.4f}" for s in result.scores)
        print(f"run seed={spec.seed}: loss={result.manifest['results']['final_loss']:.6g}  {summary}")
        for score in result.scores:
            collected.setdefault(score.k, []).append(score.r)
    if repeat > 1:
        for k in sorted(collected):
            values = np.asarray(collected[k])
            print(f"r@{k}: mean={values.mean():.4f} std={values.std(ddof=1):.4f} "
                  f"over {repeat} seeds")
    return 0


def cmd_init(args, config) -> int:
    dataset = _load_dataset(args, config)
    X = dataset.X
    _check_threads(_resolve(args, config, "threads", None))
    out = _out_dir(args, config)
    dim = int(_resolve(args, config, "dim", 2))
    method = _resolve(args, config, "method", "pca")
    if method not in ("pca", "le", "ccpca"):
        raise ParameterError(f"unknown init method {method!r}; use pca, le or ccpca")
    spec = RunSpec(init=method, q=dim,
                   perplexity=float(_resolve(args, config, "perplexity", 30.0)),
                   ccpca_samples=int(_resolve(args, config, "samples", 100)),
                   ccpca_prior=_resolve(args, config, "prior", "D"),
                   seed=int(_resolve(args, config, "seed", 0))).validate()
    # PCA needs no affinity; the others use the one fit would build.
    affinity, kernel = ((None, None) if method == "pca"
                        else prepare_input(X, spec.method, spec.perplexity))
    Z, degenerate = initial_embedding(X, spec, affinity, kernel)
    if degenerate:
        print("warning: affinity graph has several connected components; "
              "between-component layout is arbitrary", file=sys.stderr)
    emb_path = os.path.join(out, "init.csv")
    save_embedding(emb_path, Z, dataset.labels, dataset.label_names)
    if dim == 2:
        render_svg_scatter(os.path.join(out, "init.svg"), Z,
                           dataset.labels, dataset.label_names)
    print(f"wrote {emb_path}")
    return 0


def cmd_eval(args, config) -> int:
    dataset = _load_dataset(args, config)
    embedded = load_embedding(args.embedding)
    n = dataset.X.shape[0]
    if embedded.X.shape[0] != n:
        raise DataError(
            f"embedding has {embedded.X.shape[0]} rows but the dataset has {n}")
    ks = _parse_k(args.k, n) or list(default_eval_ks(n))
    print("k,q,r")
    for score in evaluate_embedding(dataset.X, embedded.X, ks):
        print(f"{score.k},{score.q:.6f},{score.r:.6f}")
    return 0


def cmd_plot(args, config) -> int:
    embedded = load_embedding(args.embedding)
    out_path = args.out
    if out_path is None:
        root, _ = os.path.splitext(str(args.embedding))
        out_path = root + ".svg"
    render_svg_scatter(out_path, embedded.X, embedded.labels, embedded.label_names)
    print(f"wrote {out_path}")
    return 0


def cmd_diagnose(args, config) -> int:
    seed = int(_resolve(args, config, "seed", 0))
    samples = args.samples if args.samples is not None else 20000
    results = run_diagnostics(seed=seed, samples=int(samples))
    failed = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        failed += 0 if check.passed else 1
        print(f"{status} {check.name}: {check.detail}")
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return 4
    return 0


def _add_data_options(parser, with_label=True):
    parser.add_argument("--input", required=True, help="delimited data file")
    parser.add_argument("--delimiter", help="field delimiter (default ',')")
    parser.add_argument("--no-header", action="store_true", default=None,
                        help="treat the first line as data, not column names")
    if with_label:
        parser.add_argument("--label", help="label column name or index")


def _add_common_options(parser):
    parser.add_argument("--config", help="flat key = value options file")
    parser.add_argument("--out-dir",
                        help=f"output directory (or ${OUT_DIR_ENV}, default '.')")
    parser.add_argument("--seed", type=int, help="master random seed (default 0)")
    parser.add_argument("--threads", type=int,
                        help="cap on worker threads; never changes results")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcoupling",
        description="Probabilistic graph-coupling embeddings: fit, "
                    "initialize, evaluate, plot, self-check.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="embed a dataset end to end")
    _add_data_options(fit)
    _add_common_options(fit)
    fit.add_argument("--method", choices=("sne", "tsne", "largevis", "umap"),
                     help="coupling method (default tsne)")
    fit.add_argument("--init", choices=("random", "pca", "le", "ccpca"),
                     help="initialization (default pca)")
    fit.add_argument("--dim", type=int, help="embedding dimension (default 2)")
    fit.add_argument("--perplexity", type=float,
                     help="bandwidth calibration target (default 30)")
    fit.add_argument("--latent-kernel", choices=("gaussian", "student"),
                     help="latent kernel (default per method)")
    fit.add_argument("--classic-scale", action="store_true", default=None,
                     help="divide the symmetrized affinity by 2n")
    fit.add_argument("--iterations", type=int, help="descent iterations (default 1000)")
    fit.add_argument("--learning-rate", type=float, help="step size (default 200)")
    exag = fit.add_mutually_exclusive_group()
    exag.add_argument("--exaggeration", dest="exaggeration", action="store_true",
                      default=None, help="force early exaggeration on")
    exag.add_argument("--no-exaggeration", dest="exaggeration", action="store_false",
                      default=None, help="force early exaggeration off")
    fit.add_argument("--samples", type=int,
                     help="posterior samples for ccpca init (default 100)")
    fit.add_argument("--prior", choices=("B", "D", "E"),
                     help="prior for ccpca init (default D)")
    fit.add_argument("--repeat", type=int,
                     help="repeat with consecutive seeds and report spread")
    fit.add_argument("--k", action="append",
                     help="neighborhood size for scoring; integer or n/4 style; repeatable")
    fit.set_defaults(func=cmd_fit)

    init = sub.add_parser("init", help="write a spectral initialization only")
    _add_data_options(init)
    _add_common_options(init)
    init.add_argument("--method", choices=("pca", "le", "ccpca"),
                      help="initialization method (default pca)")
    init.add_argument("--dim", type=int, help="embedding dimension (default 2)")
    init.add_argument("--perplexity", type=float,
                      help="bandwidth calibration target (default 30)")
    init.add_argument("--samples", type=int, help="posterior samples (default 100)")
    init.add_argument("--prior", choices=("B", "D", "E"), help="ccpca prior (default D)")
    init.set_defaults(func=cmd_init)

    ev = sub.add_parser("eval", help="score an embedding against its dataset")
    _add_data_options(ev)
    _add_common_options(ev)
    ev.add_argument("--embedding", required=True, help="embedding file from fit or init")
    ev.add_argument("--k", action="append",
                    help="neighborhood size; integer or n/4 style; repeatable")
    ev.set_defaults(func=cmd_eval)

    plot = sub.add_parser("plot", help="render an embedding file as SVG")
    plot.add_argument("--embedding", required=True, help="embedding file")
    plot.add_argument("--out", help="output SVG path (default alongside input)")
    plot.add_argument("--config", help="flat key = value options file")
    plot.set_defaults(func=cmd_plot)

    diag = sub.add_parser("diagnose", help="run internal consistency checks")
    diag.add_argument("--seed", type=int, help="random seed (default 0)")
    diag.add_argument("--samples", type=int,
                      help="posterior sampling draws (default 20000)")
    diag.add_argument("--config", help="flat key = value options file")
    diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(getattr(args, "config", None))
        return args.func(args, config)
    except GraphCouplingError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
