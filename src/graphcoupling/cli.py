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
import inspect
import os
import sys
from dataclasses import replace

import numpy as np
import yaml

from .dataio import load_csv, load_embedding, save_embedding
from .coupling import METHOD_KINDS
from .diagnostics import run_diagnostics
from .errors import DataError, GraphCouplingError, ParameterError
from .evaluation import check_ks, evaluate_embedding
from .kernels import KERNEL_KINDS
from .optim import OptimizerConfig
from .pipeline import (INIT_KINDS, SPECTRAL_INIT_KINDS, RunSpec, default_eval_ks,
                       initial_embedding, prepare_input, run)
from .posterior import PRIOR_KINDS
from .svgplot import render_svg_scatter

OUT_DIR_ENV = "GRAPHCOUPLING_OUT_DIR"

#: The :class:`RunSpec` field each option of ``fit`` and ``init`` sets;
#: ``init`` reads its ``method`` as the initialization, and has no
#: ``--init``, ``--latent-kernel`` or ``--classic-scale``, so those stay unset.
FIT_FIELDS = {"method": "method", "init": "init", "dim": "q", "perplexity": "perplexity",
              "latent_kernel": "latent_kernel", "classic_scale": "classic_scale",
              "samples": "ccpca_samples", "prior": "ccpca_prior", "seed": "seed"}
INIT_FIELDS = {**FIT_FIELDS, "method": "init"}
#: The :class:`OptimizerConfig` field each option of ``fit`` sets.
OPTIMIZER_FIELDS = {"iterations": "iterations", "learning_rate": "learning_rate",
                    "exaggeration": "early_exaggeration"}

#: Defaults quoted in the help text, read from their owners.
_SPEC = RunSpec()
_DIAGNOSE = inspect.signature(run_diagnostics).parameters

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


def load_config(path, args=None) -> dict:
    """Read a flat key = value file; '#' starts a comment.

    Given a command's parsed ``args``, each key must name one of its options.
    """
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
        if key not in CONFIG_CASTS or not (args is None or hasattr(args, key)):
            where = "" if args is None else f" for {args.command}"
            raise ParameterError(f"{path} line {lineno}: unknown option {key!r}{where}")
        try:
            config[key] = CONFIG_CASTS[key](value)
        except (ValueError, ParameterError) as exc:
            raise ParameterError(
                f"{path} line {lineno}: bad value for {key!r}: {exc}") from None
    return config


def _resolve(args, config, name, default=None):
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name)
    return default if value is None else value


def _chosen(args, config, fields) -> dict:
    """{field: value} of the options in ``fields`` set by flag or config.

    An unset option never clears a field that another option, such as
    ``init``'s ``method``, has set.
    """
    values = ((name, _resolve(args, config, option)) for option, name in fields.items())
    return {name: value for name, value in values if value is not None}


def _run_spec(args, config, fields, optimizer_fields=None) -> RunSpec:
    """The run the user asked for; every option left unset keeps its default."""
    optimizer = OptimizerConfig(**_chosen(args, config, optimizer_fields or {}))
    return RunSpec(**_chosen(args, config, fields), optimizer=optimizer)


def _check_threads(threads) -> None:
    # Validated only: nothing reads it, so it can never change results.
    if threads is not None and threads < 1:
        raise ParameterError(f"threads must be at least 1, got {threads}")


def _load_dataset(args, config):
    delimiter = _resolve(args, config, "delimiter", ",")
    header = not _resolve(args, config, "no_header", False)
    label = _resolve(args, config, "label", None)
    if label is not None and not header:
        try:
            label = int(label)
        except ValueError:
            raise ParameterError(
                "label must be a column index when the file has no header") from None
    return load_csv(args.input, delimiter=delimiter, header=header, label=label)


def _out_dir(args, config) -> str:
    """The output directory, checked but not made, so a run that fails leaves none.

    Its nearest existing ancestor, itself if it exists, must be a writable
    directory; :func:`_save` makes the missing part before the first write.
    """
    out = _resolve(args, config, "out_dir", os.environ.get(OUT_DIR_ENV, "."))
    ancestor = os.path.abspath(out)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ParameterError(f"cannot write {out}: {ancestor} is not a directory")
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise ParameterError(f"cannot write {out}: {ancestor} is not writable")
    return out


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _parse_k(tokens, n: int):
    """The distinct sizes ``--k`` names, ascending and checked; None without ``--k``."""
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
    return check_ks(ks, n)


def _save(out, stem, Z, dataset) -> dict:
    """Write ``stem``.csv, and ``stem``.svg for a 2-D Z; returns the file names.

    ``out`` and its missing parents are made here, when there is a result to write.
    """
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot write {out}: {exc}") from None
    names = {"embedding": f"{stem}.csv"}
    save_embedding(os.path.join(out, names["embedding"]), Z,
                   dataset.labels, dataset.label_names)
    if Z.shape[1] == 2:
        names["figure"] = f"{stem}.svg"
        render_svg_scatter(os.path.join(out, names["figure"]), Z,
                           dataset.labels, dataset.label_names)
    return names


def cmd_fit(args, config) -> int:
    dataset = _load_dataset(args, config)
    n = dataset.X.shape[0]
    _check_threads(_resolve(args, config, "threads"))
    ks = _parse_k(args.k, n)
    repeat = int(_resolve(args, config, "repeat", 1))
    if repeat < 1:
        raise ParameterError("repeat must be at least 1")
    base = _run_spec(args, config, FIT_FIELDS, OPTIMIZER_FIELDS).validate()
    if ks:
        base = replace(base, eval_ks=tuple(ks))
    base.check_data(*dataset.X.shape)
    out = _out_dir(args, config)
    collected = {}
    for index in range(repeat):
        spec = replace(base, seed=base.seed + index)
        result = run(dataset.X, spec)
        suffix = "" if repeat == 1 else f"-{index:02d}"
        man_name = f"manifest{suffix}.yaml"
        artifacts = _save(out, f"embedding{suffix}", result.Z, dataset)
        result.manifest["input"]["path"] = str(args.input)
        result.manifest["input"]["sha256"] = _sha256(args.input)
        result.manifest["artifacts"] = {**artifacts, "manifest": man_name}
        man_path = os.path.join(out, man_name)
        try:
            with open(man_path, "w", encoding="utf-8") as handle:
                yaml.safe_dump(result.manifest, handle, sort_keys=True)
        except OSError as exc:
            raise ParameterError(f"cannot write {man_path}: {exc}") from None
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
    _check_threads(_resolve(args, config, "threads"))
    spec = _run_spec(args, config, INIT_FIELDS)
    if spec.init not in SPECTRAL_INIT_KINDS:
        *others, last = SPECTRAL_INIT_KINDS
        raise ParameterError(f"unknown init method {spec.init!r}; "
                             f"use {', '.join(others)} or {last}")
    spec.validate().check_data(*X.shape, fitting=False)
    out = _out_dir(args, config)
    kernel = prepare_input(X, spec, fitting=False)
    Z, degenerate, _ = initial_embedding(X, spec, kernel, fitting=False)
    if degenerate:
        print("warning: affinity graph has several connected components, or parts "
              "joined only by roundoff-scale weights; between-component layout is "
              "arbitrary", file=sys.stderr)
    names = _save(out, "init", Z, dataset)
    print(f"wrote {os.path.join(out, names['embedding'])}")
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
    results = run_diagnostics(**_chosen(args, config, {"seed": "seed", "samples": "samples"}))
    failed = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        failed += 0 if check.passed else 1
        print(f"{status} {check.name}: {check.detail}")
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return 4
    return 0


def _add_data_options(parser):
    parser.add_argument("--config", help="flat key = value options file")
    parser.add_argument("--input", required=True, help="delimited data file")
    parser.add_argument("--delimiter", help="field delimiter (default ',')")
    parser.add_argument("--no-header", action="store_true", default=None,
                        help="treat the first line as data, not column names")
    parser.add_argument("--label", help="label column name or index")


def _add_run_options(parser, methods, method_help):
    """The options that ``fit`` and ``init`` share: output, threads, :class:`RunSpec`."""
    parser.add_argument("--out-dir",
                        help=f"output directory (or ${OUT_DIR_ENV}, default '.')")
    parser.add_argument("--threads", type=int,
                        help="accepted and checked to be at least 1; has no effect: "
                             "the fit runs on the usable cores, and no output "
                             "depends on their number")
    parser.add_argument("--seed", type=int, help=f"master random seed (default {_SPEC.seed})")
    parser.add_argument("--method", choices=methods, help=method_help)
    parser.add_argument("--dim", type=int, help=f"embedding dimension (default {_SPEC.q})")
    parser.add_argument("--perplexity", type=float,
                        help=f"bandwidth calibration target (default {_SPEC.perplexity:g})")
    parser.add_argument("--samples", type=int,
                        help=f"posterior samples for ccpca (default {_SPEC.ccpca_samples})")
    parser.add_argument("--prior", choices=PRIOR_KINDS,
                        help=f"prior for ccpca (default {_SPEC.ccpca_prior})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcoupling",
        description="Probabilistic graph-coupling embeddings: fit, "
                    "initialize, evaluate, plot, self-check.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="embed a dataset end to end")
    _add_data_options(fit)
    _add_run_options(fit, METHOD_KINDS, f"coupling method (default {_SPEC.method})")
    fit.add_argument("--init", choices=INIT_KINDS,
                     help=f"initialization (default {_SPEC.init})")
    fit.add_argument("--latent-kernel", choices=KERNEL_KINDS,
                     help="latent kernel (default per method)")
    fit.add_argument("--classic-scale", action="store_true", default=None,
                     help="divide the symmetrized affinity by 2n; this scales tsne's "
                          "loss and gradient by 1/(2n) and largevis's attraction only")
    fit.add_argument("--iterations", type=int,
                     help=f"descent iterations (default {_SPEC.optimizer.iterations})")
    fit.add_argument("--learning-rate", type=float,
                     help=f"step size (default {_SPEC.optimizer.learning_rate:g})")
    exag = fit.add_mutually_exclusive_group()
    exag.add_argument("--exaggeration", dest="exaggeration", action="store_true",
                      default=None, help="force early exaggeration on")
    exag.add_argument("--no-exaggeration", dest="exaggeration", action="store_false",
                      default=None, help="force early exaggeration off")
    fit.add_argument("--repeat", type=int,
                     help="repeat with consecutive seeds and report spread")
    fit.add_argument("--k", action="append",
                     help="neighborhood size for scoring; integer or n/4 style; repeatable")
    fit.set_defaults(func=cmd_fit)

    init = sub.add_parser("init", help="write a spectral initialization only")
    _add_data_options(init)
    _add_run_options(init, SPECTRAL_INIT_KINDS,
                     f"initialization method (default {_SPEC.init}); le reads "
                     "t-SNE's affinity, since init has no coupling method")
    init.set_defaults(func=cmd_init)

    ev = sub.add_parser("eval", help="score an embedding against its dataset")
    _add_data_options(ev)
    ev.add_argument("--embedding", required=True, help="embedding file from fit or init")
    ev.add_argument("--k", action="append",
                    help="neighborhood size; integer or n/4 style; repeatable")
    ev.set_defaults(func=cmd_eval)

    plot = sub.add_parser("plot", help="render an embedding file as SVG")
    plot.add_argument("--embedding", required=True, help="embedding file")
    plot.add_argument("--out", help="output SVG path (default alongside input)")
    plot.set_defaults(func=cmd_plot)

    diag = sub.add_parser("diagnose", help="run internal consistency checks")
    diag.add_argument("--seed", type=int,
                      help=f"random seed (default {_DIAGNOSE['seed'].default})")
    diag.add_argument("--samples", type=int, help="posterior sampling draws "
                      f"(default {_DIAGNOSE['samples'].default})")
    diag.add_argument("--config", help="flat key = value options file")
    diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(getattr(args, "config", None), args)
        return args.func(args, config)
    except GraphCouplingError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
