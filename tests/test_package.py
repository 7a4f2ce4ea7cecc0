import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import graphcoupling
from graphcoupling import cli, coupling
from graphcoupling.coupling import METHOD_KINDS, CouplingProblem
from graphcoupling.dataio import save_embedding
from graphcoupling.pipeline import INIT_KINDS, SPECTRAL_INIT_KINDS
from graphcoupling.posterior import PosteriorSampler

#: Dense oracles and single-case wrappers that no fit, init, score, plot
#: or diagnose calls, by the module that defined them.  tests/oracles.py
#: keeps those the tests compare against.
NOT_IN_THE_LIBRARY = [
    ("ccpca", "averaged_projector"),
    ("ccpca", "CcpcaConfig"),
    ("graph", "cc_projector"),
    ("evaluation", "neighbor_indices"),
    ("evaluation", "kary_agreement"),
    ("posterior", "sample_posterior_graph"),
    ("posterior", "symmetrize_row_affinity"),
    ("posterior", "umap_threshold_prob"),
    ("linalg", "block_sq_dists"),
    ("linalg", "sym_eig"),
    ("linalg", "sym_eig_lowest"),
    ("linalg", "SymEigResult"),
    ("spectral", "PrecisionCouplingProblem"),
    ("spectral", "precision_coupling_closed_form"),
    ("graph", "split_mean_centered"),
    ("kernels", "kernel_matrix"),
    ("posterior", "posterior_expectation"),
    ("graph", "connected_components"),
]


def test_star_import_binds_every_exported_name():
    # A stale entry in __all__ makes the star import itself raise.
    namespace = {}
    exec("from graphcoupling import *", namespace)
    assert [name for name in graphcoupling.__all__ if name not in namespace] == []
    assert len(set(graphcoupling.__all__)) == len(graphcoupling.__all__)


@pytest.mark.parametrize("module, name", NOT_IN_THE_LIBRARY,
                         ids=[f"{module}.{name}" for module, name in NOT_IN_THE_LIBRARY])
def test_test_oracles_are_not_library_names(module, name):
    assert name not in graphcoupling.__all__
    assert not hasattr(graphcoupling, name)
    assert not hasattr(importlib.import_module(f"graphcoupling.{module}"), name)


def test_coupling_has_no_expected_graph():
    # tests/oracles.py keeps expected_graph(problem) = P times the edge scale.
    assert not hasattr(CouplingProblem, "expected_graph")


#: Exported functions, methods and properties that no command enters, each
#: with why it stays in the library.
NOT_ENTERED_BY_A_COMMAND = {
    "CouplingProblem.loss": "the benchmark's tracer wraps it to count and time the losses",
    "CouplingProblem.grad": "the benchmark's tracer wraps it to count and time the gradients",
}


def exported_code():
    """{name: code object} of every function in ``__all__`` and of every public
    method and property that the package defines on an exported class."""
    code = {}
    for name in graphcoupling.__all__:
        value = getattr(graphcoupling, name)
        if inspect.isfunction(value):
            code[name] = value.__code__
        elif inspect.isclass(value) and value.__module__.startswith("graphcoupling."):
            for attr, member in vars(value).items():
                member = getattr(member, "fget", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    code[f"{name}.{attr}"] = member.__code__
    return code


def command_runs(tmp_path):
    """The argument lists of a fit of every method from every init, with the
    classic scale and a gaussian latent kernel, an init of every spectral
    method, and eval, plot and diagnose, on 60 rows in 3 clusters."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4)) + np.repeat(4.0 * np.eye(3, 4), 20, axis=0)
    data = tmp_path / "data.csv"
    save_embedding(data, X, labels=np.repeat([0, 1, 2], 20), label_names=["a", "b", "c"])
    common = ["--input", str(data), "--label", "label", "--out-dir", str(tmp_path / "out")]
    fit = ["fit", "--iterations", "3", "--samples", "3"] + common
    runs = [fit + ["--method", method, "--init", init]
            for method in METHOD_KINDS for init in INIT_KINDS]
    runs += [fit + ["--method", "tsne", "--classic-scale"],
             fit + ["--method", "umap", "--latent-kernel", "gaussian"]]
    runs += [["init", "--method", method, "--samples", "3"] + common
             for method in SPECTRAL_INIT_KINDS]
    embedding = str(tmp_path / "out" / "embedding.csv")
    runs += [["eval", "--input", str(data), "--label", "label", "--embedding", embedding],
             ["plot", "--embedding", embedding, "--out", str(tmp_path / "plot.svg")],
             ["diagnose", "--samples", "200"]]
    return runs


def test_every_exported_function_runs_in_a_command(tmp_path, capsys):
    # Library code that only the tests call belongs in tests/oracles.py.
    # sys.setprofile sees the calling thread only; each block walk runs its
    # first block there.
    runs = command_runs(tmp_path)
    entered = set()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs), capsys.readouterr().err
    unentered = {name for name, code in exported_code().items() if code not in entered}
    assert unentered == set(NOT_ENTERED_BY_A_COMMAND)


def test_sampler_draws_only_in_batches():
    # draws([rng])[0] is the one-generator draw.
    assert not hasattr(PosteriorSampler, "draw")


#: The np.exp calls that take no EXP_FLOOR, by (module, enclosing
#: function, argument), each with why its values must stay exact.
EXACT_EXP_CALLS = {
    ("kernels", "solve", "_log_kernel(D, GAUSSIAN, t, out=D)"):
        "stores the calibrated kernel's values",
    ("kernels", "_calibrate_rows", "(target - h) * ln2 / (2.0 * var)"):
        "one Newton factor per row, clipped after; its overflow to inf is meant",
    ("coupling", "_tile", "logK"):
        "the edgewise K of largevis and umap, read cell by cell",
    ("diagnostics", "binomial_tail",
     "log_fact[trials] - log_fact - log_fact[::-1] "
     "+ k * math.log(q) + (trials - k) * math.log1p(-q)"):
        "binomial masses summed into tails that hold no 1 and are compared with ~3e-7",
}


def exp_calls(node, module, function=None):
    """(module, enclosing function, argument source, floored) of every
    np.exp call under ``node``."""
    calls = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            calls += exp_calls(child, module, child.name)
            continue
        if isinstance(child, ast.Call) and ast.unparse(child.func) == "np.exp":
            arg = child.args[0]
            floored = (isinstance(arg, ast.Call) and ast.unparse(arg.func) == "np.maximum"
                       and ast.unparse(arg.args[1]) == "EXP_FLOOR")
            calls.append((module, function, ast.unparse(arg), floored))
        calls += exp_calls(child, module, function)
    return calls


def test_every_exp_is_floored_or_stores_exact_values():
    calls = []
    for path in sorted(Path(graphcoupling.__file__).parent.glob("*.py")):
        calls += exp_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    exact = {(module, function, arg) for module, function, arg, floored in calls if not floored}
    assert exact == set(EXACT_EXP_CALLS)
    floored = sorted((module, function) for module, function, _, floored in calls if floored)
    assert floored == [("coupling", "_normalizer_terms"), ("kernels", "_calibrate_rows")]


#: The np.linalg calls and the calls of foreign functions that run outside
#: single_blas_thread, by (module, enclosing function, called function),
#: each with why its bits need no hold.
UNHELD_BLAS_CALLS = {
    ("linalg", "single_blas_thread", "get"): "the hold itself reads the thread count",
    ("linalg", "single_blas_thread", "set_"): "the hold itself sets the thread count",
}

#: The functions whose results are foreign functions.
BLAS_LOOKUPS = {"_blas_function", "_blas_functions"}


def foreign_names(function):
    """The names ``function`` binds to what :data:`BLAS_LOOKUPS` found, or to values made from it."""
    names, grown = set(), True
    while grown:
        grown = False
        for node in ast.walk(function):
            if not isinstance(node, ast.Assign):
                continue
            read = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
            if read & (BLAS_LOOKUPS | names):
                bound = {n.id for t in node.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)}
                grown = grown or not bound <= names
                names |= bound
    return names


def blas_calls(node, module, function=None, foreign=frozenset(), held=False):
    """(module, enclosing function, called function, held) of every np.linalg
    call and every call of a foreign function under ``node``; ``held`` if it
    sits in a ``with single_blas_thread()`` block or a function decorated with it."""
    calls = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            decorated = "single_blas_thread()" in map(ast.unparse, child.decorator_list)
            calls += blas_calls(child, module, child.name, foreign | foreign_names(child),
                                decorated)
            continue
        holds = isinstance(child, ast.With) and "single_blas_thread()" in (
            ast.unparse(item.context_expr) for item in child.items)
        if isinstance(child, ast.Call):
            callee = ast.unparse(child.func)
            if callee.startswith("np.linalg.") or callee in foreign:
                calls.append((module, function, callee, held))
        calls += blas_calls(child, module, function, foreign, held or holds)
    return calls


def test_every_lapack_call_holds_one_blas_thread():
    # LAPACK's SVD and eigensolvers give other bits on two OpenBLAS threads
    # than on one, so each call holds one thread or is named above.
    calls = []
    for path in sorted(Path(graphcoupling.__file__).parent.glob("*.py")):
        calls += blas_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    unheld = {(module, function, callee) for module, function, callee, held in calls if not held}
    assert unheld == set(UNHELD_BLAS_CALLS)
    held = sorted({(module, function) for module, function, _, held in calls if held})
    assert held == [("linalg", "_cholesky_in_place"), ("linalg", "_cholesky_solve"),
                    ("linalg", "_lowest_pairs"), ("spectral", "_left_singular"),
                    ("spectral", "_shift_invert_pairs")]


def setbufsize_calls(node, module, function=None):
    """(module, enclosing function) of every ``setbufsize`` call under ``node``."""
    calls = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            calls += setbufsize_calls(child, module, child.name)
            continue
        if isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] == "setbufsize":
            calls.append((module, function))
        calls += setbufsize_calls(child, module, function)
    return calls


def test_only_the_block_buffer_hold_sets_numpys_buffer():
    # map_blocks runs its blocks under linalg._short_buffer, which puts the
    # thread's size back; a setbufsize anywhere else would leak into the caller.
    calls = []
    for path in sorted(Path(graphcoupling.__file__).parent.glob("*.py")):
        calls += setbufsize_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert calls == [("linalg", "_short_buffer")] * 2


#: Calls that allocate an array, which a tile takes from its thread's
#: ``_Scratch`` buffers instead.
ALLOCATIONS = {"np.empty", "np.empty_like", "np.zeros", "np.zeros_like"}


def test_tiles_take_no_scale_and_allocate_no_buffer():
    # CouplingProblem._pass applies every scale of the objective once, to
    # the summed terms, so a tile weighs its pairs in P's own units.
    tree = ast.parse(Path(coupling.__file__).read_text(encoding="utf-8"))
    tile = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_tile")
    names = {node.id for node in ast.walk(tile) if isinstance(node, ast.Name)}
    names |= {arg.arg for arg in tile.args.args}
    assert "exaggeration" not in names
    attributes = {ast.unparse(node) for node in ast.walk(tile) if isinstance(node, ast.Attribute)}
    assert "self._edge_scale" not in attributes
    calls = {ast.unparse(node.func) for node in ast.walk(tile) if isinstance(node, ast.Call)}
    assert not calls & ALLOCATIONS
