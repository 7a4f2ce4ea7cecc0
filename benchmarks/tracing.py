"""Per-layer spans recorded from outside the program.

While a :class:`Tracer` is installed, every public function of every
loaded ``graphcoupling`` module, and ``CouplingProblem.loss``/``grad``,
is replaced by a wrapper that records a span.  A function is replaced in
every module namespace that holds it, because modules import each other's
functions by name (``from .linalg import pairwise_sq_dists``).  Private
helpers are left alone: some run tens of thousands of times per fit.
Uninstalling puts every original back.
"""

import contextlib
import functools
import resource
import sys
import time
import types

PACKAGE = "graphcoupling"
#: Methods wrapped on their class, so copies made by the program share them.
METHODS = {"coupling": {"CouplingProblem": ("loss", "grad")}}


def package_modules():
    # Through sys.modules: the package attribute ``ccpca`` is the function.
    return {name: module for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans ``(name, start, end, parent, run, rss_mb)`` in memory.

    ``parent`` is the index of the enclosing span or -1; ``rss_mb`` is
    the process's peak RSS when the span ended.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []      # (owner, attribute, original)
        self.run = None

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[5] = max_rss_mb()
                stack.pop()
        return traced

    def install(self, run) -> None:
        """Start recording spans under run id ``run``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.run = run
        modules = package_modules()
        wrappers = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith(PACKAGE)):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(
                        value, f"{_short(value.__module__)}.{value.__name__}")
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        for short, classes in METHODS.items():
            module = modules[f"{PACKAGE}.{short}"]
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(original, f"{short}.{method}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.clear()

    @contextlib.contextmanager
    def installed(self, run):
        """Record spans under run id ``run`` for the duration of a block."""
        self.install(run)
        try:
            yield self
        finally:
            self.uninstall()


def summarize(spans, run) -> dict:
    """Per-name ``calls``, summed span time ``s`` and ``self_s`` for one run.

    Self time is a span's duration minus that of its direct children;
    the program is single-threaded, so children never overlap.
    """
    child_time = {}
    for span in spans:
        if span[4] == run and span[3] >= 0:
            child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
    totals = {}
    for index, span in enumerate(spans):
        if span[4] != run:
            continue
        entry = totals.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span[2] - span[1]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time.get(index, 0.0)
    return totals


def rss_after(spans, run, name: str):
    """Peak RSS (MB) when the last span called ``name`` of a run ended."""
    values = [span[5] for span in spans if span[4] == run and span[0] == name]
    return values[-1] if values else None
