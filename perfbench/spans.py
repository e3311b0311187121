"""Span tracing at the package's module boundaries, installed from the
benchmark's own files.

Only cross-module bindings are wrapped: the names one module imports from
another (``reductions.represent``, ``restructure.fold``, ...), the pipeline
functions ``reductions`` calls through its own globals, and the calls the
benchmark itself makes into each layer.  A layer's recursion goes through
its own module globals and is never wrapped, so ``fold`` calling ``fold``
records nothing.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
import types

from postlattice import boolfun, clones, reductions, restructure

#: Walkers of ``formula`` bound into other modules; all count as
#: ``formula.walk``.
WALKERS = ("fold", "substitute", "instantiate", "leaf_count", "size", "depth",
           "vars_of", "props_in_order", "connectives_of")

#: Pipeline functions ``reductions`` reaches through its own globals.
PIPELINES = ("reduce_EVL", "reduce_S00", "reduce_S02", "reduce_S10",
             "reduce_S12", "reduce_D", "eliminate_constants")


RESTRUCTURE = {"restructure_monotone_g": "g", "restructure_monotone_h": "h",
               "restructure_full": "full"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "children_s")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op = parent, op
        self.children_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the time child spans cover.  Children of one
        span never overlap (one thread), so their durations add up."""
        return self.seconds - self.children_s


class Tracer:
    """Records spans; ``wrap`` returns a traced version of a callable."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        #: (span name, first argument, result) of observed calls, drained
        #: by the runner after each op, outside the op's timed region.
        self.observed: list[tuple] = []
        self._stack: list[Span] = []

    def wrap(self, name, fn, observe=False):
        spans, stack, observed = self.spans, self._stack, self.observed
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name(args, kwargs) if callable(name) else name, clock(),
                        stack[-1] if stack else None, self.op)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if observe:
                    observed.append((span.name, args[0], result))
                return result
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.children_s += span.end - span.start
                spans.append(span)

        traced.__wrapped__ = fn
        return traced


class _TracedModule(types.ModuleType):
    """Stand-in for a module bound by ``from . import boolfun``: every
    function read from it comes back wrapped."""

    def __init__(self, module, tracer, prefix):
        super().__init__(module.__name__)
        self._module, self._tracer, self._prefix = module, tracer, prefix

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if isinstance(value, types.FunctionType):
            return self._tracer.wrap(self._prefix, value)
        return value


def _closure_name(args, kwargs):
    witnesses = kwargs.get("witnesses", args[2] if len(args) > 2 else True)
    return "clones.closure.witness" if witnesses else "clones.closure.sets"


def _represent_name(args, kwargs):
    return "clones.represent.arity4" if args[0].arity == 4 else "clones.represent"


def install(tracer: Tracer, api: dict) -> list:
    """Wrap the module-boundary bindings in place and the benchmark's own
    entry points in ``api``.  Returns the patches, for ``uninstall``."""
    patches = []

    def patch(module, attr, name, observe=False):
        original = getattr(module, attr)
        patches.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, observe))

    for module in (reductions, restructure):
        for attr in WALKERS:
            if hasattr(module, attr):
                patch(module, attr, "formula.walk")
    patch(reductions, "equivalent", "formula.equivalent")
    patch(reductions, "_certificate", "reductions.certificate")
    for attr in PIPELINES:
        patch(reductions, attr, f"reductions.{attr}")
    for attr, mode in RESTRUCTURE.items():
        patch(reductions, attr, f"restructure.{mode}", observe=True)
    patch(reductions, "represent", _represent_name, observe=True)
    for attr in ("clone_of", "member", "includes"):
        patch(reductions, attr, f"clones.{attr}")
    for attr, value in list(vars(clones).items()):
        if isinstance(value, types.FunctionType) and value.__module__ == boolfun.__name__:
            patch(clones, attr, "boolfun")
    for module in (reductions, restructure):
        patches.append((module, "boolfun", module.boolfun))
        module.boolfun = _TracedModule(boolfun, tracer, "boolfun")

    names = {"parse": "formula.parse", "render": "formula.render",
             "equivalent": "formula.equivalent", "size": "formula.walk",
             "depth": "formula.walk", "leaf_count": "formula.walk",
             "theorem_reduce": "reductions.theorem_reduce",
             "clone_of": "clones.clone_of", "closure": _closure_name}
    for key, name in names.items():
        api[key] = tracer.wrap(name, api[key])
    for key, mode in RESTRUCTURE.items():
        api[key] = tracer.wrap(f"restructure.{mode}", api[key], observe=True)
    api["represent"] = tracer.wrap(_represent_name, api["represent"], observe=True)
    return patches


def uninstall(patches) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


def write(path, spans) -> None:
    """One JSON line per span: name, start and end (seconds on the
    run's clock), the index of the parent span's line (or null) and the
    op id.  Children close before their parents, so a parent's line
    comes after its children's."""
    index = {id(span): i for i, span in enumerate(spans)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for span in spans:
            parent = None if span.parent is None else index[id(span.parent)]
            out.write(json.dumps([span.name, span.start, span.end, parent, span.op]) + "\n")


def layer_totals(spans):
    """Per span name: (seconds, self seconds, calls)."""
    out: dict[str, list] = {}
    for span in spans:
        row = out.setdefault(span.name, [0.0, 0.0, 0])
        row[0] += span.seconds
        row[1] += span.self_seconds
        row[2] += 1
    return out
