"""Span tracing of soapfda's public functions, installed from outside.

``Tracer.install`` replaces every public function of the measured modules,
and every name under which another module imported it (such as
``cli.fit_soap`` or ``solver.eval_basis_matrix``), with a wrapper that
records a span: name, start, end, parent span and run id. Private helpers
are not wrapped; their time counts as self time of the public caller.
Spans stay in memory until the benchmark writes them out. ``uninstall``
puts the original objects back, so untraced rounds run the program as is.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

LAYERS = ("core", "basis", "solver", "selection", "predict", "oracle", "cli")
# public methods reached through model objects rather than module names
METHODS = (("core", "FecModel", "component_values"), ("core", "FecModel", "orthonormality_error"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.run = 0
        # per-span facts recorded from arguments and results, keyed by span index
        self.facts: dict[int, dict] = {}
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.run)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer._note(idx, name, args, kwargs, out)
            return out

        return traced

    def _note(self, idx, name, args, kwargs, out) -> None:
        if name == "solver.fit_soap":
            r = out.report
            self.facts[idx] = {
                "evals": len(r.loss_trace),
                "sweeps": r.n_sweeps,
                "fallbacks": r.n_fallbacks,
                "converged": r.converged,
            }
        elif name == "selection.loco_cv_gamma":
            bound = inspect.signature(self._originals[name]).bind(*args, **kwargs)
            data, cands = bound.arguments["dataset"], bound.arguments["candidates"]
            folds = bound.arguments.get("max_folds") or data.n_subjects
            self.facts[idx] = {"folds": min(folds, data.n_subjects) * len(cands)}

    def install(self) -> None:
        import importlib

        modules = {name: importlib.import_module(f"{self.package}.{name}") for name in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module(self.package)]
        # keyed by id: the originals stay referenced by self._originals
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = obj
                wrapped[id(obj)] = self._wrap(name, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            orig = vars(cls)[meth]
            self._originals[f"{layer}.{cls_name}.{meth}"] = orig
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def self_times(self, runs) -> dict[str, float]:
        """Seconds per layer spent in its own spans minus their child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            if s.run in runs:
                out[s.layer] += (s.end - s.start) - child[i]
        return out

    def select(self, runs, name: str):
        """Indices of the spans with this name in the given runs."""
        return [i for i, s in enumerate(self.spans) if s.run in runs and s.name == name]

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run}
            for s in self.spans
        ]
