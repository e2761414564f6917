"""Span tracer that times the package's public functions from outside.

Every public module-level function of every loaded ``szegojost`` module is
wrapped, and the wrapper is bound in *every* module namespace that holds
the function, so calls through re-imports (``analysis.u_from_dinv``,
``jost.dinv_from_alphas``, ``szego.taylor_exp``) are traced too.  Methods
and private helpers are not wrapped; their cost stays in the self time of
the public function that called them.  Nothing under ``src/`` is edited:
``uninstall`` restores the original bindings.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    """One call of a wrapped function."""

    name: str
    start: float
    end: float
    parent: int
    op: int
    error: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``op`` tags every span with the current op id."""

    def __init__(self, package: str = "szegojost"):
        self.package = package
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._restore: list = []

    def _modules(self):
        prefix = self.package + "."
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == self.package or name.startswith(prefix))]

    def install(self) -> None:
        modules = self._modules()
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    short = mod.__name__[len(self.package) + 1:]
                    wrappers[obj] = self._wrap(obj, f"{short}.{obj.__name__}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op, error)

        return traced

    def self_times(self) -> list:
        """Self time of each span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Per-function and per-module totals: self_s, calls, errors."""
        totals = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "errors": 0})
        for span, self_s in zip(self.spans, self.self_times()):
            module = span.name.split(".")[0]
            for key in (span.name, module):
                totals[key]["self_s"] += self_s
                totals[key]["calls"] += 1
                totals[key]["errors"] += int(span.error)
        return dict(totals)

    def top_level_seconds(self) -> float:
        return sum(span.duration for span in self.spans if span.parent < 0)

    def records(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "error": s.error} for s in self.spans]
