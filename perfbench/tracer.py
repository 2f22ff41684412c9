"""Span tracing of clusterprep's public functions, installed from outside.

``install()`` wraps every public function of the traced modules (the
names in each module's ``__all__`` that the module defines) plus
``DensityMatrix.from_matrix``.  A wrapped name is replaced in every
loaded ``clusterprep`` module that holds it, so calls through
``from .x import y`` bindings are recorded too, not only calls through
the defining module.  ``operator_matvec`` is timed through the closure
it returns: each application is a ``pauli.operator_matvec`` span and
building the closure is a ``pauli.operator_matvec.build`` span.

Spans stay in memory as ``[name, start, end, parent, tag]`` lists
(``parent`` is the index of the enclosing span or -1, ``tag`` the first
argument of ``chain_sector_gap`` and None elsewhere); the caller writes
them out when the run ends.  ``summarize`` turns them into per-name
call counts, inclusive time and self time (a span's duration minus the
time its direct child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("pauli", "models", "linalg", "thermal", "evolve", "analysis", "cli")
_TAGGED = {"analysis.chain_sector_gap"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tagged = name in _TAGGED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, args[0] if tagged and args else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper


def install() -> Tracer:
    """Wrap clusterprep's public functions; returns the recording tracer."""
    tracer = Tracer()
    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module(f"clusterprep.{short}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped[id(fn)] = (fn, _wrap_public(tracer, f"{short}.{attr}", fn))

    for name, mod in list(sys.modules.items()):
        if name != "clusterprep" and not name.startswith("clusterprep."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])

    density = importlib.import_module("clusterprep.thermal").DensityMatrix
    from_matrix = density.__dict__["from_matrix"].__func__
    density.from_matrix = classmethod(tracer.wrap("thermal.DensityMatrix.from_matrix", from_matrix))
    return tracer


def _wrap_public(tracer: Tracer, name: str, fn):
    if name != "pauli.operator_matvec":
        return tracer.wrap(name, fn)
    build = tracer.wrap(name + ".build", fn)

    @functools.wraps(fn)
    def operator_matvec(op):
        return tracer.wrap(name, build(op))

    return operator_matvec


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, max duration, tags."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, tag) in enumerate(spans):
        dur = end - start
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0, "by_tag": {}})
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += dur - child_time[i]
        rec["max_s"] = max(rec["max_s"], dur)
        if tag is not None:
            rec["by_tag"][str(tag)] = rec["by_tag"].get(str(tag), 0.0) + dur
    return out


def children_of(spans: list[list], parent_name: str, child_names: set[str]) -> int:
    """Number of spans named in child_names directly under a parent_name span."""
    return sum(
        1 for name, _, _, parent, _ in spans
        if name in child_names and parent >= 0 and spans[parent][0] == parent_name
    )
