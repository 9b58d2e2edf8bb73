"""Span tracing from outside the program.

`Tracer` wraps every public function of the layer modules below,
except a few constant-time helpers (UNTRACED). A
function is found by object identity wherever any `normsurf` module
binds it (its own module, the package namespace, and every module that
imported it by name), so moving an import does not hide a call. The
wrappers record spans only inside `Tracer.run_op`, so answer checks
made between operations stay out of the trace. Leaving the `with`
block puts the original functions back.

A span is (function, layer, parent span, start, end) plus the work
counts read off the arguments or the result at that boundary. The spans
of one operation form one list, and parents index into it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

LAYERS = ("cli", "triangulation", "matching", "hilbert", "surface",
          "detect", "homology", "curves2d")

# Constant-time label arithmetic called tens of thousands of times per
# operation from inner loops: a span would cost more than the call and
# swamp the trace, so their time stays in the caller's self time.
UNTRACED = frozenset({"quad_offset", "quad_offsets_crossing",
                      "omitted_vertex", "face_omitting", "tet_block"})


@dataclass
class Span:
    layer: str
    func: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _counts(func: str, args, kwargs, result) -> dict:
    """Work counts observed at a layer boundary."""
    if func == "enumerate_fundamental":
        system = args[0] if args else kwargs["sys"]
        counts = {"candidates": result.candidates_examined,
                  "vectors": len(result.vectors)}
        if system.quad_triples:  # a 3D system, not a 2D curve system
            counts["size"] = (system.variable_count, len(system.equations),
                              len(system.forced_zeros))
        return counts
    if func == "split_link_check":
        return {"searched": result.searched_count,
                "witnesses": int(result.witness is not None)}
    return {}


class Tracer:
    def __init__(self):
        self.ops: list[list[Span]] = []
        self._spans: Optional[list[Span]] = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            span = Span(layer, name, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self._stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(name, args, kwargs, result)
            return result
        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"normsurf.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and name not in UNTRACED
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != "normsurf" and not modname.startswith("normsurf."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def run_op(self, fn, *args):
        """Call fn(*args) as one traced operation.

        Returns (result, seconds, spans of this operation)."""
        spans: list[Span] = []
        self._spans, self._stack = spans, []
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self._spans = None
        self.ops.append(spans)
        return result, elapsed, spans


def summarize(spans: list[Span]) -> dict:
    """Raw per-op figures from one operation's spans.

    Keys: `<layer>.self_s`, the layer's span time minus the time of its
    direct child spans; `<func>.s`, inclusive time of the outermost
    calls of a function (a recursive call is not counted twice);
    `<func>.calls`; `<func>.<count>` for each observed count; and
    `<func>.size`, the largest size tuple seen, compared
    lexicographically.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for k, s in enumerate(spans):
        duration = s.end - s.start
        add(f"{s.layer}.self_s", duration - child_time[k])
        add(f"{s.func}.calls", 1)
        parent = s.parent
        while parent is not None and spans[parent].func != s.func:
            parent = spans[parent].parent
        if parent is None:
            add(f"{s.func}.s", duration)
        for name, value in s.counts.items():
            key = f"{s.func}.{name}"
            if name == "size":
                out[key] = max(out.get(key, value), value)
            else:
                add(key, value)
    return out
