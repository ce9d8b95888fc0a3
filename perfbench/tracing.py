"""In-memory span tracing around the public functions of each kfrechet layer.

A layer is one module of the package. :class:`Patch` replaces every
public function of the layer modules with a wrapper that records a span
(name, start, end, parent span, query id, info) while the tracer is on,
and rebinds every module-level alias of that function too: modules such
as ``kfrechet.optimize`` import ``build_diagram`` by name, and without
rebinding the alias its time would be charged to ``optimize``.

Spans stay in a list until :meth:`Tracer.dump` writes them out. Times are
``time.perf_counter`` readings, which on Linux share one monotonic clock
across processes, so spans recorded in a child process nest under the
parent's spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("curves", "freespace", "decide", "approx", "optimize", "boxes", "svg", "cli")
ROOT_LAYER = "bench"  # the harness's own query span and whatever it covers directly

# Per-function summaries of a result, kept in the span instead of the result itself.
INFO = {
    "freespace.build_diagram": lambda d: (d.n * d.m, len(d.components)),
    "decide.decide_fpt": lambda sel: sel is not None,
    "boxes.build_box_instance": lambda inst: int(inst.y_max) - 1,
    "boxes.solve_box_bruteforce": lambda sel: sel is None,
}

NAME, START, END, PARENT, QUERY, SPAN_INFO = range(6)


class Tracer:
    """Records nested spans of one thread; ``on`` switches recording."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.on = False

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.query, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, info=None) -> None:
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[SPAN_INFO] = info
        self.stack.pop()

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded elsewhere, hanging their roots under ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _query, info in spans:
            self.spans.append([name, start, end, parent if par is None else par + base,
                               self.query, info])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _wrap(fn, name: str, tracer: Tracer):
    summarize = INFO.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid)
            raise
        tracer.close(sid, summarize(result) if summarize else None)
        return result

    return traced


class Patch:
    """Wrappers for every layer's public functions and all their aliases.

    :meth:`apply` binds the wrappers, :meth:`undo` the original functions;
    both are cheap enough to call around every single query.
    """

    def __init__(self, tracer: Tracer) -> None:
        modules = {layer: importlib.import_module(f"kfrechet.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, _wrap(obj, f"{layer}.{attr}", tracer))
        self.bindings = []  # (module, attribute, original, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kfrechet" or mod_name.startswith("kfrechet.")):
                continue
            for attr, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.bindings.append((mod, attr, obj, hit[1]))

    def apply(self) -> None:
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)

    def undo(self) -> None:
        for mod, attr, original, _ in self.bindings:
            setattr(mod, attr, original)


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else ROOT_LAYER


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(sid)
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out
