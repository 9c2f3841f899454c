"""Outside-in tracing of the sfh modules.

``Tracer.install`` wraps every public function of the traced modules, plus
``Diagram.validate``, in a span recorder, and ``uninstall`` puts the
originals back.  Modules import each other's functions by name
(``from .domains import connecting_domain``), so a wrapper replaces the
function in every ``sfh`` module namespace that binds it, not only in the
module that defines it.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory until the run ends.  A span's self time is its duration minus
the time its child spans cover.  Some boundaries also record counts taken
from their arguments or results (domains enumerated, matrix cells, ...).
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "homology", "spinc", "domains", "intlinalg", "ratlp", "shd",
           "diagram")
ROOT = "operation"


def _popcount_rows(args, out):
    return {"nonzeros": sum(bin(row).count("1") for row in out)}


def _pcd(args, out):
    return {"domains": len(out), "hits": 1 if out else 0}


def _smith(args, out):
    a = args[0]
    return {"cells": len(a) * (len(a[0]) if a else 0)}


# name -> function(args, result) -> {count name: increment}
COUNTS = {
    "domains.positive_connecting_domains": _pcd,
    "intlinalg.smith_normal_form": _smith,
    "spinc.maslov_index": lambda args, out: {"index1": 1 if out == 1 else 0},
    "spinc.spinc_partition": lambda args, out: {"classes": len(out)},
    "homology.boundary_matrix": _popcount_rows,
    "diagram.enumerate_generators": lambda args, out: {"generators": len(out)},
}


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, op id, self seconds)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []     # [span index, child seconds]
        self._op = None
        self._t0 = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent[1] += end - start
                spans[frame[0]] = (name, start, end, parent[0], self._op,
                                   end - start - frame[1])
            if count is not None:
                for key, val in count(args, out).items():
                    counts[f"{name}.{key}"] += val
            return out

        return traced

    def install(self) -> None:
        assert not self._patched, "already installed"
        targets: dict[object, str] = {}
        for short in MODULES:
            mod = importlib.import_module(f"sfh.{short}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "sfh" and not modname.startswith("sfh."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        diagram_cls = importlib.import_module("sfh.diagram").Diagram
        validate = diagram_cls.__dict__["validate"]
        self._patched.append((diagram_cls, "validate", validate))
        diagram_cls.validate = self._wrap("diagram.Diagram.validate", validate)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- operations ----------------------------------------------------------

    def begin(self, op_id: str) -> None:
        self._op = op_id
        self._stack.append([len(self.spans), 0.0])
        self.spans.append(None)
        self._t0 = perf_counter()

    def end(self) -> float:
        end = perf_counter()
        index, child = self._stack.pop()
        self.spans[index] = (ROOT, self._t0, end, -1, self._op,
                             end - self._t0 - child)
        self._op = None
        return end - self._t0

    # -- results -------------------------------------------------------------

    def calls_per_op(self, name: str) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span[0] == name:
                out[span[4]] += 1
        return out

    def summary(self) -> dict[str, float]:
        """Per-name calls, self and inclusive seconds, per-module self seconds,
        and the recorded counts."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name}.wall_s"] += end - start
            if name != ROOT:
                out[f"{name.split('.')[0]}.self_s"] += self_s
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
