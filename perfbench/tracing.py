"""In-memory span tracer patched onto detrec from outside the program.

``Tracer.install`` wraps every public function of the layer modules and the
arithmetic operators of ``MultiPoly`` and ``QuadExt``, then rebinds every
``from .x import y`` copy of a wrapped function in the detrec modules, so
calls between modules are traced as well.  Each call becomes a span
``(id, name, start, end, parent, op_id)``; spans stay in memory (up to a cap)
and are written out at the end, while the aggregates, per name and per
(op, name), cover every call.

A name's self time is its spans' durations minus the parts covered by
their child spans, so the self times of all names add up to the duration of
the outermost spans, never to more.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

from workloads import ENUMERATORS

LAYERS = ("poly", "detmat", "digraph", "symfunc", "combi", "recurrence",
          "identities", "cli")

# operator method -> traced name (aliases such as __radd__ share their name)
OPERATORS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__neg__": "neg", "__pow__": "pow",
    "__truediv__": "div", "__rtruediv__": "div",
}

#: (outer, inner): time of ``inner`` spans nested anywhere under ``outer``
NESTED = (("detmat.det_bareiss", "poly.exact_divide"),
          ("identities.verify_hom_det", "poly.exact_divide"))


def _count_terms(stat, result):
    # ``_terms`` itself: the public ``terms`` copies the dict
    terms = getattr(result, "_terms", None)
    if terms is not None:
        stat[3] += len(terms)
    return result


def _count_items(stat, result):
    # an enumerator that returns a generator is counted as it is consumed
    if hasattr(result, "__len__"):
        stat[3] += len(result)
        return result

    def counted():
        for item in result:
            stat[3] += 1
            yield item

    return counted()


#: size counter per traced name: poly terms produced, or objects enumerated
SIZE_HOOKS = {"poly.mul": _count_terms, "poly.exact_divide": _count_terms}
SIZE_HOOKS.update({name: _count_items for name in ENUMERATORS})


class Tracer:
    """Span recorder; ``stats[name]`` is ``[calls, total_s, self_s, size]``."""

    def __init__(self, max_spans: int = 100_000):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.nested = {pair: 0.0 for pair in NESTED}
        self.by_op: dict[tuple, float] = {}  # (op_id, name) -> self time
        self.spans: list[tuple] = []
        self.max_spans = max_spans
        self.dropped = 0
        self.op_id = None
        self._stack: list[list] = []  # [span id, time covered by children]
        self._depth: dict[str, int] = {}
        self._next_id = 0
        self._patches: list[tuple] = []
        self._origin = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        hook = SIZE_HOOKS.get(name)
        outers = [outer for outer, inner in NESTED if inner == name]
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] = level
                elapsed = end - start
                stat[0] += 1
                stat[2] += elapsed - frame[1]
                key = (self.op_id, name)
                self.by_op[key] = self.by_op.get(key, 0.0) + elapsed - frame[1]
                if level == 0:  # a recursive call's time is already in its caller's
                    stat[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                for outer in outers:
                    if depth.get(outer):
                        self.nested[(outer, name)] += elapsed
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, name, start, end, parent, self.op_id))
                else:
                    self.dropped += 1
            return result if hook is None else hook(stat, result)

        return traced

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def install(self) -> None:
        """Patch the tracer onto the detrec layer modules."""
        modules = {layer: importlib.import_module(f"detrec.{layer}") for layer in LAYERS}
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        poly = modules["poly"]
        for cls, prefix in ((poly.MultiPoly, ""), (poly.QuadExt, "quad_")):
            for dunder, op in OPERATORS.items():
                original = cls.__dict__.get(dunder)
                if original is None:
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = (original, self.wrap(f"poly.{prefix}{op}", original))
                self._patch(cls, dunder, wrapped[id(original)][1])
        detrec_modules = [m for name, m in sys.modules.items()
                          if name == "detrec" or name.startswith("detrec.")]
        for module in detrec_modules:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def report(self) -> dict:
        """Aggregates: per-name ``calls/total_ms/self_ms/size`` and the rest."""
        by_op: dict[str, dict] = {}
        for (op_id, name), seconds in self.by_op.items():
            by_op.setdefault(str(op_id), {})[name] = seconds * 1e3
        return {
            "functions": {name: {"calls": s[0], "total_ms": s[1] * 1e3,
                                 "self_ms": s[2] * 1e3, "size": s[3]}
                          for name, s in self.stats.items() if s[0]},
            "counters": dict(self.counters),
            "by_op": by_op,
            "nested_ms": {f"{outer}>{inner}": v * 1e3
                          for (outer, inner), v in self.nested.items()},
            "spans": len(self.spans) + self.dropped,
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines, times in ms from tracer start."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": (start - self._origin) * 1e3,
                    "end": (end - self._origin) * 1e3, "parent": parent,
                    "op_id": op_id}) + "\n")
