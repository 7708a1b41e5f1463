"""Span tracer that wraps nldef's public callables from outside the library.

Each wrapped call records one span: its layer name, the wrapped function,
start and end (perf_counter_ns), the enclosing span and the benchmark op it
belongs to, plus an optional work count taken from the call's arguments.
Spans stay in memory and are written out once, at the end of the run.

A wrapper patches every binding a caller can look up: a function imported
with ``from .x import f`` lives in several module namespaces, and all of them
get the same wrapper. Methods are patched on each class that defines them.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

# span fields
ID, PARENT, NAME, FN, START, END, OP, COUNT = range(8)


def _points(args) -> int:
    """Points passed to DomainBox.contains(self, x)."""
    x = args[1]
    return x.size // x.shape[-1] if x.ndim else 1


def _pairs(args) -> int:
    """(x, h) pairs of a broadcast delta_dot_h(self, x, h) call."""
    xs, hs = args[1].shape[:-1], args[2].shape[:-1]
    n = max(len(xs), len(hs))
    xs = (1,) * (n - len(xs)) + tuple(xs)
    hs = (1,) * (n - len(hs)) + tuple(hs)
    return math.prod(max(a, b) for a, b in zip(xs, hs))


class Tracer:
    """Collects spans while `active`; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.active = False
        self.op: int | None = None

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            # work is counted at the outermost span of a layer only (a jump
            # field's kernel calls the kernels of its two sides)
            outer = parent is None or parent[NAME] != name
            span = [len(tracer.spans), parent[ID] if parent else None, name,
                    fn.__qualname__, 0, 0, tracer.op,
                    count(args) if count and outer else 0]
            tracer.spans.append(span)
            tracer.stack.append(span)
            span[START] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                tracer.stack.pop()

        return traced

    def patch_function(self, fn, name: str) -> None:
        wrapped = self.wrap(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "nldef" and not modname.startswith("nldef."):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], count))

    # -- aggregation -------------------------------------------------------

    def _child_time(self) -> dict:
        child = {}
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] = child.get(s[PARENT], 0) + s[END] - s[START]
        return child

    def _outermost(self, name: str):
        return [s for s in self.spans if s[NAME] == name
                and (s[PARENT] is None or self.spans[s[PARENT]][NAME] != name)]

    def seconds(self, name: str) -> float:
        """Inclusive time of the outermost spans of a layer."""
        return sum(s[END] - s[START] for s in self._outermost(name)) * 1e-9

    def calls(self, name: str) -> int:
        return len(self._outermost(name))

    def count(self, name: str) -> int:
        return sum(s[COUNT] for s in self.spans if s[NAME] == name)

    def self_seconds(self, name: str) -> float:
        """Time in spans of a layer minus the time of their child spans."""
        child = self._child_time()
        return sum(s[END] - s[START] - child.get(s[ID], 0)
                   for s in self.spans if s[NAME] == name) * 1e-9

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "fn", "start_ns", "end_ns", "op", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the public callables of every nldef layer; `modules` maps layer -> module."""
    fields = modules["fields"]
    tracer.patch_method(fields.DomainBox, "contains", "fields.contains", _points)
    for cls in vars(fields).values():
        if inspect.isclass(cls) and issubclass(cls, fields.FieldSpec):
            if "delta_dot_h" in cls.__dict__:
                tracer.patch_method(cls, "delta_dot_h", "fields.delta_dot_h", _pairs)
            if "sym_gradient" in cls.__dict__:
                tracer.patch_method(cls, "sym_gradient", "fields.sym_gradient")
    tracer.patch_function(fields.ground_truth, "fields.ground_truth")

    energy = modules["energy"]
    for fn in (energy.energy, energy.residual_energy, energy.density_masses):
        tracer.patch_function(fn, "energy")

    symnorm = modules["symnorm"]
    tracer.patch_function(symnorm.make_sphere_rule, "symnorm.make_sphere_rule")
    tracer.patch_function(symnorm.qp_pow_eigs, "symnorm.qp_pow_eigs")

    spec = modules["mollifiers"].MollifierSpec
    for attr, val in list(vars(spec).items()):
        if inspect.isfunction(val) and not attr.startswith("_"):
            tracer.patch_method(spec, attr, "mollifiers")

    measures = modules["measures"]
    for fn in ("ground_truth_measure", "pair", "weakstar_gap"):
        tracer.patch_function(getattr(measures, fn), f"measures.{fn}")

    lab = modules["lab"]
    for fn in ("run_sweep", "rate_estimate", "report_write", "run_weakstar"):
        tracer.patch_function(getattr(lab, fn), f"lab.{fn}")

    tracer.patch_function(modules["cli"].main, "cli.main")
