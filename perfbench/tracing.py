"""Span tracing of jetcones from outside the package.

A Tracer wraps the public functions and a few hot public methods of each
jetcones layer (module) and records one span per call: name, start, end
and the index of the enclosing span. Spans live in flat arrays in memory
and are written out once, at the end of the run.

Modules import each other's functions by name (``from .jets import
eigenvalues``), so wrapping a function rebinds every jetcones module's
reference to it, not only the defining module's.

A span's self time is its duration minus the part of its interval that
its direct child spans cover; a layer's self time is the sum over its
spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

# Layers in dependency order; each is a module of the jetcones package.
LAYERS = (
    "jets", "catalog", "duality", "canonical", "garding", "boundary",
    "grids", "solver", "experiments", "cli", "exprs",
)

# Dunder methods worth a span: construction of the jet types validates
# symmetry and shape on every call.
TRACED_DUNDERS = {("jets", "SymMat"): ("__init__",), ("jets", "Jet2"): ("__init__",)}

# Public functions that return the callable doing the work: the
# callable gets its own span name (a compiled boundary expression; the
# discrete operator's sweep, one per solver iteration).
RESULT_WRAPPERS = {
    "exprs.compile_expression": lambda tracer, f: tracer.wrap("exprs.eval", f),
    "solver.make_discrete_operator": lambda tracer, op: dataclasses.replace(
        op, apply=tracer.wrap("solver.sweep", op.apply)),
}


class Tracer:
    """In-memory span recorder. Spans are only recorded while active."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (synthetic spans, tests)."""
        i = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return i

    def wrap(self, name: str, fn):
        nid = self.name_index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn):
        """Run fn() inside a span called name."""
        return self.wrap(name, fn)()

    def to_arrays(self):
        import numpy as np

        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


def self_times(parent, start, end) -> list:
    """Per-span duration minus the union of its direct children's intervals.

    Children are clipped to the parent's interval and overlapping
    children are merged, so the result never goes below zero.
    """
    n = len(start)
    own = [end[i] - start[i] for i in range(n)]
    covered_to = {}  # parent -> end of the children's union so far
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], covered_to.get(p, -math.inf))
        hi = min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            covered_to[p] = hi
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def rebind(old, new, package: str = "jetcones") -> list:
    """Point every reference to `old` in the package's modules at `new`;
    return the (module, name, old) bindings replaced."""
    replaced = []
    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == package or key.startswith(package + ".")):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)
                    replaced.append((mod, attr, old))
    return replaced


def uninstall(replaced: list) -> None:
    """Undo install(): restore every replaced binding."""
    for owner, attr, old in reversed(replaced):
        setattr(owner, attr, old)


def install(tracer: Tracer, package: str = "jetcones") -> list:
    """Wrap every layer's public functions and hot methods; return the
    replaced bindings for uninstall().

    Wrapped: module-level public functions defined in the layer, public
    methods (plain and static) of public non-enum classes defined there,
    the jet constructors, and the callables returned by the
    RESULT_WRAPPERS entries. Every jetcones module's references are
    rebound to the wrappers.
    """
    import enum
    import importlib

    mods = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
    replaced = []
    for layer, mod in zip(LAYERS, mods):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                inner = obj
                if name in RESULT_WRAPPERS:
                    inner = _wrap_result(tracer, RESULT_WRAPPERS[name], obj)
                replaced += rebind(obj, tracer.wrap(name, inner), package)
            elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and not issubclass(obj, (enum.Enum, BaseException))):
                replaced += _wrap_class(tracer, layer, obj)
    return replaced


def _wrap_result(tracer: Tracer, wrap_result, factory):
    @functools.wraps(factory)
    def build(*args, **kwargs):
        return wrap_result(tracer, factory(*args, **kwargs))

    return build


def _wrap_class(tracer: Tracer, layer: str, cls) -> list:
    replaced = []
    dunders = TRACED_DUNDERS.get((layer, cls.__name__), ())
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in dunders:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(name, raw))
        else:
            continue
        replaced.append((cls, attr, raw))
    return replaced


@dataclass
class Summary:
    """Per-name aggregates of a trace."""

    count: dict
    inclusive_s: dict
    self_s: dict
    entries: dict        # layer -> spans whose parent lies in another layer
    under: dict          # (name, ancestor) -> (count, inclusive s) of name below ancestor

    def layer_self_s(self, layer: str, exclude=()) -> float:
        return sum((v for k, v in self.self_s.items()
                    if layer_of(k) == layer and k not in exclude), 0.0)


def summarize(tracer: Tracer, under=()) -> Summary:
    """Aggregate spans by name; `under` lists (name, ancestor) pairs to count."""
    names = tracer.names
    nid = tracer.name_id.tolist()
    parent = tracer.parent.tolist()
    start = tracer.start.tolist()
    end = tracer.end.tolist()
    own = self_times(parent, start, end)
    count, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    entries = defaultdict(int)
    layer_ids = [layer_of(n) for n in names]
    for i, k in enumerate(nid):
        name = names[k]
        count[name] += 1
        incl[name] += end[i] - start[i]
        self_s[name] += own[i]
        p = parent[i]
        if p < 0 or layer_ids[nid[p]] != layer_ids[k]:
            entries[layer_ids[k]] += 1
    below = {}
    for name, ancestor in under:
        target = tracer._ids.get(ancestor, -1)
        inside = [False] * len(nid)
        hits, seconds = 0, 0.0
        for i, k in enumerate(nid):  # parents precede children in index order
            p = parent[i]
            inside[i] = k == target or (p >= 0 and inside[p])
            if names[k] == name and p >= 0 and inside[p]:
                hits += 1
                seconds += end[i] - start[i]
        below[(name, ancestor)] = (hits, seconds)
    return Summary(dict(count), dict(incl), dict(self_s), dict(entries), below)
