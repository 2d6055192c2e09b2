"""Per-layer spans around pbcat, installed from outside the package.

:meth:`Tracer.install` wraps the public functions of each pbcat module and
rebinds every module-level reference to them, so a ``from .core import
compose`` copy in ``pbcat.baer`` is traced as well as ``pbcat.core.compose``.
A few methods are patched on their classes.  Every call records a span
(name, start, end, parent, request) in memory; the hottest method,
``CayleyTable.mul_index``, is only counted, because a span per table lookup
would cost more than the lookup itself.  :meth:`Tracer.uninstall` restores
the originals.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("core", "monoid", "baer", "exact", "textio", "laws", "cli")

# (module, class, method) patched on the class and recorded as spans
_METHOD_SPANS = (
    ("core", "PBij", "__init__"),
    ("core", "FinSet", "__init__"),
    ("monoid", "CayleyTable", "__post_init__"),
    ("exact", "Grid3x3", "validate"),
    ("exact", "ShortExactSeq", "__post_init__"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span names, indexed by name id
        self._ids: dict[str, int] = {}
        # one entry per span, in the order the spans started
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")
        self.counts: Counter = Counter()
        self.request = -1
        self._stack = [-1]
        self._tallies: dict[str, itertools.count] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- installation -----------------------------------------------------

    def _span(self, name, fn, measure=None, name_of=None):
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, requests = self.parents, self.requests
        fixed = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(self._id(name_of(args)) if name_of else fixed)
            parents.append(stack[-1])
            requests.append(self.request)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if measure:
                counts[measure[0]] += measure[1](args, result)
            return result
        return wrapper

    def _yields(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._yields(f"{name}.yields", fn)
                elif attr == "run_law":
                    wrapper = self._span(name, fn, name_of=lambda args: f"laws.{args[0]}")
                elif attr.startswith("parse_"):
                    wrapper = self._span(name, fn, measure=(
                        "textio.parse.bytes", lambda args, res: len(args[0].encode())))
                elif attr.startswith("serialize_"):
                    wrapper = self._span(name, fn, measure=(
                        "textio.serialize.bytes", lambda args, res: len(res.encode())))
                else:
                    wrapper = self._span(name, fn)
                wrapped[id(fn)] = (fn, wrapper)
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit and hit[0] is value:
                    self._set(mod, attr, hit[1])
        for layer, cls_name, meth in _METHOD_SPANS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, meth, self._span(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))

        table = modules["monoid"].CayleyTable
        mul_index = table.mul_index
        tally = self._tallies["monoid.table_products"] = itertools.count()

        def counted_mul_index(self, i, j):
            next(tally)
            return mul_index(self, i, j)
        self._set(table, "mul_index", counted_mul_index)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        for key, tally in self._tallies.items():
            self.counts[key] += next(tally)
        self._tallies.clear()

    # -- derived numbers ----------------------------------------------------

    def spans(self):
        """(name, start, end, parent, request) per span, in start order."""
        names = self.names
        return zip((names[i] for i in self.name_ids), self.starts, self.ends,
                   self.parents, self.requests)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its children."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = durations[:]
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                own[parent] -= duration
        return own

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name_id, own in zip(self.name_ids, self.self_times()):
            row = out[self.names[name_id]]
            row[0] += 1
            row[1] += own
        return {name: (calls, own) for name, (calls, own) in out.items()}

    def by_layer(self) -> dict[str, float]:
        """Self seconds per layer, the first part of each span name."""
        out: dict[str, float] = defaultdict(float)
        for name, own in self.by_name().items():
            out[name.split(".", 1)[0]] += own[1]
        return out
