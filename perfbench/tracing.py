"""Span recorder for the traced run, and the per-layer analysis of its file.

Spans are recorded from the benchmark's side of each layer boundary: the
recorder swaps, in the namespaces of the calling modules, every reference
to another bvdesk module's public functions for a timing wrapper.  A module
imported as a whole is replaced by a copy whose public functions are
wrapped, so calls inside one module (which resolve through that module's
own globals) are not split.  Per-element hot methods (``BoolElem.meet``,
``InfiniteSubsetStream.element`` and the like) and the per-element
converters ``lattice.rat`` and ``lattice.rat_str`` are not wrapped; their
cost is charged to the calling layer.

A span is ``(id, parent, item, name, start_ns, end_ns, tag)``.  Spans are
kept in memory and written once, at the end of the traced pass; the
per-layer report is computed from that file.  A layer's self time is the
duration of its spans minus the part of each covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import re
import time
import types
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

#: The layers, one per module of ``src/bvdesk``.
LAYERS = ("cli", "acceptance", "battery", "formula", "bvu", "boolalg",
          "lattice", "operators", "ratlinalg", "refinement", "contfrac", "pnfin")

#: Layer of the spans the benchmark opens around its own work.
BENCH = "bench"

#: Per-element converters, charged to their caller like the hot methods.
UNWRAPPED = frozenset({"lattice.rat", "lattice.rat_str"})

#: Public entry methods that are wrapped on their class.
ENTRY_METHODS = (("refinement", "RefinementResult", "to_json"),)

#: Functions whose spans carry a size tag: the atom count of the call.
TAGS: dict[str, Callable] = {
    "bvu.descent": lambda args: args[0].algebra.atom_count,
    "refinement.refine_report": lambda args: args[0].atom_count,
}

_CRITERION = re.compile(r"criterion_(\d+)_")


class Recorder:
    """In-memory span store with the stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []
        self.item = -1
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, *, force: bool = False) -> Callable:
        """Return ``fn`` timed as span ``name``.

        A call made while a span of the same layer is innermost joins that
        span instead of opening one, unless ``force`` is set.
        """
        layer = name.split(".", 1)[0]
        tagger = TAGS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec.stack
            if not force and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = rec._next_id
            rec._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            tag = tagger(args) if tagger is not None else None
            stack.append((sid, layer))
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rec.spans.append((sid, parent, rec.item, name, start, end, tag))

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        sid = self._next_id
        self._next_id = sid + 1
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append((sid, name.split(".", 1)[0]))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append((sid, parent, self.item, name, start, end, None))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "item", "name", "start_ns",
                                  "end_ns", "tag"],
                       "spans": sorted(self.spans)}, fh, separators=(",", ":"))


def install(rec: Recorder, modules: dict[str, types.ModuleType],
            callers: Iterable[types.ModuleType]) -> Callable[[], None]:
    """Wrap every cross-module reference; return a function that undoes it.

    ``modules`` maps layer name to the bvdesk module; ``callers`` are the
    benchmark's own modules, patched the same way as the bvdesk ones.
    """
    by_module = {m.__name__: layer for layer, m in modules.items()}
    wrapped: dict[int, Callable] = {}
    proxies: dict[str, types.ModuleType] = {}
    undo: list[tuple[object, str, object]] = []

    def wrapper_for(fn: types.FunctionType) -> Callable:
        got = wrapped.get(id(fn))
        if got is None:
            got = rec.wrap(f"{by_module[fn.__module__]}.{fn.__name__}", fn)
            wrapped[id(fn)] = got
        return got

    def traceable(value: object) -> bool:
        if not isinstance(value, types.FunctionType):
            return False
        if value.__module__ not in by_module or value.__name__.startswith("_"):
            return False
        return f"{by_module[value.__module__]}.{value.__name__}" not in UNWRAPPED

    def proxy_for(module: types.ModuleType) -> types.ModuleType:
        got = proxies.get(module.__name__)
        if got is None:
            got = types.ModuleType(module.__name__, module.__doc__)
            got.__dict__.update(vars(module))
            for name, value in vars(module).items():
                if (not name.startswith("_") and traceable(value)
                        and value.__module__ == module.__name__):
                    got.__dict__[name] = wrapper_for(value)
            proxies[module.__name__] = got
        return got

    for caller in [*modules.values(), *callers]:
        for name, value in list(vars(caller).items()):
            if isinstance(value, types.ModuleType) and value.__name__ in by_module:
                if value is not caller:
                    undo.append((caller, name, value))
                    setattr(caller, name, proxy_for(value))
            elif traceable(value) and value.__module__ != caller.__name__:
                undo.append((caller, name, value))
                setattr(caller, name, wrapper_for(value))

    for layer, cls_name, method in ENTRY_METHODS:
        cls = getattr(modules[layer], cls_name)
        original = vars(cls)[method]
        undo.append((cls, method, original))
        setattr(cls, method, rec.wrap(f"{layer}.{cls_name}.{method}", original))

    acceptance = modules["acceptance"]
    original_criteria = acceptance.ALL_CRITERIA
    undo.append((acceptance, "ALL_CRITERIA", original_criteria))
    acceptance.ALL_CRITERIA = tuple(
        rec.wrap(f"acceptance.criterion_{int(_CRITERION.match(fn.__name__).group(1)):02d}",
                 fn, force=True)
        for fn in original_criteria)

    def uninstall() -> None:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)

    return uninstall


# -- analysis of the written file -------------------------------------------------


def load(path: str) -> list[tuple]:
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)["spans"]]


def covered(intervals: Sequence[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[tuple]) -> dict[int, int]:
    """Span id -> duration minus the part its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _item, _name, start, end, _tag in spans:
        children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - covered(children.get(sid, ()), start, end)
            for sid, _parent, _item, _name, start, end, _tag in spans}


def layer_report(spans: Sequence[tuple]) -> dict:
    """Per-layer self time and boundary crossings, criterion busy time, tags.

    ``calls`` counts spans entered from another layer (or from no span);
    the forced criterion spans, entered from ``acceptance.run_all``, are
    therefore not counted again.
    """
    own = self_times(spans)
    layer_of = {s[0]: s[3].split(".", 1)[0] for s in spans}
    self_ns = {layer: 0 for layer in (*LAYERS, BENCH)}
    calls = {layer: 0 for layer in (*LAYERS, BENCH)}
    busy_ns: dict[str, int] = {}
    tagged: dict[str, dict[int, list[int]]] = {}
    roots_ns = 0
    for sid, parent, _item, name, start, end, tag in spans:
        layer = layer_of[sid]
        self_ns[layer] += own[sid]
        if parent == -1:
            roots_ns += end - start
        if layer_of.get(parent) != layer:
            calls[layer] += 1
        if name.startswith("acceptance.criterion_"):
            busy_ns[name] = busy_ns.get(name, 0) + (end - start)
        if tag is not None:
            tagged.setdefault(name, {}).setdefault(tag, []).append(end - start)
    return {"self_ns": self_ns, "calls": calls, "busy_ns": busy_ns,
            "tagged_ns": tagged, "roots_ns": roots_ns}
