"""Span tracing installed around the program's public functions from outside.

``Instrumentation`` replaces functions and methods of the ``btpolicy``
modules with wrappers that record one span per call (name, start, end,
parent span, request id) into a ``Tracer``, and restores the originals on
``uninstall``. Nothing in the program changes: a function imported by name
into another module (``from .bt import tick``) is re-bound there too, and
such a binding records under ``<name>@<importing module>`` so the caller
stays visible (``bt.tick@planner`` are the planner's simulated ticks).

Spans stay in memory in flat arrays and are written out once, when the run
ends. A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

_now = time.perf_counter


class Tracer:
    """Flat in-memory span store. Span ``i`` has name ``names[name_ix[i]]``,
    parent span index ``parent[i]`` (-1 at the top) and request ``request[i]``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.request_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name_ix.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(_now())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = _now()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Write spans as tab-separated lines:
        index, parent, request, name, start, end (seconds)."""
        names = self.names
        with path.open("w") as out:
            out.write("index\tparent\trequest\tname\tstart\tend\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                          f"{names[self.name_ix[i]]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), by one sweep over the spans in start order."""
    n = len(start)
    covered = array("d", [0.0]) * n
    reach = array("d", start)    # how far each span's coverage extends so far
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(tracer: Tracer) -> dict[str, SpanStats]:
    """Calls, inclusive time and self time per span name."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    stats = {name: SpanStats() for name in tracer.names}
    names = tracer.names
    for i, own in enumerate(selfs):
        entry = stats[names[tracer.name_ix[i]]]
        entry.calls += 1
        entry.total_s += tracer.end[i] - tracer.start[i]
        entry.self_s += own
    return stats


# --- wrappers ---------------------------------------------------------------

Hook = Callable[[Tracer, tuple, Any], None]


def span_wrapper(tracer: Tracer, name: str, fn: Callable, *,
                 on_call: Hook | None = None, on_result: Hook | None = None) -> Callable:
    """Record a span around every call; exceptions count as ``<name>.raised``."""
    name_id = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    def traced(*args, **kwargs):
        if on_call is not None:
            on_call(tracer, args, None)
        index = begin(name_id)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.counts[name + ".raised"] += 1
            raise
        finally:
            finish(index)
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Count calls without recording spans, for very cheap hot functions."""
    counts = tracer.counts

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``where`` is ``module:function``, ``module:Class.method`` or
    ``module:Class.property``; ``name`` is the span name. ``count_only``
    targets are counted, not spanned."""

    where: str
    name: str
    count_only: bool = False
    on_call: Hook | None = None
    on_result: Hook | None = None


class Instrumentation:
    """Wrappers for a list of targets, built once; ``install`` swaps them in
    and ``uninstall`` restores the originals."""

    def __init__(self, tracer: Tracer, targets: list[Target], package: str = "btpolicy"):
        self.tracer = tracer
        self._plan: list[tuple[Any, str, Any, Any]] = []   # owner, attr, original, wrapper
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for target in targets:
            module_name, _, path = target.where.partition(":")
            module = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    wrapper = property(self._wrap(target, target.name, original.fget))
                else:
                    wrapper = self._wrap(target, target.name, original)
                self._plan.append((owner, attr, original, wrapper))
                continue
            original = getattr(module, path)
            for other in modules:
                for attr, value in vars(other).items():
                    if value is not original:
                        continue
                    name = target.name
                    if other is not module and other.__name__ != package:
                        name += "@" + other.__name__.rsplit(".", 1)[-1]
                    self._plan.append((other, attr, original,
                                       self._wrap(target, name, original)))

    def _wrap(self, target: Target, name: str, fn: Callable) -> Callable:
        if target.count_only:
            return count_wrapper(self.tracer, name, fn)
        return span_wrapper(self.tracer, name, fn, on_call=target.on_call,
                            on_result=target.on_result)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)
