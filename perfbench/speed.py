"""A CPU speed probe, run between requests, to scale timings to one speed.

On a shared virtual machine the speed at which this process executes
Python moves by 30-40% over seconds to minutes, as other tenants load the
host; the process's CPU time moves with its wall time, so the slowdown is
not time spent descheduled but slower execution. Raw latencies of two runs
of the same code therefore differ by more than any regression worth
catching.

The probe is a fixed piece of interpreter work, independent of the program
under test, of the same kind the program does (tuple keys, dict updates,
attribute reads, sorting, string joins). The benchmark runs it every
``PROBE_INTERVAL_S`` between requests and scales each request's time by
``REFERENCE_S`` over the median probe time around that request: a scaled
time is what the request would have taken at the speed where one probe
takes ``REFERENCE_S``. A change to the program cannot move the probe, so
scaled times compare across commits as raw times would on a quiet machine.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.005      # probe time at the reference speed
PROBE_INTERVAL_S = 0.1   # a probe after the first request that ends this long after the last probe
WINDOW = 5               # a request is scaled by the median of the 2 * WINDOW probes nearest it

_now = time.perf_counter


class _Item:
    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name


_ITEMS = [_Item(i, f"obj{i}") for i in range(200)]


def reference_work() -> int:
    """The probe's fixed work, about 5 ms at the reference speed."""
    facts: dict[tuple, int] = {}
    found = 0
    for round_ in range(14):
        for item in _ITEMS:
            key = ("on", item.name, round_ & 7)
            facts[key] = facts.get(key, 0) + 1
            if ("on", item.name, (round_ + 1) & 7) in facts:
                found += item.index & 1
        first = sorted(facts.items(), key=lambda kv: kv[0][1])[:50]
        found += len(",".join(key[1] for key, _ in first))
    return found


class SpeedProbe:
    """Probe times, and the scale they give to each moment of a run."""

    def __init__(self):
        self.at: list[float] = []     # end of each probe, ascending
        self.took: list[float] = []   # its duration

    def probe(self) -> None:
        start = _now()
        reference_work()
        end = _now()
        self.at.append(end)
        self.took.append(end - start)

    def due(self) -> None:
        """Probe if the last probe ended at least ``PROBE_INTERVAL_S`` ago."""
        if not self.at or _now() - self.at[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def scale_at(self, moment: float) -> float:
        """``REFERENCE_S`` over the median probe time nearest ``moment``."""
        if not self.took:
            raise ValueError("no probe has run")
        index = bisect.bisect(self.at, moment)
        nearest = self.took[max(0, index - WINDOW):index + WINDOW]
        return REFERENCE_S / statistics.median(nearest)

    def scale(self) -> float:
        """``REFERENCE_S`` over the median of every probe so far."""
        if not self.took:
            raise ValueError("no probe has run")
        return REFERENCE_S / statistics.median(self.took)
