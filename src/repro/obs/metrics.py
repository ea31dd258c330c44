"""Process-wide counters and histograms with per-thread accumulation.

One :class:`MetricsRegistry` instance (:data:`METRICS`) serves the whole
process.  Instrumentation sites call :meth:`~MetricsRegistry.inc` /
:meth:`~MetricsRegistry.observe` unconditionally; both start with a
single ``enabled`` check, so a disabled registry costs one attribute
read and a branch per site — nothing allocates, nothing locks.

When enabled, every thread accumulates into its own private cell (a
plain dict reached through ``threading.local``), so concurrent readers
and the writer never contend on a shared lock per increment; the only
locked operation is registering a new thread's cell.  A
:meth:`~MetricsRegistry.snapshot` merges all cells into one
JSON-serializable view.

Naming convention (the counter glossary lives in DESIGN.md):

* ``backend.*``    — statements/rows at the Backend seam (both engines)
* ``minidb.*``     — engine-internal statement counts
* ``translate.*``  — XPath->SQL compilations and their join/subquery cost
* ``query.*`` / ``load.*`` / ``updates.*`` — store-level operations
* ``serve.*``      — wire requests, the router's reconnects and shard
  errors, worker respawns
* ``cache.*``      — store cache hits/misses/evictions/invalidations
  (aggregate, plus ``cache.plan.*`` / ``cache.catalog.*`` /
  ``cache.result.*`` / ``cache.keys.*`` per layer; see :mod:`repro.cache`)
* ``index.*``      — index builds, repairs and the plans that use one
* ``migrate.*``    — migrations, plus the ``migrate.blocked_ms`` histogram

Metrics count; time is the tracer's (:mod:`repro.obs.tracer`).
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, Optional


class Histogram:
    """Summary statistics of observed values (count/total/min/max)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if self.min is None or (other.min is not None
                                and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None
                                and other.max > self.max):
            self.max = other.max

    def as_dict(self) -> dict:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total": self.total,
            "mean": mean,
            "min": self.min,
            "max": self.max,
        }


class _Cell:
    """One thread's private accumulation buffers."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}


class MetricsRegistry:
    """A process-wide registry of named counters and histograms.

    Disabled by default: :meth:`inc` and :meth:`observe` return after
    one boolean check.  :meth:`reset` and :meth:`snapshot` are safe at
    any time, but a reset that races live increments may lose the
    in-flight ones — quiesce worker threads around resets when exact
    counts matter (tests and the bench harness both do).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._cells: list[_Cell] = []
        self._tls = threading.local()

    def _cell(self) -> _Cell:
        cell = getattr(self._tls, "cell", None)
        if cell is None:
            cell = _Cell()
            self._tls.cell = cell
            with self._lock:
                self._cells.append(cell)
        return cell

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name* (no-op while disabled)."""
        if not self.enabled:
            return
        counters = self._cell().counters
        counters[name] = counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name* (no-op while disabled)."""
        if not self.enabled:
            return
        histograms = self._cell().histograms
        hist = histograms.get(name)
        if hist is None:
            hist = histograms[name] = Histogram()
        hist.observe(value)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Merge every thread's cell into one serializable view."""
        counters: dict[str, int] = {}
        histograms: dict[str, Histogram] = {}
        with self._lock:
            cells = list(self._cells)
        for cell in cells:
            for name, value in list(cell.counters.items()):
                counters[name] = counters.get(name, 0) + value
            for name, hist in list(cell.histograms.items()):
                merged = histograms.get(name)
                if merged is None:
                    merged = histograms[name] = Histogram()
                merged.merge(hist)
        return {
            "counters": dict(sorted(counters.items())),
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(histograms.items())
            },
        }

    def counter(self, name: str) -> int:
        """Merged value of one counter (0 when never incremented)."""
        return self.snapshot()["counters"].get(name, 0)

    def reset(self) -> None:
        """Zero every counter and histogram across all threads."""
        with self._lock:
            cells = list(self._cells)
        for cell in cells:
            cell.counters.clear()
            cell.histograms.clear()


#: The process-wide registry every instrumentation site records into.
METRICS = MetricsRegistry()


@contextmanager
def counting() -> Iterator[Counter]:
    """Yield a Counter that holds, once the block exits, the metrics
    counters recorded inside it.  The registry records for the block's
    duration, whatever its setting was, and is reset on both sides, so
    the counts are the block's own and none outlive it (``repro migrate
    --auto`` reads the registry as its workload window)."""
    was_enabled = METRICS.enabled
    METRICS.reset()
    METRICS.enabled = True
    grew: Counter = Counter()
    try:
        yield grew
        grew.update(METRICS.snapshot()["counters"])
    finally:
        METRICS.enabled = was_enabled
        METRICS.reset()
