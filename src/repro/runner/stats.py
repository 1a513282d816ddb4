"""Observability for the sweep runner: per-point and aggregate counters.

The :class:`~repro.runner.executor.ParallelRunner` records one
:class:`PointRecord` per resolved spec (cache hit or fresh execution)
and aggregates them in :class:`RunnerStats` — runs completed, cache
hits, retries, per-point wall time, and simulator events dispatched per
second of worker wall time.  Progress hooks receive each record as it
lands, in completion order.

:class:`RunnerStats` is backed by a
:class:`~repro.obs.registry.MetricsRegistry` (counters named
``runner.*`` plus a per-point wall-time histogram), so the runner's own
accounting exports through the same snapshot pipeline as simulation
metrics; the original attribute API (``stats.executed`` etc.) is
preserved as property views over the registry.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.registry import MetricsRegistry


@dataclass
class PointRecord:
    """One resolved sweep point."""

    label: str
    cached: bool
    #: wall-clock seconds the simulation took (stored time for hits)
    wall_seconds: float
    #: simulator events the run dispatched
    sim_events: int
    attempts: int = 1
    failed: bool = False

    @property
    def events_per_second(self) -> float:
        return self.sim_events / self.wall_seconds if self.wall_seconds else 0.0


#: hook signature: (completed so far, total points, the record that landed)
ProgressHook = Callable[[int, int, PointRecord], None]


class RunnerStats:
    """Aggregate counters across every :meth:`ParallelRunner.run` call.

    All counts live in a :class:`MetricsRegistry` under ``runner.*``
    names; the public attributes are read-through properties, so code
    written against the original dataclass keeps working while
    ``--metrics-out`` exports the same numbers.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or MetricsRegistry()
        reg = self.registry
        self._total = reg.counter("runner.points_total")
        self._cache_hits = reg.counter("runner.cache_hits")
        self._executed = reg.counter("runner.executed")
        self._failures = reg.counter("runner.failures")
        self._retries = reg.counter("runner.retries")
        self._wall = reg.counter("runner.wall_seconds")
        self._elapsed = reg.counter("runner.elapsed_seconds")
        self._sim_events = reg.counter("runner.sim_events")
        #: per-point fresh-execution wall time distribution
        self.point_wall_ms = reg.histogram("runner.point_wall_ms")
        self.points: list[PointRecord] = []

    # ------------------------------------------------------------------
    def record(self, point: PointRecord) -> None:
        self._total.inc()
        self.points.append(point)
        self._sim_events.inc(point.sim_events)
        if point.attempts > 1:
            self._retries.inc(point.attempts - 1)
        if point.failed:
            self._failures.inc()
        elif point.cached:
            self._cache_hits.inc()
        else:
            self._executed.inc()
            self._wall.inc(point.wall_seconds)
            self.point_wall_ms.observe(point.wall_seconds * 1000.0)

    # ------------------------------------------------------------------
    # property views preserving the original dataclass-field API
    # ------------------------------------------------------------------
    @property
    def total_points(self) -> int:
        return self._total.value

    @property
    def cache_hits(self) -> int:
        return self._cache_hits.value

    @property
    def executed(self) -> int:
        return self._executed.value

    @property
    def failures(self) -> int:
        return self._failures.value

    @property
    def retries(self) -> int:
        """Extra attempts beyond the first, summed over all points."""
        return self._retries.value

    @property
    def wall_seconds(self) -> float:
        """Sum of fresh-execution wall seconds (worker-side, overlaps
        when parallel — compare against :attr:`elapsed_seconds`)."""
        return self._wall.value

    @property
    def elapsed_seconds(self) -> float:
        """End-to-end seconds spent inside run() calls."""
        return self._elapsed.value

    def add_elapsed(self, seconds: float) -> None:
        self._elapsed.inc(seconds)

    @property
    def sim_events(self) -> int:
        return self._sim_events.value

    def snapshot(self) -> dict:
        """The runner's registry snapshot (for ``--metrics-out``)."""
        return self.registry.snapshot()

    @property
    def events_per_second(self) -> float:
        """Simulator events dispatched per second of worker wall time."""
        if self.wall_seconds == 0:
            return 0.0
        executed_events = sum(p.sim_events for p in self.points
                              if not p.cached and not p.failed)
        return executed_events / self.wall_seconds

    def summary(self) -> str:
        parts = [f"{self.total_points} points",
                 f"{self.cache_hits} cache hits",
                 f"{self.executed} executed"]
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.failures:
            parts.append(f"{self.failures} FAILED")
        parts.append(f"{self.elapsed_seconds:.1f}s elapsed")
        if self.executed:
            parts.append(f"{self.events_per_second:,.0f} events/s")
        return ", ".join(parts)


def stderr_progress(done: int, total: int, point: PointRecord) -> None:
    """Default ``--progress`` hook: one line per resolved point."""
    origin = "cache" if point.cached else f"{point.wall_seconds:.2f}s"
    if point.failed:
        origin = "FAILED"
    rate = (f" {point.events_per_second:,.0f} ev/s"
            if not point.cached and not point.failed else "")
    print(f"# [{done}/{total}] {point.label}: {origin}{rate}",
          file=sys.stderr, flush=True)

