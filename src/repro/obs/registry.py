"""The metrics registry: counters, gauges, and log-bucketed histograms.

Design constraints, in order:

1. **Near-zero cost when disabled.**  Components never consult the
   registry on hot paths; they keep plain integer attributes (as the
   seed code already did) and the registry *pulls* them at snapshot
   time through registered collector callbacks.  Optional push-style
   instruments (fan-out histograms) sit behind a single
   ``machine.obs is None`` attribute check.
2. **Cheap when enabled.**  A counter increment is one attribute add;
   a histogram observation is a ``bit_length`` and a dict add.  No
   locks — the simulator is single-threaded by construction.
3. **Mergeable.**  Snapshots are plain JSON-able dicts; counters merge
   by sum, gauges by max, histograms bucket-wise — see
   :mod:`repro.obs.snapshot` — so a sweep's points aggregate exactly.

Metric names are dotted paths (``"cache.l2.misses"``,
``"network.msgs.word_update"``) grouped by subsystem prefix.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

#: snapshot format identifier, embedded in every exported snapshot
SNAPSHOT_SCHEMA = "repro.obs.snapshot/1"


class Counter:
    """Monotonic counter (int or float)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Point-in-time value: either set explicitly or read via callback."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str,
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._value: float = 0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = value

    def read(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Gauge {self.name}={self.read()}>"


class Histogram:
    """Log2-bucketed histogram of non-negative observations.

    Bucket labels are inclusive upper bounds: an observation ``v`` lands
    in the smallest power-of-two bucket ``>= v`` (``0`` has its own
    bucket).  Powers of two make merging trivial and keep the bucket
    count bounded (64 buckets cover the full simulated-cycle range).

    Examples
    --------
    >>> h = Histogram("x")
    >>> for v in (0, 1, 3, 4, 100):
    ...     h.observe(v)
    >>> h.count, h.total
    (5, 108)
    >>> sorted(h.buckets.items())
    [(0, 1), (1, 1), (4, 2), (128, 1)]
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.observe_many(value, 1)

    def observe_many(self, value: float, n: int) -> None:
        """``n`` observations of ``value`` (none when ``n`` <= 0)."""
        if n <= 0:
            return
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        iv = int(value)
        bucket = 0 if iv <= 0 else 1 << (iv - 1).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": 0 if self.min is None else self.min,
            "max": 0 if self.max is None else self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.1f}>"


class MetricsRegistry:
    """Named instrument store with pull-collector support.

    ``counter``/``gauge``/``histogram`` are get-or-create;
    ``register_collector`` registers a zero-argument callback whose
    value is read at snapshot time and reported as a *counter* (they
    collect the cumulative plain-int counters components already keep —
    summing across sweep points is the meaningful aggregation).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, Callable[[], float]] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name, fn)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def register_collector(self, name: str,
                           fn: Callable[[], float]) -> None:
        """Pull-style cumulative counter, evaluated at snapshot time."""
        self._collectors[name] = fn

    # ------------------------------------------------------------------
    def gauge_values(self) -> dict[str, float]:
        """Current value of every gauge (the sampler's per-tick read)."""
        return {name: g.read() for name, g in sorted(self._gauges.items())}

    def snapshot(self) -> dict[str, Any]:
        """The registry as a plain JSON-able dict (see the schema)."""
        counters = {name: c.value
                    for name, c in sorted(self._counters.items())}
        for name, fn in sorted(self._collectors.items()):
            counters[name] = fn()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": counters,
            "gauges": self.gauge_values(),
            "histograms": {name: h.as_dict()
                           for name, h in sorted(self._histograms.items())},
        }
