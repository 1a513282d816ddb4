"""Latency distributions and trace-derived summaries.

:class:`LatencyStats` is a small reservoir of observations with
percentile queries — used to characterize per-operation latency spread
(e.g. lock-acquisition latency fairness across CPUs), complementing the
mean-centric tables of the paper.

:func:`op_latency_stats` lifts a :class:`~repro.trace.TraceRecorder`'s
spans into per-operation distributions.

numpy is imported inside the methods that compute, so recording samples
on a workload's hot path does not load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    import numpy as np


class LatencyStats:
    """Streaming collection of latency samples with percentile queries."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: list[float] = []
        self._sorted: Optional[np.ndarray] = None

    def record(self, value: float) -> None:
        self._samples.append(float(value))
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(float(v) for v in values)
        self._sorted = None

    def __len__(self) -> int:
        return len(self._samples)

    def _view(self) -> np.ndarray:
        if self._sorted is None:
            import numpy as np

            self._sorted = np.sort(np.asarray(self._samples, dtype=float))
        return self._sorted

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no samples")
        import numpy as np

        return float(np.mean(self._samples))

    @property
    def minimum(self) -> float:
        return float(self._view()[0])

    @property
    def maximum(self) -> float:
        return float(self._view()[-1])

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100), linearly interpolated between the
        two nearest ranks (numpy's default ``linear`` method)."""
        if not self._samples:
            raise ValueError("no samples")
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} out of range")
        import numpy as np

        return float(np.percentile(self._view(), q))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def coefficient_of_variation(self) -> float:
        """Std/mean — the fairness/jitter figure of merit."""
        mean = self.mean
        if mean == 0:
            return 0.0
        import numpy as np

        return float(np.std(self._samples) / mean)

    def summary(self) -> str:
        if not self._samples:
            return f"{self.name or 'latency'}: no samples"
        return (f"{self.name or 'latency'}: n={len(self)} "
                f"mean={self.mean:.0f} p50={self.p50:.0f} "
                f"p99={self.p99:.0f} max={self.maximum:.0f}")


def op_latency_stats(tracer, op_name: str,
                     track: Optional[str] = None) -> LatencyStats:
    """Distribution of one operation's span durations from a trace.

    ``track`` restricts to one CPU ("cpu3"); default is machine-wide.
    """
    stats = LatencyStats(name=op_name)
    for span in tracer.spans_named(op_name):
        if track is None or span.track == track:
            stats.record(span.duration)
    return stats


def fairness_across_cpus(tracer, op_name: str, n_cpus: int) -> float:
    """Coefficient of variation of per-CPU *total* time in an op.

    0.0 = perfectly fair; large values indicate starvation (e.g. a
    non-FIFO lock under NUMA distance asymmetry).
    """
    totals = []
    for cpu in range(n_cpus):
        totals.append(tracer.total_time_in(f"cpu{cpu}", op_name))
    mean = sum(totals) / len(totals)
    if mean == 0:
        return 0.0
    var = sum((t - mean) ** 2 for t in totals) / len(totals)
    return math.sqrt(var) / mean
