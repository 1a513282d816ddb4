"""Unified metrics & telemetry for the whole stack (``repro.obs``).

One observability layer spanning kernel -> coherence -> network -> runner:

* :class:`MetricsRegistry` — named counters, gauges and log-bucketed
  histograms with near-zero cost when nothing is attached (components
  guard instrumentation behind a single ``machine.obs is None`` check).
* :class:`MachineMetrics` — wires one :class:`~repro.core.machine.Machine`
  into a registry: kernel event/queue telemetry, per-level cache
  hit/miss/eviction counters, directory and home-engine transaction
  counts, AMU/MAO op counters, and per-kind network traffic.
* :class:`Sampler` — snapshots gauges on a simulated-cycle interval,
  producing time-series (queue depths, cumulative events) per run.
* :class:`CriticalPathAnalyzer` — attributes each barrier/lock episode's
  latency to cpu / coherence / network / amu / wait segments using the
  trace recorder's spans.
* :mod:`repro.obs.snapshot` — snapshot merge across sweep points, and
  :mod:`repro.obs.schema` — the export JSON schema, validated by walking
  the schema document itself (``python -m repro.obs.schema out.json``).

Per-message records are the trace's (:class:`repro.trace.TraceRecorder`);
this package keeps aggregates only.
"""

from repro.obs.critical_path import CriticalPathAnalyzer, EpisodeBreakdown
from repro.obs.machine import MachineMetrics
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sampler import Sampler
from repro.obs.snapshot import build_export, merge_snapshots

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "MachineMetrics", "Sampler",
    "CriticalPathAnalyzer", "EpisodeBreakdown",
    "merge_snapshots", "build_export",
    "validate_snapshot", "validate_export",
]


def __getattr__(name: str):
    # The validators load repro.obs.schema on first use, so that
    # ``python -m repro.obs.schema`` does not find the module imported
    # already (runpy would warn and run its body twice).
    if name in ("validate_export", "validate_snapshot"):
        from repro.obs import schema
        return getattr(schema, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
