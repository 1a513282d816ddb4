"""Snapshot aggregation: merge per-point metrics across a sweep.

Every sweep point that runs with metrics enabled returns one snapshot
dict (:meth:`repro.obs.registry.MetricsRegistry.snapshot`, possibly
extended with ``series`` and ``critical_path`` sections by the workload
driver).  Because snapshots ride inside the result objects, they are
persisted in the runner's :class:`~repro.runner.cache.ResultCache` for
free and survive cache hits byte-identically.

Merge rules:

* counters — sum (they are cumulative event counts);
* gauges — max (point-in-time values; the sweep-wide peak is the
  meaningful aggregate for queue depths and the like);
* histograms — bucket-wise sum, min/min, max/max;
* critical_path — episode counts and per-segment totals sum;
* series — **not** merged: per-point simulated-time axes are not
  comparable, so time-series stay with their point.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.obs.registry import SNAPSHOT_SCHEMA

#: export document format identifier
EXPORT_SCHEMA = "repro.obs.export/1"

def _merge_histogram(into: dict, hist: dict) -> None:
    into["count"] += hist["count"]
    into["sum"] += hist["sum"]
    if hist["count"]:
        if into["count"] == hist["count"]:   # first non-empty contribution
            into["min"], into["max"] = hist["min"], hist["max"]
        else:
            into["min"] = min(into["min"], hist["min"])
            into["max"] = max(into["max"], hist["max"])
    buckets = into["buckets"]
    for label, n in hist["buckets"].items():
        buckets[label] = buckets.get(label, 0) + n


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Aggregate snapshots into one (see module docstring for rules)."""
    out: dict[str, Any] = {
        "schema": SNAPSHOT_SCHEMA,
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    critical: Optional[dict] = None
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            prev = out["gauges"].get(name)
            out["gauges"][name] = value if prev is None else max(prev, value)
        for name, hist in snap.get("histograms", {}).items():
            into = out["histograms"].setdefault(
                name, {"count": 0, "sum": 0, "min": 0, "max": 0,
                       "buckets": {}})
            _merge_histogram(into, hist)
        cp = snap.get("critical_path")
        if cp:
            if critical is None:
                critical = {"episodes": 0, "total_cycles": 0,
                            "segments": {}}
            critical["episodes"] += cp.get("episodes", 0)
            critical["total_cycles"] += cp.get("total_cycles", 0)
            for seg, cycles in cp.get("segments", {}).items():
                critical["segments"][seg] = (
                    critical["segments"].get(seg, 0) + cycles)
    if critical is not None:
        out["critical_path"] = critical
    return out


def build_export(points: list[tuple[str, dict]],
                 runner: Optional[dict] = None,
                 tool: str = "repro-experiments",
                 notes: str = "") -> dict:
    """Assemble the export document written by ``--metrics-out``.

    ``points`` is ``[(label, snapshot), ...]`` in sweep order; the
    aggregate section is their merge.  ``runner`` is the runner's own
    registry snapshot (cache hits, wall clock) when available.
    """
    doc: dict[str, Any] = {
        "schema": EXPORT_SCHEMA,
        "tool": tool,
        "points": [{"label": label, "metrics": snap}
                   for label, snap in points],
        "aggregate": merge_snapshots(snap for _label, snap in points),
    }
    if runner is not None:
        doc["runner"] = runner
    if notes:
        doc["notes"] = notes
    return doc
