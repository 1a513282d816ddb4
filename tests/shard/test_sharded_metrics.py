"""Sharded observability: merged metrics equal single-process metrics.

The contract (see ``docs/observability.md`` "Sharded runs"): a metered
run partitioned across N worker processes produces a merged snapshot
that is schema-valid and counter-equal to the single-process snapshot
for every non-exempt metric.  The exemption list is exactly

* :data:`repro.obs.snapshot.SHARD_EXEMPT_COUNTERS`
  (``kernel.events_dispatched`` — host-side kernel events, see
  :data:`repro.harness.parity.SHARD_EXEMPT_KEYS`),
* the shard-only ``shard.*`` telemetry family
  (:data:`repro.obs.snapshot.SHARD_ONLY_PREFIXES`), and
* time ``series`` — per-shard samplers watch only local queues, so
  merged snapshots drop the section rather than publish misleading
  machine-wide curves.

Attaching metrics must also be timing-neutral: the metered sharded run
reproduces the unmetered cycle counts (CI proves this against the
goldens via ``capture_parity.py --verify --metrics --shards 2``).
"""

import pytest

from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.harness.parity import SHARD_EXEMPT_KEYS
from repro.obs.schema import validate_snapshot
from repro.obs.snapshot import (SHARD_EXEMPT_COUNTERS, SHARD_ONLY_PREFIXES,
                                shard_counter_drift)
from repro.shard.session import ShardSessionError, run_sharded
from repro.workloads.barrier import run_barrier_workload
from repro.workloads.locks import run_lock_workload

BARRIER_KW = dict(n_processors=32, episodes=2, warmup_episodes=1,
                  metrics=True)
LOCK_KW = dict(n_processors=32, acquisitions_per_cpu=2, warmup_per_cpu=1,
               metrics=True)


def _run_pair(kind, kwargs, shards):
    if kind == "barrier":
        ref = run_barrier_workload(**kwargs)
    else:
        ref = run_lock_workload(**kwargs)
    got = run_sharded(kind, kwargs, shards=shards)
    return ref, got


@pytest.mark.parametrize("kind,kwargs,shards", [
    ("barrier", BARRIER_KW, 2),
    ("barrier", BARRIER_KW, 4),
    ("lock", LOCK_KW, 2),
])
def test_merged_metrics_counter_equal_and_schema_valid(kind, kwargs,
                                                       shards):
    """The whole sharded-observability contract per workload kind:
    identical cycles, traffic and (locks) acquisition latencies; a
    schema-valid merged snapshot; counters equal modulo the exemption
    list; the same critical path; egress volume equal to ingress."""
    ref, got = _run_pair(kind, dict(kwargs, mechanism=Mechanism.AMO),
                         shards)
    # metrics attach is timing-neutral under sharding
    assert got.total_cycles == ref.total_cycles
    assert got.traffic.messages == ref.traffic.messages
    assert got.traffic.bytes == ref.traffic.bytes
    if kind == "lock":
        assert sorted(got.acquire_latency._samples) == \
            sorted(ref.acquire_latency._samples)
    assert validate_snapshot(got.metrics) == []
    assert shard_counter_drift(ref.metrics, got.metrics) == []
    assert got.metrics["critical_path"] == ref.metrics["critical_path"]
    # every exported packet is delivered exactly once
    counters = got.metrics["counters"]
    assert counters["shard.egress_messages"] == \
        counters["shard.ingress_messages"]
    assert counters["shard.egress_bytes"] == counters["shard.ingress_bytes"]


def test_exemption_list_is_exactly_enumerated():
    """The documented exemptions, nothing more: the host-side kernel
    event counter (mirroring the parity harness) and the shard-only
    telemetry prefix."""
    assert SHARD_EXEMPT_COUNTERS == frozenset({"kernel.events_dispatched"})
    assert SHARD_ONLY_PREFIXES == ("shard.",)
    assert SHARD_EXEMPT_KEYS == frozenset({"events_dispatched"})


def test_drift_helper_catches_real_drift_and_skips_exempt():
    base = {"counters": {"a": 1, "kernel.events_dispatched": 10},
            "histograms": {}}
    same = {"counters": {"a": 1, "kernel.events_dispatched": 99,
                         "shard.sync_rounds": 7},
            "histograms": {}}
    assert shard_counter_drift(base, same) == []
    drifted = {"counters": {"a": 2}, "histograms": {}}
    assert any("counters.a" in line
               for line in shard_counter_drift(base, drifted))
    missing = {"counters": {}, "histograms": {}}
    assert shard_counter_drift(base, missing) != []


def test_merged_critical_path_equals_single_process():
    """The parent recomputes the machine-wide critical path from the
    merged span timeline; per-shard analyses would mis-window episodes
    (each shard only sees its local CPUs' markers)."""
    ref, got = _run_pair("barrier",
                         dict(BARRIER_KW, mechanism=Mechanism.LLSC), 2)
    assert got.metrics["critical_path"] == ref.metrics["critical_path"]
    assert got.metrics["critical_path"]["episodes"] > 0


def test_shard_telemetry_family_present_and_consistent():
    _, got = _run_pair("barrier", dict(BARRIER_KW, mechanism=Mechanism.AMO),
                       2)
    counters = got.metrics["counters"]
    gauges = got.metrics["gauges"]
    assert counters["shard.sync_rounds"] > 0
    assert gauges["shard.shards"] == 2
    assert gauges["shard.lookahead_cycles"] > 0
    hist = got.metrics["histograms"]["shard.window_cycles"]
    assert hist["count"] > 0 and hist["min"] > 0
    # every exported packet is delivered exactly once
    assert counters["shard.egress_messages"] == \
        counters["shard.ingress_messages"]
    assert counters["shard.egress_bytes"] == counters["shard.ingress_bytes"]
    # per-shard lanes sum to the aggregate
    assert sum(counters[f"shard.s{s}.egress_messages"]
               for s in range(2)) == counters["shard.egress_messages"]


def test_sampler_composes_and_series_is_exempt():
    """``metrics_interval`` works under sharding; the merged snapshot
    drops ``series`` (per-shard samplers watch only local queues) but
    every counter still matches."""
    kwargs = dict(BARRIER_KW, mechanism=Mechanism.AMO,
                  metrics_interval=200)
    ref, got = _run_pair("barrier", kwargs, 2)
    assert "series" in ref.metrics
    assert "series" not in got.metrics
    assert got.total_cycles == ref.total_cycles
    assert shard_counter_drift(ref.metrics, got.metrics) == []
    assert validate_snapshot(got.metrics) == []


def test_remaining_unshardables_refused_even_when_falsy():
    """Regression for the presence-vs-truthiness bug: ``max_events=0``
    is falsy but still changes driver behaviour, so it must be refused
    just like a truthy value.  Explicit defaults like
    ``metrics_interval=0`` are fine."""
    base = dict(n_processors=32, mechanism=Mechanism.AMO, episodes=1,
                warmup_episodes=0)
    with pytest.raises(ShardSessionError, match="max_events"):
        run_sharded("barrier", dict(base, max_events=0), shards=2)
    with pytest.raises(ShardSessionError, match="config"):
        run_sharded("barrier",
                    dict(base, config=SystemConfig.table1(32)), shards=2)
    with pytest.raises(ShardSessionError, match="warm_cache"):
        run_sharded("barrier", dict(base, warm_cache=object()), shards=2)
    got = run_sharded("barrier", dict(base, metrics_interval=0), shards=2)
    assert got.total_cycles > 0
