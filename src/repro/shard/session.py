"""The parent-side shard session: spawn, route, synchronize, merge.

:func:`run_sharded` runs one workload driver (``barrier`` or ``lock``)
partitioned across ``shards`` worker processes.  Every worker executes
the *same* driver (SPMD) on a full deterministic replica of the machine
but simulates only its own contiguous node block; the parent is a pure
star router that never simulates anything:

1. gather one SYNC message per worker — its next local event time, its
   buffered cross-shard egress, and whether its thread group finished;
2. route each egress entry to the shard owning its destination node;
3. compute the next global window start ``T`` = min(next event times,
   in-flight arrival times) and broadcast RUN(T, deliveries) — each
   worker then simulates ``[T, T + W)`` without further coordination;
4. when no events remain anywhere: broadcast STOP with the global
   maximum clock/completion time (so every replica's next SPMD phase
   starts from single-process-identical state), or DEADLOCK if thread
   groups are still blocked.

One round trip per window, messages exchanged only at boundaries — the
classic conservative null-message discipline, with the lookahead ``W``
coming from the minimum cross-shard hop latency
(:func:`repro.shard.plan.lookahead_window`).

Workers' results are merged by summing per-shard traffic counters and
event counts (each packet is recorded exactly once, on its sender's
shard) and concatenating latency samples in shard order; global scalars
(cycles, episode counts) are asserted identical across shards — any
mismatch means the determinism contract broke and is raised loudly.

Observability composes with sharding: when the driver runs with
``metrics`` enabled, every worker attaches its own
:class:`~repro.obs.machine.MachineMetrics` to its machine replica —
remote CPUs and hubs never execute there, so their counters stay zero
and the per-shard snapshots sum to the single-process totals
(``kernel.events_dispatched`` excepted; see
:data:`repro.obs.snapshot.SHARD_EXEMPT_COUNTERS`).  The parent merges
the snapshots via :func:`repro.obs.snapshot.merge_snapshots`, rebuilds
one machine-wide trace timeline from the shipped per-shard spans
(:meth:`repro.trace.recorder.TraceRecorder.merged`, one lane per shard
plus a parent lane of sync-round windows) and recomputes the
critical-path attribution over it — per-shard analysis would only see
local episode markers.  The parent additionally records a native
``shard.*`` telemetry family (sync rounds, window sizes, blocked wall
time, wire volumes and codec wall time) in the same registry pipeline.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter
from dataclasses import replace
from typing import Any, Optional

from repro.config.parameters import SystemConfig
from repro.network.stats import TrafficStats
from repro.shard.context import DEADLOCK, RUN, STOP, SYNC
from repro.shard.plan import PartitionPlan, ShardPlanError, lookahead_window
from repro.shard.worker import worker_main
from repro.sim.kernel import SimulationError
from repro.stats.collector import LatencyStats

#: run kinds whose drivers are SPMD-replicable (pure thread-spawning
#: drivers with no cross-CPU host-side state besides the merged stats;
#: the CNA lock keeps its cross-holder secondary-queue state in
#: simulated memory for exactly this reason)
SHARDABLE_KINDS = frozenset({"barrier", "lock", "qlock"})

#: driver kwargs that cannot cross a process boundary or require
#: single-process execution: custom configs may enable contention
#: modelling mid-flight, warm caches hold machine snapshots bound to
#: this process, and max_events is a host-side kernel budget that has
#: no global meaning across per-shard kernels
_UNSHARDABLE_KWARGS = ("config", "warm_cache", "max_events")


class ShardSessionError(SimulationError):
    """A sharded run broke its protocol or determinism contract."""


def _mp_context(name: Optional[str] = None):
    if name is not None:
        return multiprocessing.get_context(name)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_sharded(kind: str, kwargs: dict[str, Any], shards: int,
                mp_context: Optional[str] = None) -> Any:
    """Execute one driver run partitioned across ``shards`` processes.

    Returns the same result object the single-process driver returns,
    with cycle- and message-identical contents (``events_dispatched``
    excepted — it counts host-side kernel events, which legitimately
    differ when a multicast fan-out group is split across shards).

    ``metrics``/``metrics_interval`` driver kwargs compose: the merged
    result carries one machine-wide metrics snapshot, counter-equal to
    a single-process run modulo
    :data:`repro.obs.snapshot.SHARD_EXEMPT_COUNTERS`, plus the native
    ``shard.*`` telemetry family and a recomputed critical path.
    """
    if kind not in SHARDABLE_KINDS:
        raise ShardSessionError(
            f"run kind {kind!r} is not shardable (supported: "
            f"{sorted(SHARDABLE_KINDS)})")
    for bad in _UNSHARDABLE_KWARGS:
        # presence is what matters: falsy values (max_events=0, an
        # empty config) would still change driver behaviour
        if kwargs.get(bad) is not None:
            raise ShardSessionError(
                f"driver option {bad!r} is not supported under sharded "
                "execution; run single-process")
    cfg = SystemConfig.table1(kwargs["n_processors"])
    try:
        plan = PartitionPlan.contiguous(cfg.n_nodes, shards)
        plan.validate()
        window = lookahead_window(plan, cfg.network)
    except ShardPlanError as exc:
        raise ShardSessionError(str(exc)) from exc

    ctx = _mp_context(mp_context)
    conns = []
    procs = []
    try:
        for s in range(shards):
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(child_end, s, plan, window, kind, kwargs),
                name=f"repro-shard-{s}", daemon=True)
            proc.start()
            child_end.close()
            conns.append(parent_end)
            procs.append(proc)
        results, auxes, router = _route(conns, plan)
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - cleanup path
                proc.terminate()
                proc.join()
    return _merge_results(kind, results, auxes, router, cfg, window)


# ----------------------------------------------------------------------
# the star router
# ----------------------------------------------------------------------
def _route(conns: list, plan: PartitionPlan) -> tuple[list, list, dict]:
    """Relay window-boundary rounds until every worker returns a result.

    Returns ``(results, auxes, router)`` where ``auxes`` holds each
    worker's telemetry/trace payload and ``router`` the parent-side
    round accounting: ``rounds`` (sync round-trips served) and
    ``windows`` (``[start, end)`` pairs in cycles — a window ends where
    the next one starts, or at the phase's global drain point).
    """
    shards = len(conns)
    results: list = [None] * shards
    auxes: list = [None] * shards
    router: dict[str, Any] = {"rounds": 0, "windows": []}
    windows = router["windows"]
    while True:
        msgs = [conn.recv() for conn in conns]
        tags = {m[0] for m in msgs}
        if "error" in tags:
            failed = [(s, m[1]) for s, m in enumerate(msgs)
                      if m[0] == "error"]
            detail = "\n".join(f"--- shard {s} ---\n{tb}"
                               for s, tb in failed)
            raise ShardSessionError(
                f"{len(failed)} shard worker(s) failed:\n{detail}")
        if tags == {"result"}:
            for s, m in enumerate(msgs):
                results[s] = m[1]
                auxes[s] = m[2]
            return results, auxes, router
        if tags != {SYNC}:
            raise ShardSessionError(
                f"shards desynchronized: mixed round tags {sorted(tags)}")
        phases = {m[1] for m in msgs}
        if len(phases) > 1:
            raise ShardSessionError(
                f"shards desynchronized: run_threads phases {sorted(phases)}")

        # gather: next event times, in-flight arrivals, liveness
        next_t: Optional[int] = None
        all_done = True
        max_now = 0
        max_completion: Optional[int] = None
        deliveries: list[list] = [[] for _ in range(shards)]
        for _, _, local_next, egress, done, completion, now in msgs:
            if local_next is not None and (next_t is None
                                           or local_next < next_t):
                next_t = local_next
            all_done = all_done and done
            if now > max_now:
                max_now = now
            if completion is not None and (max_completion is None
                                           or completion > max_completion):
                max_completion = completion
            for entry in egress:
                # entry = (tag, arrival, src, seq, wire_msg)
                arrival = entry[1]
                if next_t is None or arrival < next_t:
                    next_t = arrival
                deliveries[plan.shard_of_node(entry[4].dst_node)]\
                    .append(entry)

        router["rounds"] += 1
        if next_t is None:
            if windows and windows[-1][1] is None:
                windows[-1][1] = max_now
            if all_done:
                for conn in conns:
                    conn.send((STOP, max_now, max_completion))
            else:
                for conn in conns:
                    conn.send((DEADLOCK, sum(1 for m in msgs if not m[4])))
        else:
            if windows and windows[-1][1] is None:
                windows[-1][1] = next_t
            windows.append([next_t, None])
            for s, conn in enumerate(conns):
                conn.send((RUN, next_t, deliveries[s]))


# ----------------------------------------------------------------------
# result merging
# ----------------------------------------------------------------------
def _merge_traffic(parts: list[TrafficStats]) -> TrafficStats:
    out = TrafficStats()
    for part in parts:
        out.messages.update(part.messages)
        out.bytes.update(part.bytes)
        out.hop_bytes.update(part.hop_bytes)
        out.local_messages.update(part.local_messages)
        out.retransmits += part.retransmits
    # drop zero-count keys Counter.update may leave behind so the merged
    # counters compare equal to a single-process run's
    for counter in (out.messages, out.bytes, out.hop_bytes,
                    out.local_messages):
        for key in [k for k, v in counter.items() if not v]:
            del counter[key]
    return out


#: per-shard telemetry keys accumulated by :class:`ShardContext`
_TELEMETRY_KEYS = ("blocked_seconds", "encode_seconds", "decode_seconds",
                   "egress_messages", "egress_bytes",
                   "ingress_messages", "ingress_bytes")


def _telemetry_registry(router: dict, auxes: list, window: int):
    """The parent's native ``shard.*`` registry: sync rounds, window
    sizes, and per-shard + aggregate wire/blocked accounting."""
    from repro.obs.registry import MetricsRegistry

    reg = MetricsRegistry()
    reg.counter("shard.sync_rounds").inc(router["rounds"])
    win_h = reg.histogram("shard.window_cycles")
    for start, end in router["windows"]:
        win_h.observe(end - start)
    reg.gauge("shard.shards").set(len(auxes))
    reg.gauge("shard.lookahead_cycles").set(window)
    totals = dict.fromkeys(_TELEMETRY_KEYS, 0)
    for s, aux in enumerate(auxes):
        tel = aux["telemetry"]
        for key in _TELEMETRY_KEYS:
            totals[key] += tel[key]
            reg.counter(f"shard.s{s}.{key}").inc(tel[key])
    for key, value in totals.items():
        reg.counter(f"shard.{key}").inc(value)
    return reg


def _merged_trace(auxes: list, router: dict):
    """One timeline from the shards' shipped spans, or None when the
    run traced nothing.  Lane 0 is the parent's sync-round windows."""
    if not any(aux.get("spans") or aux.get("instants") for aux in auxes):
        return None
    from repro.trace.recorder import Span, TraceRecorder

    sync_spans = [Span(track="sync", name="window", start=start, end=end,
                       args={"round": i})
                  for i, (start, end) in enumerate(router["windows"])]
    parts = [("parent", sync_spans, [])]
    for s, aux in enumerate(auxes):
        parts.append((f"shard{s}", aux.get("spans", []),
                      aux.get("instants", [])))
    return TraceRecorder.merged(parts)


def _merge_metrics(results: list, reg, cfg: SystemConfig, trace) -> dict:
    """One machine-wide snapshot from the per-shard snapshots.

    Counter/gauge/histogram merge is
    :func:`repro.obs.snapshot.merge_snapshots`; each shard's
    ``critical_path`` and ``series`` sections are dropped first — the
    critical path needs episode markers from *every* CPU and is
    recomputed here over the merged trace with the config's own latency
    model, while sampler series stay per-shard (each shard's sampler
    watches only its local queues; see ``docs/observability.md``).  The
    parent's ``shard.*`` telemetry registry is folded into the same
    snapshot so it exports through the one pipeline.
    """
    from repro.obs.critical_path import CriticalPathAnalyzer
    from repro.obs.snapshot import merge_snapshots

    snaps = []
    for r in results:
        if r.metrics is None:
            raise ShardSessionError(
                "shards disagree on metrics capture: some snapshots "
                "missing")
        snaps.append({k: v for k, v in r.metrics.items()
                      if k not in ("critical_path", "series")})
    merged = merge_snapshots(snaps)
    if trace is not None:
        analyzer = CriticalPathAnalyzer.from_config(cfg)
        merged["critical_path"] = analyzer.summarize(
            analyzer.analyze(trace))
    tel = reg.snapshot()
    merged["counters"].update(tel["counters"])
    merged["gauges"].update(tel["gauges"])
    merged["histograms"].update(tel["histograms"])
    return merged


def _merge_results(kind: str, results: list, auxes: list, router: dict,
                   cfg: SystemConfig, window: int) -> Any:
    base = results[0]
    if len(results) == 1:
        # degenerate plan: the worker replayed the exact single-process
        # schedule; its result (metrics included) is already global
        return base
    cycles = {r.total_cycles for r in results}
    if len(cycles) > 1:
        raise ShardSessionError(
            "shards disagree on total_cycles "
            f"({sorted(cycles)}): determinism contract violated")
    traffic = _merge_traffic([r.traffic for r in results])
    events = sum(r.events_dispatched for r in results)
    fields: dict[str, Any] = dict(traffic=traffic,
                                  events_dispatched=events)
    if getattr(base, "metrics", None) is not None:
        fields["metrics"] = _merge_metrics(
            results, _telemetry_registry(router, auxes, window), cfg,
            _merged_trace(auxes, router))
    if kind == "barrier":
        return replace(base, **fields)
    latency = LatencyStats(name=base.acquire_latency.name)
    for r in results:
        latency.extend(r.acquire_latency._samples)
    acquisitions = sum(
        len(r.acquire_latency._samples) for r in results)
    if acquisitions != base.acquisitions:
        raise ShardSessionError(
            f"sharded acquisition count {acquisitions} != expected "
            f"{base.acquisitions}: some CPU ran on no shard or twice")
    return replace(base, acquire_latency=latency, **fields)
