"""Lock microbenchmark driver.

Every CPU performs ``acquisitions_per_cpu`` acquire/critical-section/
release/think iterations against one shared lock.  Mutual exclusion is
asserted live (a Python-level occupancy check costing zero simulated
time).  Reported metrics: cycles per lock acquisition in steady state
and network traffic (Figure 7's quantity, normalized by the harness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.machine import Machine
from repro.network.stats import TrafficStats
from repro.obs import CriticalPathAnalyzer, MachineMetrics
from repro.obs.critical_path import EPISODE_SPAN
from repro.stats.collector import LatencyStats
from repro.trace.recorder import TraceRecorder
from repro.sync.array_lock import ArrayQueueLock
from repro.sync.mcs_lock import McsLock
from repro.sync.ticket_lock import TicketLock

#: critical-section and think-time defaults (CPU cycles) — short critical
#: sections maximize lock-passing pressure, the regime the paper studies
DEFAULT_CS_CYCLES = 100
DEFAULT_THINK_CYCLES = 200


@dataclass
class LockResult:
    """Steady-state measurements of one lock configuration."""

    mechanism: Mechanism
    lock_type: str
    n_processors: int
    acquisitions: int
    total_cycles: int
    traffic: TrafficStats
    cs_cycles: int
    think_cycles: int
    #: distribution of individual acquire() latencies (steady state)
    acquire_latency: Optional[LatencyStats] = None
    #: kernel events dispatched by the whole run (simulator-cost metric)
    events_dispatched: int = 0
    #: metrics snapshot (repro.obs) when the run was metered, else None
    metrics: Optional[dict] = None

    @property
    def cycles_per_acquisition(self) -> float:
        return self.total_cycles / self.acquisitions

    @property
    def bytes_per_acquisition(self) -> float:
        return self.traffic.total_bytes / self.acquisitions

    def speedup_over(self, baseline: "LockResult") -> float:
        """Paper-style speedup on the per-acquisition rate."""
        return (baseline.cycles_per_acquisition /
                self.cycles_per_acquisition)

    def traffic_relative_to(self, baseline: "LockResult") -> float:
        """Figure 7's quantity: network traffic normalized to baseline."""
        return self.bytes_per_acquisition / baseline.bytes_per_acquisition


def run_lock_workload(n_processors: int, mechanism: Mechanism,
                      lock_type: str = "ticket",
                      acquisitions_per_cpu: int = 4,
                      warmup_per_cpu: int = 1,
                      cs_cycles: int = DEFAULT_CS_CYCLES,
                      think_cycles: int = DEFAULT_THINK_CYCLES,
                      config: Optional[SystemConfig] = None,
                      home_node: int = 0,
                      metrics: bool = False,
                      metrics_interval: int = 0,
                      warm_cache=None,
                      backend: Optional[str] = None) -> LockResult:
    """Measure one (mechanism, P, lock algorithm) configuration.

    ``metrics`` attaches the observability layer (:mod:`repro.obs`); the
    returned result then carries a metrics snapshot whose critical-path
    section attributes each acquire→release episode's latency.
    ``warm_cache`` (a :class:`repro.workloads.warm.WarmCache`) amortizes
    machine construction and warm-up across calls; see the barrier
    driver.  Lock types without ``save_state`` support still share
    pooled machines but re-run their warm-up each call.
    ``backend`` selects the event-kernel backend
    (:mod:`repro.sim.backends`); byte-identical results, faster loop.
    """
    cfg = config or SystemConfig.table1(n_processors)
    if cfg.n_processors != n_processors:
        cfg = cfg.replace(n_processors=n_processors)
    if backend is not None:
        cfg = cfg.replace(kernel_backend=backend)
    warm = warm_cache is not None and not metrics
    key = ("lock", cfg, mechanism, lock_type, home_node, warmup_per_cpu,
           cs_cycles, think_cycles) if warm else None
    ctx = warm_cache.lookup(key) if warm else None
    obs = tracer = None
    if ctx is not None:
        machine = ctx.machine
        lock = ctx.sync
        machine.restore(ctx.snapshot)
        lock.load_state(ctx.sync_state)
    else:
        machine = (warm_cache.pool.acquire(cfg) if warm_cache is not None
                   else Machine(cfg))
        if metrics:
            obs = MachineMetrics.attach(machine,
                                        sample_interval=metrics_interval)
            tracer = TraceRecorder.attach(machine, capture_messages=False)
    try:
        if ctx is None:
            if lock_type == "ticket":
                lock = TicketLock(machine, mechanism, home_node=home_node)
            elif lock_type == "array":
                lock = ArrayQueueLock(machine, mechanism, home_node=home_node)
            elif lock_type == "mcs":
                lock = McsLock(machine, mechanism, home_node=home_node)
            else:
                raise ValueError(f"unknown lock type {lock_type!r}")

        occupancy = {"n": 0}
        acquire_latency = LatencyStats(name=f"{lock_type}-acquire")

        def make_thread(count: int, measured: bool):
            def thread(proc):
                for _ in range(count):
                    t0 = proc.sim.now
                    yield from lock.acquire(proc)
                    if measured:
                        acquire_latency.record(proc.sim.now - t0)
                    occupancy["n"] += 1
                    assert occupancy["n"] == 1, "mutual exclusion violated"
                    yield from proc.delay(cs_cycles)
                    occupancy["n"] -= 1
                    yield from lock.release(proc)
                    if measured and tracer is not None:
                        tracer.add_span(f"cpu{proc.cpu_id}", EPISODE_SPAN,
                                        t0, proc.sim.now)
                    yield from proc.delay(think_cycles)
            return thread

        if ctx is None:
            if warmup_per_cpu:
                machine.run_threads(make_thread(warmup_per_cpu, False))
            if warm and hasattr(lock, "save_state"):
                warm_cache.store(key, machine, lock, machine.snapshot(),
                                 lock.save_state())
        start = machine.last_completion_time
        before = machine.net.stats.snapshot()
        if obs is not None and obs.sampler is not None:
            obs.sampler.start()
        machine.run_threads(make_thread(acquisitions_per_cpu, True))
        total = machine.last_completion_time - start
        traffic = machine.net.stats.delta_since(before)
        machine.check_coherence_invariants()
        snapshot = None
        if obs is not None:
            analyzer = CriticalPathAnalyzer(machine)
            obs.critical_path = analyzer.summarize(analyzer.analyze(tracer))
            snapshot = obs.snapshot()
    finally:
        if obs is not None:
            obs.detach()
            tracer.detach()
    return LockResult(
        mechanism=mechanism, lock_type=lock_type,
        n_processors=n_processors,
        acquisitions=acquisitions_per_cpu * n_processors,
        total_cycles=total, traffic=traffic,
        cs_cycles=cs_cycles, think_cycles=think_cycles,
        acquire_latency=acquire_latency,
        events_dispatched=machine.sim.events_dispatched,
        metrics=snapshot)
