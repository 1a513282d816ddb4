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
from repro.core.snapshot import MachinePool
from repro.network.stats import TrafficStats
from repro.sync.array_lock import ArrayQueueLock
from repro.sync.mcs_lock import McsLock
from repro.sync.ticket_lock import TicketLock
from repro.workloads.warm import measure, point_config

#: critical-section and think-time defaults (CPU cycles) — short critical
#: sections maximize lock-passing pressure, the regime the paper studies
DEFAULT_CS_CYCLES = 100
DEFAULT_THINK_CYCLES = 200

_LOCKS = {"ticket": TicketLock, "array": ArrayQueueLock, "mcs": McsLock}


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
    #: steady-state acquire() latencies in cycles, in completion order
    acquire_latency: Optional[list[int]] = None
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
                      pool: Optional[MachinePool] = None,
                      backend: Optional[str] = None) -> LockResult:
    """Measure one (mechanism, P, lock algorithm) configuration.

    ``metrics`` attaches the observability layer (:mod:`repro.obs`); the
    returned result then carries a metrics snapshot whose critical-path
    section attributes each acquire→release episode's latency.
    ``pool`` (a :class:`repro.core.snapshot.MachinePool`) supplies the
    machine; see the barrier driver.
    ``backend`` selects the event-kernel backend
    (:mod:`repro.sim.backends`); byte-identical results, faster loop.
    """
    lock_cls = _LOCKS.get(lock_type)
    if lock_cls is None:
        raise ValueError(f"unknown lock type {lock_type!r}")
    cfg = point_config(n_processors, config, backend)
    occupancy = {"n": 0}
    latencies: list[int] = []

    def make_thread(lock, count: int, mark):
        def thread(proc):
            for _ in range(count):
                t0 = proc.sim.now
                yield from lock.acquire(proc)
                if mark is not None:
                    latencies.append(proc.sim.now - t0)
                occupancy["n"] += 1
                assert occupancy["n"] == 1, "mutual exclusion violated"
                yield from proc.delay(cs_cycles)
                occupancy["n"] -= 1
                yield from lock.release(proc)
                if mark is not None:
                    mark(proc, t0)
                yield from proc.delay(think_cycles)
        return thread

    run = measure(cfg, pool, metrics, metrics_interval,
                  lambda machine: lock_cls(machine, mechanism,
                                           home_node=home_node),
                  make_thread, warmup_per_cpu, acquisitions_per_cpu)
    return LockResult(
        mechanism=mechanism, lock_type=lock_type,
        n_processors=n_processors,
        acquisitions=acquisitions_per_cpu * n_processors,
        total_cycles=run.total_cycles, traffic=run.traffic,
        cs_cycles=cs_cycles, think_cycles=think_cycles,
        acquire_latency=latencies,
        events_dispatched=run.machine.sim.events_dispatched,
        metrics=run.metrics)
