"""Barrier microbenchmark driver.

Runs ``episodes`` back-to-back barrier episodes on every CPU after a
warm-up episode, and reports steady-state cycles per episode, cycles per
processor (the paper's Figure 5/6 metric: episode latency divided by the
processor count), and per-episode network traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.snapshot import MachinePool
from repro.network.stats import TrafficStats
from repro.sync.barrier import CentralizedBarrier
from repro.sync.tree_barrier import CombiningTreeBarrier
from repro.workloads.warm import measure, point_config


@dataclass
class BarrierResult:
    """Steady-state measurements of one barrier configuration."""

    mechanism: Mechanism
    n_processors: int
    episodes: int
    tree_branching: Optional[int]
    total_cycles: int
    traffic: TrafficStats
    #: kernel events dispatched by the whole run (simulator-cost metric)
    events_dispatched: int = 0
    #: metrics snapshot (repro.obs) when the run was metered, else None
    metrics: Optional[dict] = None

    @property
    def cycles_per_episode(self) -> float:
        return self.total_cycles / self.episodes

    @property
    def cycles_per_processor(self) -> float:
        """The paper's Figures 5/6 metric."""
        return self.cycles_per_episode / self.n_processors

    @property
    def messages_per_episode(self) -> float:
        return self.traffic.total_messages / self.episodes

    @property
    def bytes_per_episode(self) -> float:
        return self.traffic.total_bytes / self.episodes

    def speedup_over(self, baseline: "BarrierResult") -> float:
        """Paper-style speedup: baseline time / this time."""
        return baseline.cycles_per_episode / self.cycles_per_episode


def _make_thread(barrier, count: int, mark):
    def thread(proc):
        for _ in range(count):
            t0 = proc.sim.now
            yield from barrier.wait(proc)
            if mark is not None:
                mark(proc, t0)
    return thread


def run_barrier_workload(n_processors: int, mechanism: Mechanism,
                         episodes: int = 4, warmup_episodes: int = 1,
                         tree_branching: Optional[int] = None,
                         naive: bool = False,
                         config: Optional[SystemConfig] = None,
                         home_node: int = 0,
                         metrics: bool = False,
                         metrics_interval: int = 0,
                         pool: Optional[MachinePool] = None,
                         backend: Optional[str] = None) -> BarrierResult:
    """Measure one (mechanism, P[, branching]) barrier configuration.

    ``tree_branching`` selects the two-level combining tree;
    ``naive`` forces the Figure 3(a) coding for conventional mechanisms.
    ``metrics`` additionally attaches the observability layer
    (:mod:`repro.obs`) and a tracer, returning a metrics snapshot with a
    per-episode critical-path breakdown on the result;
    ``metrics_interval`` > 0 also samples gauges on that cycle period.
    ``pool`` (a :class:`repro.core.snapshot.MachinePool`) rewinds a
    pooled machine to its pristine checkpoint instead of building one;
    the warm-up is simulated either way, with identical cycles and
    event counts (:func:`repro.workloads.warm.measure`).
    ``backend`` selects the event-kernel backend
    (:mod:`repro.sim.backends`); results are byte-identical across
    backends, so it never changes what is measured — only how fast.
    """
    cfg = point_config(n_processors, config, backend)

    def build(machine):
        if tree_branching is not None:
            return CombiningTreeBarrier(machine, mechanism,
                                        branching=tree_branching,
                                        root_home=home_node)
        return CentralizedBarrier(machine, mechanism, naive=naive,
                                  home_node=home_node)

    run = measure(cfg, pool, metrics, metrics_interval, build,
                  _make_thread, warmup_episodes, episodes)
    return BarrierResult(
        mechanism=mechanism, n_processors=n_processors, episodes=episodes,
        tree_branching=tree_branching, total_cycles=run.total_cycles,
        traffic=run.traffic,
        events_dispatched=run.machine.sim.events_dispatched,
        metrics=run.metrics)
