"""The one measured-run path of the workload drivers.

A sweep point measures steady state: it builds a machine, simulates the
warm-up episodes, then measures.  :func:`measure` is the bracket every
driver (barrier, lock, queue lock) runs its point through: machine
acquire, observer attach, the warm-up and measured phases, the
coherence check, the critical path and the observer detach.  A driver
supplies only how to build its sync object and its per-CPU thread.

Drivers take ``pool=None`` and build a fresh machine when it is absent;
with a :class:`~repro.core.snapshot.MachinePool` the machine is rewound
to its pristine post-build checkpoint instead of reconstructed, which is
behaviourally indistinguishable (the parity suite pins this against the
golden fingerprints).  Metered and plain points take the same path; the
observers are detached when the run ends, so a pooled machine carries
nothing from one point into the next.  Repeated points are memoized by
the result cache (:mod:`repro.runner.cache`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.config.parameters import SystemConfig
from repro.core.machine import Machine
from repro.core.snapshot import MachinePool
from repro.network.stats import TrafficStats
from repro.obs import CriticalPathAnalyzer, MachineMetrics
from repro.obs.critical_path import EPISODE_SPAN
from repro.trace.recorder import TraceRecorder


@dataclass
class Measured:
    """What :func:`measure` hands back to a driver."""

    machine: Machine
    #: cycles and traffic of the measured phase only
    total_cycles: int
    traffic: TrafficStats
    #: metrics snapshot (repro.obs) when the run was metered, else None
    metrics: Optional[dict]


def point_config(n_processors: int, config: Optional[SystemConfig],
                 backend: Optional[str]) -> SystemConfig:
    """The configuration a driver's point runs on: ``config`` (default
    Table 1) at ``n_processors`` CPUs, on ``backend`` when given."""
    cfg = config or SystemConfig.table1(n_processors)
    if cfg.n_processors != n_processors:
        cfg = cfg.replace(n_processors=n_processors)
    if backend is not None:
        cfg = cfg.replace(kernel_backend=backend)
    return cfg


def _no_mark(proc, t0: int) -> None:
    pass


def measure(cfg: SystemConfig, pool: Optional[MachinePool], metrics: bool,
            metrics_interval: int, build: Callable[[Machine], Any],
            make_thread: Callable, warmup: int, count: int,
            verify: Optional[Callable[[], None]] = None) -> Measured:
    """Warm up, then measure one point's steady state.

    ``build(machine)`` returns the sync object;
    ``make_thread(sync, count, mark)`` returns the per-CPU thread that
    runs ``count`` episodes.  ``mark`` is None during the warm-up; in
    the measured phase it is ``mark(proc, t0)``, which records the
    episode ``[t0, now)`` for the critical path when the run is
    metered.  The machine comes from ``pool`` when one is given.
    ``verify`` runs after the coherence check, before any metrics are
    taken.
    """
    machine = pool.acquire(cfg) if pool is not None else Machine(cfg)
    obs = tracer = None
    try:
        if metrics:
            obs = MachineMetrics.attach(machine,
                                        sample_interval=metrics_interval)
            tracer = TraceRecorder.attach(machine, capture_messages=False)
        sync = build(machine)
        if warmup:
            machine.run_threads(make_thread(sync, warmup, None))
        if tracer is None:
            mark = _no_mark
        else:
            def mark(proc, t0: int) -> None:
                tracer.add_span(f"cpu{proc.cpu_id}", EPISODE_SPAN, t0,
                                proc.sim.now)
        start = machine.last_completion_time
        before = machine.net.stats.snapshot()
        if obs is not None and obs.sampler is not None:
            obs.sampler.start()
        machine.run_threads(make_thread(sync, count, mark))
        total = machine.last_completion_time - start
        traffic = machine.net.stats.delta_since(before)
        machine.check_coherence_invariants()
        if verify is not None:
            verify()
        snapshot = None
        if obs is not None:
            analyzer = CriticalPathAnalyzer(machine)
            obs.critical_path = analyzer.summarize(analyzer.analyze(tracer))
            snapshot = obs.snapshot()
    finally:
        if obs is not None:
            obs.detach()
        if tracer is not None:
            tracer.detach()
    return Measured(machine, total, traffic, snapshot)
