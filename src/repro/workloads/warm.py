"""Warm-start cache and the one measured-run path of the workload drivers.

A sweep point measures steady state, so every run pays for work that is
identical across repeats and across points sharing a machine shape:
building the :class:`~repro.core.machine.Machine` and simulating the
warm-up episodes.  :class:`WarmCache` removes both costs:

* a :class:`~repro.core.snapshot.MachinePool` memoizes machine
  construction per configuration;
* each distinct *(workload shape, mechanism)* keeps a **warm context** —
  the machine's post-warm-up :class:`~repro.core.snapshot.MachineSnapshot`
  plus the sync object's saved Python-level state — so a repeat restores
  the checkpoint and replays only the measured phase.

A warm-started run is cycle-for-cycle and event-count identical to a
fresh build+warm+measure of the same point; the parity suite pins this
against golden fingerprints.

:func:`measure` is the bracket every driver (barrier, lock, queue lock)
runs its point through: warm-context lookup/restore/store, pool
acquire, observer attach, the warm-up and measured phases, the
coherence check, the critical path and the observer detach.  A driver
supplies only how to build its sync object and its per-CPU thread.
Drivers take ``warm_cache=None`` and build a fresh machine only when it
is absent.  Metered runs skip the warm contexts, since metrics must
observe the warm-up too, but still take their machine from the pool and
detach their observers when the run ends.  Sync objects without
``save_state``/``load_state`` likewise run their warm-up on a pooled
machine each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from repro.config.parameters import SystemConfig
from repro.core.machine import Machine
from repro.core.snapshot import MachinePool, MachineSnapshot
from repro.network.stats import TrafficStats
from repro.obs import CriticalPathAnalyzer, MachineMetrics
from repro.obs.critical_path import EPISODE_SPAN
from repro.trace.recorder import TraceRecorder


@dataclass
class WarmContext:
    """One warmed machine checkpoint plus its sync object's state."""

    machine: Machine
    sync: Any
    snapshot: MachineSnapshot
    sync_state: dict


class WarmCache:
    """Keyed warm contexts over a shared machine pool.

    Contexts for different mechanisms on the same configuration share
    one pooled machine: each miss rewinds it to pristine, builds and
    warms its own sync object, and checkpoints; each hit rewinds to its
    own checkpoint.  Snapshots are independent data copies, so contexts
    never interfere.  A run that raises mid-simulation strands its
    machine: lookups then drop that machine's contexts as misses.
    """

    def __init__(self, pool: Optional[MachinePool] = None) -> None:
        self.pool = pool if pool is not None else MachinePool()
        self._contexts: dict[Hashable, WarmContext] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._contexts)

    def lookup(self, key: Hashable) -> Optional[WarmContext]:
        ctx = self._contexts.get(key)
        if ctx is not None and ctx.machine.sim.pending_events():
            # a failed run left its machine mid-simulation; the pool
            # replaces that machine, so every context bound to it is dead
            dead = ctx.machine
            self._contexts = {k: c for k, c in self._contexts.items()
                              if c.machine is not dead}
            ctx = None
        if ctx is None:
            self.misses += 1
        else:
            self.hits += 1
        return ctx

    def store(self, key: Hashable, machine: Machine, sync: Any,
              snapshot: MachineSnapshot, sync_state: dict) -> None:
        self._contexts[key] = WarmContext(machine, sync, snapshot,
                                          sync_state)

    def clear(self) -> None:
        self._contexts.clear()
        self.pool.clear()


@dataclass
class Measured:
    """What :func:`measure` hands back to a driver."""

    machine: Machine
    sync: Any
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


def measure(cfg: SystemConfig, key: Hashable,
            warm_cache: Optional[WarmCache], metrics: bool,
            metrics_interval: int, build: Callable[[Machine], Any],
            make_thread: Callable, warmup: int, count: int,
            verify: Optional[Callable[[], None]] = None) -> Measured:
    """Warm up, then measure one point's steady state.

    ``build(machine)`` returns the sync object;
    ``make_thread(sync, count, mark)`` returns the per-CPU thread that
    runs ``count`` episodes.  ``mark`` is None during the warm-up; in
    the measured phase it is ``mark(proc, t0)``, which records the
    episode ``[t0, now)`` for the critical path when the run is
    metered.  ``key`` names the warm context (used only when
    ``warm_cache`` is set and the run is not metered).  ``verify`` runs
    after the coherence check, before any metrics are taken.
    """
    warm = warm_cache is not None and not metrics
    ctx = warm_cache.lookup(key) if warm else None
    obs = tracer = None
    if ctx is not None:
        machine = ctx.machine
        sync = ctx.sync
        machine.restore(ctx.snapshot)
        sync.load_state(ctx.sync_state)
    else:
        machine = (warm_cache.pool.acquire(cfg) if warm_cache is not None
                   else Machine(cfg))
    try:
        if metrics:
            obs = MachineMetrics.attach(machine,
                                        sample_interval=metrics_interval)
            tracer = TraceRecorder.attach(machine, capture_messages=False)
        if ctx is None:
            sync = build(machine)
            if warmup:
                machine.run_threads(make_thread(sync, warmup, None))
            if warm and hasattr(sync, "save_state"):
                warm_cache.store(key, machine, sync, machine.snapshot(),
                                 sync.save_state())
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
    return Measured(machine, sync, total, traffic, snapshot)
