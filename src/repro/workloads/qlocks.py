"""Queue-lock microbenchmark driver: MCS, CNA, and reader-writer locks.

The modern-lock companion to :mod:`repro.workloads.locks` (ROADMAP item
3): every CPU performs ``acquisitions_per_cpu`` acquire/critical-
section/release/think iterations against one shared queue lock, over
any of the paper's five mechanisms *where the lock's word discipline
can be built on it* — the support matrix is explicit
(:data:`QLOCK_SUPPORT`) and unsupported cells refuse loudly with
:class:`~repro.sync.rw_lock.UnsupportedMechanismError` instead of
simulating something unbuildable.

Beyond the live mutual-exclusion occupancy assert the ticket/array
driver has, this driver records the full grant history (queue handles
and predecessor linkage for MCS/CNA, tickets and reader/writer kinds
for the rw lock) and verifies it offline against the matching
linearizability checker (:mod:`repro.check.linearize`) on every
single-process run — the same checkers the fuzzer drives, so a schedule
that breaks FIFO order or the CNA fairness bound fails here too, not
only under fuzzing.

Results reuse :class:`~repro.workloads.locks.LockResult`, so sweeps,
caching, metrics merging, and golden fingerprints treat queue locks
exactly like the paper's locks.
"""

from __future__ import annotations

from typing import Optional

from repro.check.linearize import (
    QueueLockSpan,
    RwSpan,
    check_cna_grant_order,
    check_mcs_fifo_order,
    check_rw_exclusion,
)
from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.snapshot import MachinePool
from repro.sync.cna_lock import DEFAULT_BATCH_THRESHOLD, CnaLock
from repro.sync.mcs_lock import McsLock
from repro.sync.rw_lock import RwTicketLock, UnsupportedMechanismError
from repro.workloads.locks import (
    DEFAULT_CS_CYCLES,
    DEFAULT_THINK_CYCLES,
    LockResult,
)
from repro.workloads.warm import measure, point_config

#: queue-lock algorithms this driver runs
QLOCK_TYPES = ("mcs", "cna", "rw")

#: lock algorithm -> mechanisms it can be built over.  MCS and CNA need
#: only swap/CAS on the tail plus coherent per-CPU words, which every
#: mechanism provides.  The rw ticket lock's ``write`` turnstile word
#: straddles the atomic and coherent-spin domains, which MAO separates
#: by construction — see :mod:`repro.sync.rw_lock`.
QLOCK_SUPPORT: dict[str, frozenset] = {
    "mcs": frozenset(Mechanism),
    "cna": frozenset(Mechanism),
    "rw": frozenset(m for m in Mechanism if m is not Mechanism.MAO),
}


def qlock_supported(lock_type: str, mechanism: Mechanism) -> bool:
    """True when ``lock_type`` can be built over ``mechanism``."""
    return mechanism in QLOCK_SUPPORT[lock_type]


class QlockHistoryViolation(AssertionError):
    """The recorded grant history failed its linearizability check."""


def _check_history(lock_type: str, spans: list, threshold: int) -> None:
    if lock_type == "mcs":
        problems = check_mcs_fifo_order(spans)
    elif lock_type == "cna":
        problems = check_cna_grant_order(spans, batch_threshold=threshold)
    else:
        problems = check_rw_exclusion(spans)
    if problems:
        raise QlockHistoryViolation(
            f"{lock_type} grant history failed verification:\n  "
            + "\n  ".join(problems))


def run_qlock_workload(n_processors: int, mechanism: Mechanism,
                       lock_type: str = "mcs",
                       acquisitions_per_cpu: int = 4,
                       warmup_per_cpu: int = 1,
                       cs_cycles: int = DEFAULT_CS_CYCLES,
                       think_cycles: int = DEFAULT_THINK_CYCLES,
                       batch_threshold: int = DEFAULT_BATCH_THRESHOLD,
                       config: Optional[SystemConfig] = None,
                       home_node: int = 0,
                       metrics: bool = False,
                       metrics_interval: int = 0,
                       pool: Optional[MachinePool] = None,
                       backend: Optional[str] = None) -> LockResult:
    """Measure one (mechanism, P, queue-lock algorithm) configuration.

    Mirrors :func:`repro.workloads.locks.run_lock_workload` — same
    result type, pool, metrics, and backend semantics — plus the
    offline grant-history verification described in the module
    docstring.  ``batch_threshold`` applies to the CNA lock only.
    """
    if lock_type not in QLOCK_TYPES:
        raise ValueError(
            f"unknown queue lock type {lock_type!r}; expected one of "
            f"{QLOCK_TYPES}")
    if not qlock_supported(lock_type, mechanism):
        raise UnsupportedMechanismError(
            f"queue lock {lock_type!r} cannot be built over "
            f"{mechanism.value}: see repro.workloads.qlocks.QLOCK_SUPPORT")
    cfg = point_config(n_processors, config, backend)
    occupancy = {"n": 0, "w": 0}
    latencies: list[int] = []
    spans: list = []

    def build(machine):
        if lock_type == "mcs":
            return McsLock(machine, mechanism, home_node=home_node)
        if lock_type == "cna":
            return CnaLock(machine, mechanism, home_node=home_node,
                           batch_threshold=batch_threshold)
        return RwTicketLock(machine, mechanism, home_node=home_node)

    def make_queue_thread(lock, count: int, mark):
        def thread(proc):
            for _ in range(count):
                t0 = proc.sim.now
                handle, pred = yield from lock.acquire(proc)
                t_acq = proc.sim.now
                if mark is not None:
                    latencies.append(t_acq - t0)
                occupancy["n"] += 1
                assert occupancy["n"] == 1, "mutual exclusion violated"
                yield from proc.delay(cs_cycles)
                occupancy["n"] -= 1
                if mark is not None:
                    spans.append(QueueLockSpan(
                        cpu=proc.cpu_id,
                        node=proc.machine.node_of_cpu(proc.cpu_id),
                        handle=handle, pred=pred,
                        acquired=t_acq, released=proc.sim.now))
                yield from lock.release(proc)
                if mark is not None:
                    mark(proc, t0)
                yield from proc.delay(think_cycles)
        return thread

    def make_rw_thread(lock, count: int, mark):
        def thread(proc):
            writer = proc.cpu_id % 2 == 0
            for _ in range(count):
                t0 = proc.sim.now
                if writer:
                    ticket = yield from lock.acquire_write(proc)
                else:
                    ticket = yield from lock.acquire_read(proc)
                t_acq = proc.sim.now
                if mark is not None:
                    latencies.append(t_acq - t0)
                if writer:
                    occupancy["w"] += 1
                    assert occupancy["w"] == 1 and occupancy["n"] == 0, \
                        "rw exclusion violated"
                else:
                    occupancy["n"] += 1
                    assert occupancy["w"] == 0, "rw exclusion violated"
                yield from proc.delay(cs_cycles)
                if writer:
                    occupancy["w"] -= 1
                else:
                    occupancy["n"] -= 1
                if mark is not None:
                    spans.append(RwSpan(
                        cpu=proc.cpu_id, kind="w" if writer else "r",
                        ticket=ticket, acquired=t_acq,
                        released=proc.sim.now))
                if writer:
                    yield from lock.release_write(proc)
                else:
                    yield from lock.release_read(proc)
                if mark is not None:
                    mark(proc, t0)
                yield from proc.delay(think_cycles)
        return thread

    run = measure(cfg, pool, metrics, metrics_interval, build,
                  make_rw_thread if lock_type == "rw" else make_queue_thread,
                  warmup_per_cpu, acquisitions_per_cpu,
                  verify=lambda: _check_history(lock_type, spans,
                                                batch_threshold))
    return LockResult(
        mechanism=mechanism, lock_type=lock_type,
        n_processors=n_processors,
        acquisitions=acquisitions_per_cpu * n_processors,
        total_cycles=run.total_cycles, traffic=run.traffic,
        cs_cycles=cs_cycles, think_cycles=think_cycles,
        acquire_latency=latencies,
        events_dispatched=run.machine.sim.events_dispatched,
        metrics=run.metrics)
