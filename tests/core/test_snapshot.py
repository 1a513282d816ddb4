"""Snapshot and machine-pool tests: restored machines replay exactly.

The contract under test (see :mod:`repro.core.snapshot`): a machine
restored from a checkpoint re-runs the same workload cycle-for-cycle,
event-for-event, and trace-for-trace identically to a freshly built
machine — and the coherence sanitizer finds a restored machine just as
clean as a fresh one.
"""

from __future__ import annotations

import pytest

from repro.check.sanitizer import CoherenceSanitizer
from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.machine import Machine
from repro.core.snapshot import MachinePool, SnapshotError
from repro.sync.barrier import CentralizedBarrier
from repro.sync.ticket_lock import TicketLock
from repro.trace.recorder import TraceRecorder
from repro.workloads.barrier import run_barrier_workload
from repro.workloads.locks import run_lock_workload

MECHS = list(Mechanism)
IDS = [m.value for m in MECHS]


def _barrier_threads(barrier, episodes):
    def thread(proc):
        for _ in range(episodes):
            yield from barrier.wait(proc)
    return thread


def _fingerprint(machine):
    return {
        "cycles": machine.last_completion_time,
        "events": machine.sim.events_dispatched,
        "messages": dict(machine.net.stats.messages),
        "local": dict(machine.net.stats.local_messages),
        "memory_reads": machine.backing.reads,
        "memory_writes": machine.backing.writes,
    }


# ----------------------------------------------------------------------
# round-trip identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mech", MECHS, ids=IDS)
def test_restore_replays_barrier_identically(mech):
    """Pristine-restored runs equal fresh runs for every mechanism."""
    cfg = SystemConfig.table1(32)
    fresh = Machine(cfg)
    barrier = CentralizedBarrier(fresh, mech)
    fresh.run_threads(_barrier_threads(barrier, 3))
    reference = _fingerprint(fresh)
    fresh.check_coherence_invariants()

    machine = Machine(cfg)
    machine.sim.run()  # park AMU dispatchers so the queue is drained
    snap = machine.snapshot()
    for _ in range(2):
        machine.restore(snap)
        barrier = CentralizedBarrier(machine, mech)
        machine.run_threads(_barrier_threads(barrier, 3))
        assert _fingerprint(machine) == reference
        machine.check_coherence_invariants()


@pytest.mark.parametrize("mech", [Mechanism.AMO, Mechanism.LLSC,
                                  Mechanism.MAO],
                         ids=["amo", "llsc", "mao"])
def test_restore_replays_trace_identically(mech):
    """Span/instant traces of a restored replay match the first run."""
    machine = Machine(SystemConfig.table1(32))
    tracer = TraceRecorder.attach(machine, capture_messages=True)
    machine.sim.run()
    snap = machine.snapshot()

    def traced_run():
        barrier = CentralizedBarrier(machine, mech)
        machine.run_threads(_barrier_threads(barrier, 2))
        spans = [(s.track, s.name, s.start, s.end, s.args)
                 for s in tracer.spans]
        instants = [(i.track, i.name, i.time) for i in tracer.instants]
        return spans, instants, _fingerprint(machine)

    first = traced_run()
    tracer.spans.clear()
    tracer.instants.clear()
    machine.restore(snap)
    assert traced_run() == first


@pytest.mark.parametrize("mech", MECHS, ids=IDS)
def test_warm_cache_matches_fresh_driver_runs(mech):
    """Workload drivers give identical results on a pooled machine,
    warmed up there, and on a fresh build."""
    pool = MachinePool()
    for run in (
        lambda p: run_barrier_workload(32, mech, episodes=2,
                                       warmup_episodes=1, pool=p),
        lambda p: run_lock_workload(32, mech, acquisitions_per_cpu=1,
                                    warmup_per_cpu=1, pool=p),
    ):
        fresh = run(None)
        first, replay = run(pool), run(pool)
        for got in (first, replay):
            assert got.total_cycles == fresh.total_cycles
            assert got.events_dispatched == fresh.events_dispatched
            assert got.traffic.total_messages == fresh.traffic.total_messages
            assert got.traffic.total_bytes == fresh.traffic.total_bytes
    assert len(pool) == 1  # barrier and lock share the pooled machine


def test_warm_context_replays_after_other_mechanism_ran():
    """LL/SC, then AMO, then LL/SC again on one pooled machine each
    equal a fresh build: every rewind drops the directory and spin-meta
    entries of lines the previous mechanism's run touched, which differ
    from the next run's lines."""
    def run(mech, pool):
        return _summary(run_barrier_workload(
            8, mech, episodes=2, warmup_episodes=1, pool=pool))

    fresh = {m: run(m, None) for m in (Mechanism.LLSC, Mechanism.AMO)}
    pool = MachinePool()
    for mech in (Mechanism.LLSC, Mechanism.AMO, Mechanism.LLSC):
        assert run(mech, pool) == fresh[mech], mech
    assert len(pool) == 1


def test_sanitizer_clean_on_restored_machine():
    """Arming the sanitizer on a restored machine reports no violations."""
    cfg = SystemConfig.table1(32)
    machine = Machine(cfg)
    machine.sim.run()
    snap = machine.snapshot()

    barrier = CentralizedBarrier(machine, Mechanism.AMO)
    machine.run_threads(_barrier_threads(barrier, 2))

    machine.restore(snap)
    san = CoherenceSanitizer.attach(machine, mode="raise")
    lock = TicketLock(machine, Mechanism.AMO)

    def thread(proc):
        yield from lock.acquire(proc)
        yield from proc.delay(50)
        yield from lock.release(proc)

    machine.run_threads(thread)
    san.finalize()
    assert san.ok
    san.detach()


# ----------------------------------------------------------------------
# lazily created LL/SC backoff RNGs
# ----------------------------------------------------------------------
def _rng_states(snap):
    """Per-CPU backoff RNG states held by ``snap`` (None = not created)."""
    return [state[-1] for state in snap.cpus]


def _lock_point(mech, pool):
    return run_lock_workload(16, mech, acquisitions_per_cpu=2,
                             warmup_per_cpu=1, pool=pool)


def _summary(result):
    return (result.total_cycles, result.events_dispatched,
            dict(result.traffic.messages))


def test_pristine_snapshot_holds_no_rng_state():
    pool = MachinePool()
    machine = pool.acquire(SystemConfig.table1(16))
    (_, pristine), = pool._entries.values()
    assert _rng_states(pristine) == [None] * 16
    assert all(p.controller._backoff_rng is None for p in machine.cpus)


@pytest.mark.parametrize(
    "mech", [m for m in MECHS if m is not Mechanism.LLSC],
    ids=[m.value for m in MECHS if m is not Mechanism.LLSC])
def test_non_llsc_point_snapshot_holds_no_rng_state(mech):
    pool = MachinePool()
    for point in (lambda: run_barrier_workload(16, mech, episodes=2,
                                               warmup_episodes=1, pool=pool),
                  lambda: _lock_point(mech, pool)):
        point()
        (machine, _), = pool._entries.values()
        assert _rng_states(machine.snapshot()) == [None] * 16


def test_llsc_and_amo_points_share_a_pooled_machine():
    """An LL/SC point after an AMO point, and the AMO point after the
    LL/SC one, each equal a fresh build: the pristine restore drops the
    RNGs an LL/SC run created."""
    fresh = {m: _summary(_lock_point(m, None))
             for m in (Mechanism.AMO, Mechanism.LLSC)}
    pool = MachinePool()
    for mech in (Mechanism.LLSC, Mechanism.AMO,
                 Mechanism.LLSC, Mechanism.AMO):
        assert _summary(_lock_point(mech, pool)) == fresh[mech], mech
        (machine, _), = pool._entries.values()
        rngs = [p.controller._backoff_rng for p in machine.cpus]
        if mech is Mechanism.LLSC:
            assert any(rng is not None for rng in rngs)
        else:
            assert rngs == [None] * 16
    assert len(pool) == 1


def _llsc_barrier_machine(n, backend="reference"):
    """A quiescent ``n``-CPU machine after one LL/SC barrier episode."""
    machine = Machine(SystemConfig.table1(n, kernel_backend=backend))
    barrier = CentralizedBarrier(machine, Mechanism.LLSC)
    machine.run_threads(_barrier_threads(barrier, 1))
    return machine


def _draw(machine):
    """200 backoff draws from each live RNG, over the ceilings a retry
    loop uses."""
    return {p.cpu_id: [p.controller._backoff_rng.randrange(30 << (i % 8))
                       for i in range(200)]
            for p in machine.cpus if p.controller._backoff_rng is not None}


@pytest.mark.parametrize("backend", ["reference", "accel"])
def test_restore_replays_every_backoff_stream_exactly(backend):
    machine = _llsc_barrier_machine(32, backend)
    snap = machine.snapshot()
    first = _draw(machine)
    assert len(first) > 16
    machine.restore(snap)
    assert _draw(machine) == first
    # a restore onto CPUs whose RNG is gone re-creates the same streams
    for proc in machine.cpus:
        proc.controller._backoff_rng = None
    machine.restore(snap)
    assert _draw(machine) == first


# ----------------------------------------------------------------------
# machine pool
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["reference", "accel"])
def test_pool_restore_rewinds_traffic(backend):
    """Every run on a pooled machine counts the traffic a fresh machine
    counts: restore rewinds the ``(kind, hops)`` table to the pristine
    one, and into a dict of its own that the snapshot does not share."""
    cfg = SystemConfig.table1(16, kernel_backend=backend)

    def traffic(machine):
        barrier = CentralizedBarrier(machine, Mechanism.AMO)
        machine.run_threads(_barrier_threads(barrier, 2))
        stats = machine.net.stats
        assert type(stats.counts) is dict
        return dict(stats.counts), stats.retransmits, stats.format_report()

    fresh = traffic(Machine(cfg))
    assert fresh[0]
    pool = MachinePool()
    for _ in range(3):
        assert traffic(pool.acquire(cfg)) == fresh


def test_pool_memoizes_per_config():
    pool = MachinePool()
    cfg32 = SystemConfig.table1(32)
    m1 = pool.acquire(cfg32)
    m2 = pool.acquire(cfg32)
    assert m1 is m2
    m3 = pool.acquire(SystemConfig.table1(64))
    assert m3 is not m1
    assert len(pool) == 2


def test_pool_acquire_rolls_back_address_space():
    pool = MachinePool()
    cfg = SystemConfig.table1(8)
    machine = pool.acquire(cfg)
    a = machine.alloc("warmtest.a", 0)
    machine = pool.acquire(cfg)
    b = machine.alloc("warmtest.b", 0)
    assert a.addr == b.addr  # same pristine allocation point


# ----------------------------------------------------------------------
# error contract
# ----------------------------------------------------------------------
def test_snapshot_refuses_pending_events():
    machine = Machine(SystemConfig.table1(8))
    # AMU dispatcher start events are still queued right after build
    with pytest.raises(SnapshotError, match="drained"):
        machine.snapshot()


def test_snapshot_refuses_attached_sanitizer():
    machine = Machine(SystemConfig.table1(8))
    machine.sim.run()
    san = CoherenceSanitizer.attach(machine)
    with pytest.raises(SnapshotError, match="sanitizer"):
        machine.snapshot()
    san.detach()
    machine.snapshot()


def test_restore_refuses_foreign_machine():
    cfg = SystemConfig.table1(8)
    machine, other = Machine(cfg), Machine(cfg)
    machine.sim.run()
    snap = machine.snapshot()
    with pytest.raises(ValueError, match="different machine"):
        other.restore(snap)
