"""Correctness tests for the reader-writer ticket lock."""

import pytest

from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.machine import Machine
from repro.sync.rw_lock import RwTicketLock, UnsupportedMechanismError

SUPPORTED = [m for m in Mechanism if m is not Mechanism.MAO]


def rw_workload(machine, lock, iterations=2, cs=50):
    """Even CPUs write, odd CPUs read; records (kind, cpu, t0, t1) spans."""
    state = {"writers": 0, "readers": 0}
    spans = []

    def thread(proc):
        writer = proc.cpu_id % 2 == 0
        for _ in range(iterations):
            if writer:
                yield from lock.acquire_write(proc)
                state["writers"] += 1
                assert state["writers"] == 1 and state["readers"] == 0
                t0 = proc.sim.now
                yield from proc.delay(cs)
                spans.append(("w", proc.cpu_id, t0, proc.sim.now))
                state["writers"] -= 1
                yield from lock.release_write(proc)
            else:
                yield from lock.acquire_read(proc)
                state["readers"] += 1
                assert state["writers"] == 0
                t0 = proc.sim.now
                yield from proc.delay(cs)
                spans.append(("r", proc.cpu_id, t0, proc.sim.now))
                state["readers"] -= 1
                yield from lock.release_read(proc)
            yield from proc.delay(120)

    machine.run_threads(thread, max_events=8_000_000)
    return spans


@pytest.mark.parametrize("mech", SUPPORTED, ids=[m.value for m in SUPPORTED])
def test_exclusion_and_progress(mech):
    machine = Machine(SystemConfig.table1(8))
    lock = RwTicketLock(machine, mech)
    spans = rw_workload(machine, lock)
    assert len(spans) == 16
    assert lock.acquisitions == 16
    # writer spans overlap nothing; reader spans never overlap writers
    for i, (k1, c1, a1, b1) in enumerate(spans):
        for k2, c2, a2, b2 in spans[i + 1:]:
            overlap = a1 < b2 and a2 < b1
            if overlap:
                assert k1 == "r" and k2 == "r", (
                    f"{k1}@cpu{c1} overlaps {k2}@cpu{c2}")
    machine.check_coherence_invariants()


def test_readers_actually_share():
    """Concurrent read attempts overlap (the point of an rw lock)."""
    machine = Machine(SystemConfig.table1(8))
    lock = RwTicketLock(machine, Mechanism.ATOMIC)
    spans = []

    def thread(proc):
        yield from lock.acquire_read(proc)
        t0 = proc.sim.now
        yield from proc.delay(400)
        spans.append((t0, proc.sim.now))
        yield from lock.release_read(proc)

    machine.run_threads(thread, max_events=4_000_000)
    assert len(spans) == 8
    overlaps = sum(1 for i, (a1, b1) in enumerate(spans)
                   for a2, b2 in spans[i + 1:] if a1 < b2 and a2 < b1)
    assert overlaps > 0
    machine.check_coherence_invariants()


def test_ticket_order_is_fair():
    """Grant order follows ticket order (no barging either way)."""
    machine = Machine(SystemConfig.table1(8))
    lock = RwTicketLock(machine, Mechanism.AMO)
    admitted = []

    def thread(proc):
        yield from proc.delay(proc.cpu_id * 3000)  # dominate network skew
        if proc.cpu_id % 2 == 0:
            t = yield from lock.acquire_write(proc)
            admitted.append(t)
            yield from proc.delay(30)
            yield from lock.release_write(proc)
        else:
            t = yield from lock.acquire_read(proc)
            admitted.append(t)
            yield from proc.delay(30)
            yield from lock.release_read(proc)

    machine.run_threads(thread, max_events=4_000_000)
    assert admitted == sorted(admitted)
    machine.check_coherence_invariants()


def test_mao_refused():
    machine = Machine(SystemConfig.table1(4))
    with pytest.raises(UnsupportedMechanismError, match="MAO"):
        RwTicketLock(machine, Mechanism.MAO)


def test_release_without_hold_raises(machine4):
    lock = RwTicketLock(machine4, Mechanism.ATOMIC)

    def wthread(proc):
        yield from lock.release_write(proc)

    with pytest.raises(RuntimeError, match="does not hold"):
        machine4.run_threads(wthread, cpus=[0])

    lock2 = RwTicketLock(machine4, Mechanism.ATOMIC)

    def rthread(proc):
        yield from lock2.release_read(proc)

    with pytest.raises(RuntimeError, match="does not hold"):
        machine4.run_threads(rthread, cpus=[1])
