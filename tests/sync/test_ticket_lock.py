"""Correctness tests for the ticket lock under all five mechanisms."""

import statistics

import pytest

from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.machine import Machine
from repro.sync.ticket_lock import TicketLock
from repro.trace import TraceRecorder

ALL = list(Mechanism)


def lock_workload(machine, lock, iterations=2, cs=60):
    """Run acquire/CS/release loops; returns (cs_log, grant_order)."""
    occupancy = {"n": 0}
    cs_log = []
    order = []

    def thread(proc):
        for _ in range(iterations):
            ticket = yield from lock.acquire(proc)
            occupancy["n"] += 1
            assert occupancy["n"] == 1, "mutual exclusion violated"
            order.append(ticket)
            cs_log.append((proc.cpu_id, proc.sim.now))
            yield from proc.delay(cs)
            occupancy["n"] -= 1
            yield from lock.release(proc)
            yield from proc.delay(97)

    machine.run_threads(thread, max_events=8_000_000)
    return cs_log, order


@pytest.mark.parametrize("mech", ALL, ids=[m.value for m in ALL])
def test_mutual_exclusion_and_progress(mech):
    machine = Machine(SystemConfig.table1(8))
    lock = TicketLock(machine, mech)
    cs_log, order = lock_workload(machine, lock)
    assert len(cs_log) == 16
    assert lock.acquisitions == 16
    machine.check_coherence_invariants()


@pytest.mark.parametrize("mech", ALL, ids=[m.value for m in ALL])
def test_fifo_grant_order(mech):
    """Tickets are served strictly in issue order."""
    machine = Machine(SystemConfig.table1(8))
    lock = TicketLock(machine, mech)
    _cs, order = lock_workload(machine, lock)
    assert order == sorted(order)
    assert order == list(range(16))


def test_release_without_hold_raises(machine4):
    lock = TicketLock(machine4, Mechanism.ATOMIC)

    def thread(proc):
        yield from lock.release(proc)

    with pytest.raises(RuntimeError, match="does not hold"):
        machine4.run_threads(thread, cpus=[0])


def test_holder_tracking(machine4):
    lock = TicketLock(machine4, Mechanism.AMO)
    seen = []

    def thread(proc):
        yield from lock.acquire(proc)
        seen.append(lock.holder())
        yield from lock.release(proc)

    machine4.run_threads(thread, cpus=[2])
    assert seen == [2]
    assert lock.holder() is None


def test_proportional_backoff_variant_correct():
    machine = Machine(SystemConfig.table1(8))
    lock = TicketLock(machine, Mechanism.LLSC,
                      proportional_backoff_cycles=50)
    cs_log, order = lock_workload(machine, lock)
    assert order == list(range(16))


def test_variables_in_distinct_lines(machine4):
    from repro.mem.address import line_of
    lock = TicketLock(machine4, Mechanism.LLSC)
    assert line_of(lock.next_ticket.addr) != line_of(lock.now_serving.addr)


def test_amo_release_pushes_updates(machine4):
    from repro.network.message import MessageKind
    lock = TicketLock(machine4, Mechanism.AMO)

    def thread(proc):
        yield from lock.acquire(proc)
        yield from proc.delay(50)
        yield from lock.release(proc)

    machine4.run_threads(thread)
    # spinners were woken by word updates, not invalidations
    st = machine4.net.stats
    assert (st.messages[MessageKind.WORD_UPDATE]
            + st.local_messages[MessageKind.WORD_UPDATE]) >= 1
    assert st.messages[MessageKind.INVALIDATE] \
        + st.local_messages[MessageKind.INVALIDATE] == 0


def test_spin_time_is_fair_across_cpus():
    """A FIFO lock spreads spin time evenly: the coefficient of
    variation of per-CPU total time in ``spin_until`` stays below 1.5."""
    machine = Machine(SystemConfig.table1(8))
    tracer = TraceRecorder.attach(machine)
    lock = TicketLock(machine, Mechanism.AMO)

    def thread(proc):
        for _ in range(2):
            yield from lock.acquire(proc)
            yield from proc.delay(60)
            yield from lock.release(proc)
            yield from proc.delay(100)

    machine.run_threads(thread, max_events=4_000_000)
    totals = [tracer.total_time_in(f"cpu{cpu}", "spin_until")
              for cpu in range(8)]
    mean = statistics.mean(totals)
    assert mean > 0
    assert statistics.pstdev(totals) / mean < 1.5
