"""The hot event path is acyclic: per-event objects die by refcount.

Only machine structure may be cyclic (a hub points at its machine, the
accel network holds compiled callables bound to itself, ...).  Every
object the simulator creates per event — processes and their
generators, messages, reply signals, ack latches, egress waves, the
compiled model coroutines — must be freed by reference counting the
moment it is done, so that Python's cyclic collector never has to find
it (docs/performance.md, "Garbage-free hot path").

Each check runs 32-CPU flat-barrier and ticket-lock points for every
mechanism, and 16-CPU queue-lock points for every supported
(algorithm, mechanism) pair, with the cyclic collector off, keeps the
machines alive through a :class:`~repro.core.snapshot.MachinePool`, and
then asks the collector, under ``gc.DEBUG_SAVEALL``, what it would have
freed.

Because of this invariant, :meth:`Machine.run_threads` pauses the
collector while the threads run; the contract tests at the end pin when
it is paused and that it always comes back.
"""

from __future__ import annotations

import contextlib
import gc
import types

import pytest

from repro.coherence.protocol import AckLatch
from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.machine import Machine, _EgressWave
from repro.core.snapshot import MachinePool
from repro.network.message import Message, MessageKind
from repro.sim.backends import accel_implementation
from repro.sim.kernel import SimulationError
from repro.sim.primitives import Signal
from repro.sim.process import Process
from repro.workloads.barrier import run_barrier_workload
from repro.workloads.locks import run_lock_workload
from repro.workloads.qlocks import (QLOCK_TYPES, qlock_supported,
                                    run_qlock_workload)


def compiled_core():
    """The compiled core module, or None when accel falls back."""
    if accel_implementation() != "compiled":
        return None
    from repro.sim.backends import _accel_core
    return _accel_core


BACKENDS = [
    "reference",
    pytest.param("accel", marks=pytest.mark.skipif(
        compiled_core() is None, reason="compiled accel core not built")),
]


def per_event_types() -> tuple:
    kinds = [Process, Message, Signal, AckLatch, _EgressWave,
             types.GeneratorType]
    core = compiled_core()
    if core is not None:
        kinds.append(core.ModelCoro)
    return tuple(kinds)


def cyclic_garbage(run) -> tuple:
    """``(run(), objects only the cyclic collector would free)``.

    The collector is off while ``run`` executes, so no cycle it leaves
    behind is freed unseen; one collection under ``DEBUG_SAVEALL`` then
    lists them.  Flags and the enabled state are restored either way.
    """
    gc.collect()
    flags = gc.get_debug()
    enabled = gc.isenabled()
    gc.disable()
    try:
        kept = run()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return kept, garbage


def leaked_per_event_types(garbage) -> list[str]:
    per_event = per_event_types()
    return sorted({type(obj).__qualname__ for obj in garbage
                   if isinstance(obj, per_event)})


@pytest.mark.parametrize("backend", BACKENDS)
def test_barrier_and_lock_points_leave_no_cyclic_garbage(backend):
    def run():
        pool = MachinePool()
        for mech in Mechanism:
            run_barrier_workload(32, mech, episodes=2, warmup_episodes=1,
                                 pool=pool, backend=backend)
            run_lock_workload(32, mech, acquisitions_per_cpu=2,
                              warmup_per_cpu=1, pool=pool, backend=backend)
        return pool    # machine structure stays reachable

    pool, garbage = cyclic_garbage(run)
    assert len(pool) == 1
    leaked = leaked_per_event_types(garbage)
    assert not leaked, (
        f"per-event objects left for the cyclic collector on {backend}: "
        f"{leaked}")


QLOCK_POINTS = [(lock_type, mech) for lock_type in QLOCK_TYPES
                for mech in Mechanism if qlock_supported(lock_type, mech)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_queue_lock_points_leave_no_cyclic_garbage(backend):
    def run():
        pool = MachinePool()
        for lock_type, mech in QLOCK_POINTS:
            run_qlock_workload(16, mech, lock_type=lock_type,
                               acquisitions_per_cpu=2, warmup_per_cpu=1,
                               pool=pool, backend=backend)
        return pool

    pool, garbage = cyclic_garbage(run)
    assert len(pool) == 1
    leaked = leaked_per_event_types(garbage)
    assert not leaked, (
        f"per-event objects left for the cyclic collector on {backend}: "
        f"{leaked}")


@pytest.mark.parametrize("backend", BACKENDS)
def test_delivered_reply_drops_its_reply_to(backend):
    """The reply/signal pair is not a cycle once delivered: the fired
    signal keeps the reply as its value, the reply forgets the signal."""
    machine = Machine(SystemConfig.table1(4, kernel_backend=backend))
    sig = Signal("reply")
    reply = Message(MessageKind.DATA_S, 1, 0, addr=0, reply_to=sig)
    machine.net._deliver(reply)
    assert sig.fired and sig.value is reply
    assert reply.reply_to is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_finished_process_drops_its_resume_event(backend):
    machine = Machine(SystemConfig.table1(4, kernel_backend=backend))
    sim = machine.sim

    def body():
        yield from ()
        return 7

    def failing():
        yield from ()
        raise ValueError("boom")

    proc = sim.spawn(body())
    assert proc._rn is not None
    sim.run()
    assert proc.done and proc.result == 7 and proc._rn is None
    bad = sim.spawn(failing())
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert bad.done and bad._rn is None


# ----------------------------------------------------------------------
# run_threads pauses the collector, and always gives it back
# ----------------------------------------------------------------------
@contextlib.contextmanager
def collector(enabled: bool):
    """Run the body with the cyclic collector on or off, then put back
    whatever state it had."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


def small_machine(backend: str) -> Machine:
    return Machine(SystemConfig.table1(4, kernel_backend=backend))


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_collector_is_paused_inside_run_threads(backend, enabled):
    """Off inside every thread; afterwards, back to the caller's state."""
    machine = small_machine(backend)
    seen = []

    def thread(proc):
        yield from proc.delay(10)
        seen.append(gc.isenabled())

    with collector(enabled):
        machine.run_threads(thread)
        assert gc.isenabled() is enabled
    assert seen == [False] * machine.n_processors


def deadlocks(proc):
    yield Signal().wait()


def runs_forever(proc):
    while True:
        yield from proc.delay(1)


@pytest.mark.parametrize("thread, max_events, error", [
    (deadlocks, None, "deadlock"),
    (runs_forever, 100, "max_events=100"),
], ids=["deadlock", "max-events"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_collector_comes_back_after_a_failed_run(backend, thread,
                                                 max_events, error):
    machine = small_machine(backend)
    with collector(True):
        with pytest.raises(SimulationError, match=error):
            machine.run_threads(thread, max_events=max_events)
        assert gc.isenabled()
