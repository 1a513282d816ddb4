"""Backend-conformance suite: every registered kernel backend must
satisfy the full :class:`repro.sim.kernel.Simulator` contract.

Each test below runs once per registered backend (``reference``,
``accel``, and anything a future PR registers), covering the parts of
the contract the golden parity fingerprints exercise only indirectly:
two-tier dispatch ordering, same-cycle delivery-phase ``(src, seq)``
order, the ``max_events`` ceiling, every documented error path, and
run-twice determinism.  A second group checks the ``accel`` selection
machinery itself — the logged compiled→reference fallback, the
``REPRO_ACCEL_REQUIRE_COMPILED`` refusal, unknown-name errors — and a
12-seed fuzz smoke drives the sanitizer stack on the accel core.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys

import pytest

from repro.sim.backends import (
    BackendError,
    available_backends,
    create_simulator,
    resolve_backend_name,
)
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.primitives import (
    Acquire,
    FifoQueue,
    Gate,
    GateWait,
    QueueGet,
    Resource,
    Signal,
    Timeout,
)

BACKENDS = available_backends()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def make_sim(backend):
    return create_simulator(backend)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_has_reference_and_accel():
    assert {"reference", "accel"} <= set(BACKENDS)


def test_unknown_backend_name_refused():
    with pytest.raises(BackendError, match="unknown kernel backend"):
        resolve_backend_name("no-such-core")
    with pytest.raises(BackendError, match="no-such-core"):
        create_simulator("no-such-core")


def test_env_var_typo_refused(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "acel")
    with pytest.raises(BackendError, match="acel"):
        resolve_backend_name()


def test_backend_never_in_cache_key():
    from repro.runner.spec import RunSpec
    plain = RunSpec.barrier(n_processors=8, mechanism="amo")
    tagged = RunSpec.barrier(n_processors=8, mechanism="amo",
                             backend="accel")
    assert plain.canonical() == tagged.canonical()
    assert plain == tagged


# ---------------------------------------------------------------------------
# dispatch ordering
# ---------------------------------------------------------------------------

def test_time_order(backend):
    sim = make_sim(backend)
    out = []
    sim.schedule(30, out.append, "c")
    sim.schedule(10, out.append, "a")
    sim.schedule(20, out.append, "b")
    sim.run()
    assert out == ["a", "b", "c"]
    assert sim.now == 30


def test_same_cycle_fifo(backend):
    sim = make_sim(backend)
    out = []
    for tag in range(10):
        sim.schedule(5, out.append, tag)
    sim.run()
    assert out == list(range(10))


def test_delivery_phase_precedes_regular_bucket(backend):
    """Two-tier contract: at one cycle, ``_push_delivery`` entries fire
    before regular bucket events, regardless of insertion order."""
    sim = make_sim(backend)
    out = []
    sim.schedule(5, out.append, "regular-1")
    sim._push_delivery(5, (1, 0), (out.append, ("delivery-b",)))
    sim.schedule(5, out.append, "regular-2")
    sim._push_delivery(5, (0, 0), (out.append, ("delivery-a",)))
    sim.run()
    assert out == ["delivery-a", "delivery-b", "regular-1", "regular-2"]


def test_delivery_phase_src_seq_order(backend):
    """Same-cycle deliveries dispatch in ``(src, seq)`` key order even
    when pushed shuffled — the canonical arrival order the 512-CPU golden
    fingerprints depend on."""
    sim = make_sim(backend)
    keys = [(2, 0), (0, 1), (1, 0), (0, 0), (1, 7), (2, 3)]
    out = []
    for key in keys:
        sim._push_delivery(9, key, (out.append, (key,)))
    sim.run()
    assert out == sorted(keys)
    assert sim.now == 9


def test_zero_delay_runs_after_current_queue(backend):
    sim = make_sim(backend)
    out = []

    def first():
        out.append("first")
        sim.schedule(0, out.append, "nested")

    sim.schedule(1, first)
    sim.schedule(1, out.append, "second")
    sim.run()
    assert out == ["first", "second", "nested"]


def test_run_until_inclusive_boundary(backend):
    sim = make_sim(backend)
    out = []
    sim.schedule(10, out.append, "early")
    sim.schedule(100, out.append, "late")
    assert sim.run(until=50) == 50
    assert out == ["early"]
    assert sim.now == 50
    sim.run()
    assert out == ["early", "late"]


def test_pending_events(backend):
    sim = make_sim(backend)
    assert sim.pending_events() == 0
    sim.schedule(0, lambda: None)
    sim.schedule(7, lambda: None)
    sim._push_delivery(7, (0, 0), ((lambda: None), ()))
    assert sim.pending_events() == 3
    sim.run()
    assert sim.pending_events() == 0
    assert sim.events_dispatched == 3


# ---------------------------------------------------------------------------
# bounds and error paths
# ---------------------------------------------------------------------------

def test_max_events_allows_exactly_the_bound(backend):
    sim = make_sim(backend)
    for i in range(100):
        sim.schedule(i, lambda: None)
    sim.run(max_events=100)
    assert sim.events_dispatched == 100


def test_max_events_is_a_true_ceiling(backend):
    sim = make_sim(backend)
    ran = []
    for i in range(101):
        sim.schedule(i, ran.append, i)
    with pytest.raises(SimulationError, match="max_events=100"):
        sim.run(max_events=100)
    assert len(ran) == 100


def test_negative_delay_rejected(backend):
    sim = make_sim(backend)
    with pytest.raises(SimulationError, match="negative delay"):
        sim.schedule(-1, lambda: None)


def test_schedule_at_past_rejected(backend):
    sim = make_sim(backend)
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="cannot schedule in the past"):
        sim.schedule_at(5, lambda: None)


def test_delivery_must_be_future(backend):
    sim = make_sim(backend)
    with pytest.raises(SimulationError, match="delivery must be in the future"):
        sim._push_delivery(0, (0, 0), ((lambda: None), ()))


def test_negative_timeout_rejected(backend):
    sim = make_sim(backend)

    def bad():
        yield Timeout(-3)

    with pytest.raises(SimulationError, match="negative delay"):
        sim.run_process(bad())


def test_yielding_garbage_is_an_error(backend):
    sim = make_sim(backend)

    def bad():
        yield 12345

    with pytest.raises(SimulationError, match="non-primitive"):
        sim.run_process(bad())


def test_deadlock_detected(backend):
    sim = make_sim(backend)

    def blocked():
        yield Signal().wait()

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(blocked())


def test_run_not_reentrant(backend):
    sim = make_sim(backend)
    sim.schedule(1, sim.run)
    with pytest.raises(SimulationError, match="not reentrant"):
        sim.run()


def test_process_exception_propagates(backend):
    sim = make_sim(backend)

    def boom():
        yield Timeout(1)
        raise ValueError("kaboom")

    with pytest.raises(ValueError, match="kaboom"):
        sim.run_process(boom())


def test_exception_runs_inner_finally(backend):
    """An exception thrown through a yielded sub-coroutine must unwind
    the caller's try/finally, exactly like ``yield from``."""
    sim = make_sim(backend)
    cleaned = []

    def inner():
        yield Timeout(1)
        raise RuntimeError("inner failed")

    def outer():
        try:
            yield inner()
        finally:
            cleaned.append(sim.now)

    with pytest.raises(RuntimeError, match="inner failed"):
        sim.run_process(outer())
    assert cleaned == [1]


def test_deliver_of_a_bogus_kind_raises_the_same_error(backend):
    """A message whose kind has no ``is_reply`` is an error on delivery,
    the same one on every backend.  The compiled ``_deliver`` raises it
    itself rather than treating it as a precondition miss and handing
    the message to its Python twin."""
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine
    from repro.network.message import Message, MessageKind
    from repro.sim.backends.model import model_core

    machine = Machine(SystemConfig.table1(4, kernel_backend=backend))
    sig = Signal("reply")
    msg = Message(MessageKind.DATA_S, 1, 0, addr=0, reply_to=sig)
    msg.kind = "bogus"
    with pytest.raises(AttributeError, match="'str' object has no "
                                             "attribute 'is_reply'") as err:
        machine.net._deliver(msg)
    assert msg.reply_to is sig and not sig.fired
    if backend == "accel" and model_core() is not None:
        # no Python frame of Network._deliver: the C path raised
        assert all(entry.name != "_deliver" for entry in err.traceback)


def _fail_first_read(net, name):
    """Make the first read of ``net.<name>`` raise; later reads succeed,
    so a fallback that re-reads the attribute would hide the error."""
    value = getattr(net, name)
    reads = []

    def read_once_fails(self):
        reads.append(name)
        if len(reads) == 1:
            raise RuntimeError(f"{name} read failed")
        return value

    # a class-level property shadows the instance attribute
    net.__class__ = type("FlakyNetwork", (type(net),),
                         {name: property(read_once_fails)})


#: fabric attributes ``Network.__init__`` always sets and ``send`` reads
SEND_ATTRIBUTES = ("config", "delay_injector", "reorder_injector",
                   "_send_hooks", "stats", "_route_cache", "_inj_seq",
                   "_deliver", "sim")


@pytest.mark.parametrize("name", SEND_ATTRIBUTES)
def test_send_surfaces_a_failed_attribute_read(backend, name):
    """A read of a fabric attribute that raises is an error on send, the
    same one on every backend.  The compiled ``send`` propagates it
    rather than treating it as a precondition miss: handing the message
    to its Python twin would re-read the attribute, succeed, and hide
    the error."""
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine
    from repro.network.message import Message, MessageKind
    from repro.sim.backends.model import model_core

    machine = Machine(SystemConfig.table1(4, kernel_backend=backend))
    net = machine.net
    net._route(0, 1)                  # warm: no cold-route fallback
    _fail_first_read(net, name)
    msg = Message(MessageKind.GET_S, 0, 1, addr=0)
    with pytest.raises(RuntimeError, match=f"{name} read failed") as err:
        net.send(msg)
    if backend == "accel" and model_core() is not None:
        # no Python frame of Network.send: the C path raised
        assert all(entry.name not in ("send", "_route")
                   for entry in err.traceback)


#: the traffic table ``TrafficStats`` always sets and every ``send``
#: updates, and the per-kind counters derived from it
SEND_STATS_ATTRIBUTES = ("counts", "messages", "bytes", "hop_bytes",
                         "hop_counts")


@pytest.mark.parametrize("name", SEND_STATS_ATTRIBUTES)
def test_send_surfaces_a_failed_stats_read(backend, name):
    """The traffic table missing from ``net.stats`` is an error on a
    remote send, the same one on every backend, and the failed send
    counts nothing: once the table is put back, the counter ``name``
    reads as it did before.  The compiled ``send`` raises the error
    itself instead of handing the message to its Python twin.  (The
    table is deleted rather than made flaky: a ``TrafficStats``
    subclass would be a precondition miss of its own.)"""
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine
    from repro.network.message import Message, MessageKind
    from repro.sim.backends.model import model_core

    machine = Machine(SystemConfig.table1(4, kernel_backend=backend))
    net = machine.net
    net._route(0, 1)                  # warm: no cold-route fallback
    stats = net.stats
    net.send(Message(MessageKind.GET_S, 0, 1, addr=0))
    assert stats.hop_counts           # the send was remote
    before = dict(getattr(stats, name))
    table = stats.counts
    delattr(stats, "counts")
    msg = Message(MessageKind.GET_S, 0, 1, addr=0)
    with pytest.raises(AttributeError, match="attribute 'counts'") as err:
        net.send(msg)
    if backend == "accel" and model_core() is not None:
        # no Python frame of Network.send or TrafficStats.record
        assert all(entry.name not in ("send", "_route", "record")
                   for entry in err.traceback)
    stats.counts = table
    assert dict(getattr(stats, name)) == before


@pytest.mark.parametrize("path, name", [("reply", "sim"),
                                        ("request", "_handlers")])
def test_deliver_surfaces_a_failed_attribute_read(backend, path, name):
    """``_deliver`` reads ``sim`` to fire a reply and ``_handlers`` to
    route a request.  A failed read there is an error, the same one on
    every backend; the compiled ``_deliver`` must not fall back to its
    Python twin, which would re-read the attribute and succeed."""
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine
    from repro.network.message import Message, MessageKind
    from repro.sim.backends.model import model_core

    machine = Machine(SystemConfig.table1(4, kernel_backend=backend))
    net = machine.net
    sig = Signal("reply")
    if path == "reply":
        msg = Message(MessageKind.DATA_S, 1, 0, addr=0, reply_to=sig)
    else:
        msg = Message(MessageKind.GET_S, 1, 0, addr=0, requester=1)
    pending = machine.sim.pending_events()
    _fail_first_read(net, name)
    with pytest.raises(RuntimeError, match=f"{name} read failed") as err:
        net._deliver(msg)
    assert not sig.fired and machine.sim.pending_events() == pending
    if backend == "accel" and model_core() is not None:
        # no Python frame of Network._deliver: the C path raised
        assert all(entry.name != "_deliver" for entry in err.traceback)


class _InjectedSendError(RuntimeError):
    """Raised by the test's ``net.send`` wrapper."""


def _barrier_with_failing_send(backend, n):
    """Run an 8-CPU LL/SC barrier whose ``n``-th ``net.send`` raises;
    return the error text and the cycle it surfaced at."""
    from repro.config.mechanism import Mechanism
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine
    from repro.sync.barrier import CentralizedBarrier

    machine = Machine(SystemConfig.table1(8, kernel_backend=backend))
    barrier = CentralizedBarrier(machine, Mechanism.LLSC)
    send = machine.net.send
    calls = []

    def failing_send(msg):
        calls.append(msg)
        if len(calls) == n:
            raise _InjectedSendError(f"send {n} failed")
        return send(msg)

    # the compiled egress coroutine fetches ``net.send`` generically, so
    # an instance attribute reaches it as it reaches the Python coding
    machine.net.send = failing_send

    def thread(proc):
        for _ in range(2):
            yield from barrier.wait(proc)

    with pytest.raises(_InjectedSendError) as err:
        machine.run_threads(thread)
    assert len(calls) == n
    got = str(err.value), machine.sim.now
    # the coroutines left suspended die with the machine, in reference
    # cycles: their pending finally blocks must run on intact objects
    del machine, barrier, send, calls, failing_send, thread, err
    gc.collect()
    return got


@pytest.mark.parametrize("n", [1, 40, 150])
def test_send_callback_error_surfaces_from_compiled_coroutine(
        backend, n, monkeypatch):
    """A Python callback that raises inside a compiled coroutine (here
    ``net.send`` under ``Hub.egress_send``) surfaces from
    ``run_threads`` as the same exception, at the same simulated cycle,
    on every backend, and the abandoned coroutines finalize cleanly."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    got = _barrier_with_failing_send(backend, n)
    assert got == _barrier_with_failing_send("reference", n)
    assert got[0] == f"send {n} failed"
    assert not unraisable


class _InjectedCallbackError(RuntimeError):
    """Raised by a test's wrapper around a model callback."""


#: phase length of the load/store run below, in cycles
_PHASE = 20_000


def _loads_and_stores_with_failing_callback(backend, cls, name, counted, n):
    """Run 8 CPUs that load every 32-byte piece of four lines, then see
    CPU 0 and later CPU 1 store to each line, while the ``n``-th call to
    ``cls.name`` for which ``counted(self, *args)`` holds raises.
    Return the error text and the cycle it surfaced at.

    The phases are separated in time, so a load of a line's second
    piece always hits the line its first piece brought into L2, and
    every invalidation lands on a CPU that holds the line."""
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine

    machine = Machine(SystemConfig.table1(8, kernel_backend=backend))
    lb = machine.config.l2.line_bytes
    lines = []
    for i in range(4):
        var = machine.alloc(f"conformance.line{i}",
                            home_node=i % machine.config.n_nodes,
                            words=lb // 8)
        lines.append(var.addr - var.addr % lb)

    def thread(proc):
        for writer in (0, 1):
            for line in lines:
                for off in range(0, lb, 32):
                    yield from proc.load(line + off)
            end = (2 * writer + 1) * _PHASE
            assert proc.sim.now < end
            yield from proc.delay(end - proc.sim.now)
            if proc.cpu_id == writer:
                for line in lines:
                    yield from proc.store(line, writer + 1)
            end += _PHASE
            assert proc.sim.now < end
            yield from proc.delay(end - proc.sim.now)

    calls = []
    original = getattr(cls, name)

    def failing(self, *args):
        if counted(self, *args):
            calls.append(args)
            if len(calls) == n:
                raise _InjectedCallbackError(f"{name} call {n} failed")
        return original(self, *args)

    # patched on the class: the model classes are slotted, and the
    # compiled ports look the method up generically on each call
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cls, name, failing)
        with pytest.raises(_InjectedCallbackError) as err:
            machine.run_threads(thread)
    assert len(calls) == n
    got = str(err.value), machine.sim.now
    del machine, thread, calls, failing, err
    gc.collect()
    return got


def _l2_hit_fill(ctrl, addr, value):
    # the first piece of each line misses both levels; the others hit L2
    return addr % ctrl.config.l2.line_bytes != 0


def _invalidated_line_without_meta(ctrl, addr):
    # the compiled invalidation updates an existing line meta itself and
    # calls back only to create one; a store keeps its line resident
    from repro.mem.address import line_base
    return line_base(addr) not in ctrl._meta and ctrl.l2.probe(addr) is None


def _every_call(*args):
    return True


def _callback(which):
    from repro.coherence.client import CacheController
    from repro.mem.backing import BackingStore
    return {
        "load_fill_l1": (CacheController, "_fill_l1", _l2_hit_fill),
        "invalidate_line_changed": (CacheController, "_line_changed",
                                    _invalidated_line_without_meta),
        "get_s_read_line": (BackingStore, "read_line", _every_call),
    }[which]


@pytest.mark.parametrize("which,n", [
    ("load_fill_l1", 1), ("load_fill_l1", 50), ("load_fill_l1", 192),
    ("invalidate_line_changed", 1), ("invalidate_line_changed", 9),
    ("invalidate_line_changed", 28),
    ("get_s_read_line", 1), ("get_s_read_line", 20),
    ("get_s_read_line", 64),
])
def test_model_callback_error_surfaces_from_compiled_port(
        backend, which, n, monkeypatch):
    """A Python callback that raises inside the compiled ``load`` (its
    L1 fill on an L2 hit), ``_do_invalidate`` (its line-meta update) or
    GET_S clean-read chain (its backing-store line read) surfaces from
    ``run_threads`` as the same exception, at the same simulated cycle,
    on every backend, and the abandoned coroutines finalize cleanly."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    cls, name, counted = _callback(which)
    got = _loads_and_stores_with_failing_callback(backend, cls, name,
                                                  counted, n)
    assert got == _loads_and_stores_with_failing_callback(
        "reference", cls, name, counted, n)
    assert got[0] == f"{name} call {n} failed"
    assert not unraisable


# ---------------------------------------------------------------------------
# determinism and cross-backend equivalence
# ---------------------------------------------------------------------------

def _primitive_gauntlet(sim):
    """One scenario touching every waitable primitive, both the blocked
    and the fire-immediately paths.  Returns a fully ordered tuple."""

    def worker(res, q, out, i):
        yield Acquire(res)
        yield Timeout(2)
        res.release()
        q.put(sim, i)
        out.append((sim.now, i))
        yield Timeout(0)

    def main():
        res = Resource("r")
        q = FifoQueue("q")
        sig = Signal("s")
        gate = Gate("g")
        pre_sig = Signal("pre")
        pre_sig.fire(sim, "early")
        pre_gate = Gate("pg")
        pre_gate.release(sim, "open")
        out = []
        procs = [sim.spawn(worker(res, q, out, i), name=f"w{i}")
                 for i in range(4)]

        def collector():
            got = []
            for _ in range(4):
                got.append((yield QueueGet(q)))
            gate.release(sim, tuple(got))
            sig.fire(sim, "done")
            return got

        coll = sim.spawn(collector())
        a = yield pre_sig                # already fired
        b = yield GateWait(pre_gate)     # already open
        v = yield sig                    # blocks
        gv = yield GateWait(gate)        # opened while running
        joined = []
        for p in procs:
            joined.append((yield p.join()))
        got = yield coll.join()          # already done
        return (sim.now, a, b, v, gv, tuple(got), tuple(out),
                res.grants, q.puts)

    result = sim.run_process(main())
    return result, sim.events_dispatched, sim.now


def test_run_twice_determinism(backend):
    first = _primitive_gauntlet(make_sim(backend))
    second = _primitive_gauntlet(make_sim(backend))
    assert first == second


def test_primitives_match_reference(backend):
    got = _primitive_gauntlet(make_sim(backend))
    want = _primitive_gauntlet(Simulator())
    assert got == want


# ---------------------------------------------------------------------------
# the typed trampoline: exact hot primitives armed inline
# ---------------------------------------------------------------------------
# Both trampolines arm some exact primitive types without calling their
# ``_arm`` (the reference kernel Timeout and Acquire; the compiled one
# also Signal and GateWait); any subclass takes the generic ``cmd._arm``
# path.  Each case below runs once with the exact types
# and once with a trivial subclass of each, and the two runs must agree
# on dispatch order, ``now``, ``events_dispatched`` and any error.

class _GenericTimeout(Timeout):
    __slots__ = ()


class _GenericAcquire(Acquire):
    __slots__ = ()


class _GenericSignal(Signal):
    __slots__ = ()


class _GenericGateWait(GateWait):
    __slots__ = ()


_EXACT = {"timeout": Timeout, "acquire": Acquire, "signal": Signal,
          "gate_wait": GateWait}
_GENERIC = {"timeout": _GenericTimeout, "acquire": _GenericAcquire,
            "signal": _GenericSignal, "gate_wait": _GenericGateWait}


def _ticker(sim, log, n):
    """A control process logging each cycle, to pin the interleaving."""
    for _ in range(n):
        log.append(("tick", sim.now))
        yield Timeout(1)


def _case_timeout(delays_a, delays_b):
    def case(sim, k, log):
        def proc(name, delays):
            for d in delays:
                log.append((name, sim.now, d))
                yield k["timeout"](d)
            log.append((name, sim.now, "done"))

        sim.spawn(proc("a", delays_a))
        sim.spawn(proc("b", delays_b))
        sim.spawn(_ticker(sim, log, 4))
        sim.schedule(8, log.append, ("callback", 8))
        return None
    return case


def _case_acquire(busy):
    def case(sim, k, log):
        res = Resource("r")

        def proc(name, hold):
            yield k["acquire"](res)
            log.append((name, sim.now, res.grants, res.queue_length))
            yield Timeout(hold)
            res.release()

        if busy:
            for i, name in enumerate("abc"):
                sim.spawn(proc(name, 4 - i))
        else:
            sim.spawn(proc("a", 2))
            sim.schedule(5, lambda: sim.spawn(proc("b", 1)))
        sim.spawn(_ticker(sim, log, 3))
        return lambda: (res.grants, res.busy_cycles, res.busy)
    return case


def _case_signal(fired):
    def case(sim, k, log):
        sig = k["signal"]("s")
        if fired:
            sig.fire(sim, "early")
        else:
            sim.schedule(6, sig.fire, sim, "late")

        def waiter(name):
            value = yield sig
            log.append((name, sim.now, value))

        sim.spawn(waiter("a"))
        sim.spawn(_ticker(sim, log, 2))
        sim.spawn(waiter("b"))
        return None
    return case


def _case_gate(is_open):
    def case(sim, k, log):
        gate = Gate("g")
        if is_open:
            gate.release(sim, "open")
        else:
            sim.schedule(4, gate.pulse, sim, "pulsed")
            sim.schedule(9, gate.release, sim, "released")

        def waiter(name, rounds):
            for _ in range(rounds):
                value = yield k["gate_wait"](gate)
                log.append((name, sim.now, value))

        sim.spawn(waiter("a", 2))
        sim.spawn(_ticker(sim, log, 2))
        sim.spawn(waiter("b", 1))
        return None
    return case


_TRAMPOLINE_CASES = {
    "timeout_zero": _case_timeout((0, 0, 0), (0, 1, 0)),
    "timeout_positive": _case_timeout((5, 3, 7), (8, 7)),
    "timeout_negative": _case_timeout((4, -2, 3), (1,)),
    "acquire_free": _case_acquire(busy=False),
    "acquire_busy": _case_acquire(busy=True),
    "signal_fired": _case_signal(fired=True),
    "signal_unfired": _case_signal(fired=False),
    "gate_wait_open": _case_gate(is_open=True),
    "gate_wait_closed": _case_gate(is_open=False),
}


def _run_trampoline_case(backend, name, kinds):
    sim = make_sim(backend)
    log = []
    state = _TRAMPOLINE_CASES[name](sim, kinds, log)
    try:
        sim.run()
        error = None
    except SimulationError as err:
        error = str(err)
    return (log, sim.now, sim.events_dispatched, error,
            state() if state is not None else None)


@pytest.mark.parametrize("name", sorted(_TRAMPOLINE_CASES))
def test_trampoline_inline_arm_matches_generic_arm(backend, name,
                                                   monkeypatch):
    armed = []
    for cls in _EXACT.values():
        def arm(self, sim, proc, _orig=cls._arm):
            armed.append(type(self).__name__)
            return _orig(self, sim, proc)
        monkeypatch.setattr(cls, "_arm", arm)
    want = _run_trampoline_case("reference", name, _GENERIC)
    generic = _run_trampoline_case(backend, name, _GENERIC)
    assert armed and all(n.startswith("_Generic") for n in armed)
    del armed[:]
    inline = _run_trampoline_case(backend, name, _EXACT)
    # the exact types a trampoline inlines never reach ``_arm``
    if type(make_sim(backend)) is Simulator:
        assert set(armed) <= {"Signal", "GateWait"}
    else:
        assert armed == []
    assert generic == want
    assert inline == want
    if name == "timeout_negative":
        assert inline[3] == "negative delay -2"


def test_trampoline_yield_signal_directly(backend):
    """A Signal is its own wait primitive: ``sig.wait()`` returns the
    signal, and ``yield sig`` resumes with the fired value, at once when
    it has fired already."""
    sim = make_sim(backend)
    sig = Signal("s")
    assert sig.wait() is sig

    def firer():
        yield Timeout(3)
        sig.fire(sim, "x")

    def waiter():
        value = yield sig
        return sim.now, value

    sim.spawn(firer())
    assert sim.run_process(waiter()) == (3, "x")
    assert sim.run_process(waiter()) == (3, "x")


# ---------------------------------------------------------------------------
# the run loop drives resumes inline
# ---------------------------------------------------------------------------
# Both run loops recognize a resume event by the identity of its
# callable, ``sim._resume``, and step the process in place instead of
# calling it.  A resume must still count, fail and carry its value
# exactly as a dispatched callback would.

def test_resume_marker_is_one_stable_object(backend):
    sim = make_sim(backend)
    assert sim._resume is sim._resume

    def idle():
        yield Timeout(1)

    proc = sim.spawn(idle())
    assert proc._rn[0] is sim._resume
    sim.run()


def _ticking_process(sim, n):
    def ticker():
        for _ in range(n):
            yield Timeout(0)
    return sim.spawn(ticker(), "ticker")


def test_max_events_counts_process_resumes(backend):
    sim = make_sim(backend)
    _ticking_process(sim, 10)          # 11 resumes: start + 10 ticks
    sim.schedule(0, lambda: None)
    sim.run(max_events=12)
    assert sim.events_dispatched == 12

    sim = make_sim(backend)
    proc = _ticking_process(sim, 10)
    sim.schedule(0, lambda: None)
    with pytest.raises(SimulationError, match="max_events=7"):
        sim.run(max_events=7)
    assert sim.events_dispatched == 7
    assert not proc.done


def test_failing_process_counts_and_time(backend):
    """A resume whose process raises is not counted, like a callback
    that raises; the process is done, failed, and drops its resume
    event."""
    sim = make_sim(backend)
    sim.schedule(3, lambda: None)

    def boom():
        yield Timeout(5)
        raise ValueError("kaboom")

    proc = sim.spawn(boom(), "boom")
    with pytest.raises(ValueError, match="kaboom"):
        sim.run()
    assert (sim.now, sim.events_dispatched) == (5, 2)
    assert proc.done and isinstance(proc.error, ValueError)
    assert proc._rn is None
    assert proc not in sim.active_processes


def test_scheduled_resume_delivers_its_value(backend):
    """A resume queued by hand through ``schedule`` takes the inline
    path too and resumes the process with the scheduled value."""
    sim = make_sim(backend)
    got = []

    def parked():
        got.append((yield Signal("never")))   # nothing fires it
        got.append((yield Signal("never")))
        return sim.now

    proc = sim.spawn(parked(), "parked")
    sim.run()
    sim.schedule(0, sim._resume, proc, "v")
    sim.run()
    assert got == ["v"] and not proc.done
    sim.schedule(4, sim._resume, proc, 7)
    sim.run()
    assert got == ["v", 7]
    assert proc.done and proc.result == 4
    assert sim.events_dispatched == 3


def test_workload_results_identical_across_backends(backend):
    """End-to-end: one barrier workload cell produces byte-identical
    cycles and event counts on every backend."""
    from repro.config.mechanism import Mechanism
    from repro.workloads.barrier import run_barrier_workload

    res = run_barrier_workload(16, Mechanism.LLSC, episodes=2,
                               backend=backend)
    ref = run_barrier_workload(16, Mechanism.LLSC, episodes=2,
                               backend="reference")
    assert (res.cycles_per_episode, res.events_dispatched) == \
        (ref.cycles_per_episode, ref.events_dispatched)


@pytest.mark.parametrize("lock_type,mech", [("mcs", "amo"), ("cna", "llsc"),
                                            ("rw", "atomic")],
                         ids=["mcs-amo", "cna-llsc", "rw-atomic"])
def test_qlock_results_identical_across_backends(backend, lock_type, mech):
    """Queue-lock workloads (spin_until wake-ups, CAS retry loops, CNA
    secondary-queue scans) on every backend vs reference, including the
    offline grant-history verification which runs in both."""
    from repro.config.mechanism import Mechanism
    from repro.workloads.qlocks import run_qlock_workload

    kw = dict(lock_type=lock_type, acquisitions_per_cpu=2, warmup_per_cpu=1)
    res = run_qlock_workload(16, Mechanism(mech), backend=backend, **kw)
    ref = run_qlock_workload(16, Mechanism(mech), backend="reference", **kw)
    assert (res.total_cycles, res.events_dispatched) == \
        (ref.total_cycles, ref.events_dispatched)
    assert res.traffic.messages == ref.traffic.messages


# ---------------------------------------------------------------------------
# accel selection machinery
# ---------------------------------------------------------------------------

#: prepended to every selection-machinery subprocess: a host without a
#: C compiler, i.e. the compiled core cannot be imported
_MASK_COMPILED = ('import sys\n'
                  'sys.modules["repro.sim.backends._accel_core"] = None\n')

_FALLBACK_SNIPPET = _MASK_COMPILED + """\
import logging
logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
from repro.config.mechanism import Mechanism
from repro.harness.parity import barrier_fingerprint
from repro.sim.backends import accel_implementation, create_simulator
from repro.sim.kernel import Simulator
from repro.sim.primitives import Timeout
impl = accel_implementation()
sim = create_simulator("accel")
assert type(sim) is Simulator, type(sim)
def p():
    yield Timeout(3)
    return 11
assert sim.run_process(p()) == 11 and sim.now == 3
fps = [barrier_fingerprint(Mechanism.AMO, 32, backend=b)
       for b in ("reference", "accel")]
assert fps[0] == fps[1], fps
print("impl:", impl)
"""


def _run_subprocess(code, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_ACCEL_REQUIRE_COMPILED", None)
    env.update(extra_env or {})
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env,
                          cwd=os.path.dirname(os.path.dirname(
                              os.path.dirname(os.path.abspath(__file__)))))


def test_accel_python_fallback_is_logged():
    """Without the compiled core the accel backend must still work —
    on the reference kernel itself, with a logged warning — and land on
    the reference fingerprint."""
    out = _run_subprocess(_FALLBACK_SNIPPET)
    assert out.returncode == 0, out.stderr
    assert "impl: python" in out.stdout
    assert "falling back to the reference kernel" in out.stderr


def test_accel_require_compiled_refuses_fallback():
    code = _MASK_COMPILED + (
        "from repro.sim.backends import accel_implementation, "
        "BackendError\n"
        "try:\n"
        "    accel_implementation()\n"
        "except BackendError as err:\n"
        "    print('refused:', err)\n"
        "else:\n"
        "    raise SystemExit('fallback was not refused')\n")
    out = _run_subprocess(code, {"REPRO_ACCEL_REQUIRE_COMPILED": "1"})
    assert out.returncode == 0, out.stderr
    assert "refused:" in out.stdout


# ---------------------------------------------------------------------------
# ported-handler message-trace equality (model-layer port)
# ---------------------------------------------------------------------------
#
# The accel backend compiles whole protocol handlers (egress sends and
# wave construction, the cache-client load/invalidate chain, the GET_S
# clean-read path and its DATA_S read-fill).  Golden parity pins
# aggregate counts; these tests pin the *full message trace* — every
# packet's kind, source and destination node, hop count, address,
# requester, size, and send cycle — for one scenario per ported
# handler, reference vs accel.

def _scenario_get_s_clean(machine):
    """Clean-read GET_S fan: every CPU misses on an unowned line
    (compiled CORO_GETS + CORO_RF read-fill on accel)."""
    var = machine.alloc("v", home_node=1)
    machine.poke(var.addr, 1234)

    def thread(proc):
        return (yield from proc.load(var.addr))

    machine.run_threads(thread, max_events=2_000_000)


def _scenario_get_s_owned(machine):
    """3-hop GET_S: reads of a dirty remote line go through the
    intervention tail (`_get_s_owned` stays Python on both backends)."""
    var = machine.alloc("v", home_node=0)

    def writer(proc):
        yield from proc.store(var.addr, 99)

    machine.run_threads(writer, cpus=[3], max_events=2_000_000)

    def reader(proc):
        return (yield from proc.load(var.addr))

    machine.run_threads(reader, cpus=[0, 1, 2], max_events=2_000_000)


def _scenario_get_x_release_wave(machine):
    """Upgrade of a widely shared line: one GET_X triggers a full
    invalidation wave (its messages built by the compiled ``build_wave``
    on accel) and the INV_ACK collection."""
    var = machine.alloc("v", home_node=1)

    def reader(proc):
        return (yield from proc.load(var.addr))

    machine.run_threads(reader, max_events=2_000_000)

    def writer(proc):
        yield from proc.store(var.addr, 5)

    machine.run_threads(writer, cpus=[0], max_events=2_000_000)


def _scenario_writeback(machine):
    """Dirty-line conflict evictions: WRITEBACK/WRITEBACK_ACK traffic
    (the tiny L2 below forces them) plus re-reads of evicted lines."""
    hot = machine.alloc("hot", home_node=1)
    fillers = [machine.alloc(f"f{i}", home_node=1) for i in range(8)]

    # single writer: a concurrent second store would demote the dirty
    # line via intervention and the eviction would be silent
    def thread(proc):
        yield from proc.store(hot.addr, 4242)
        for f in fillers:
            yield from proc.load(f.addr)
        return (yield from proc.load(hot.addr))

    machine.run_threads(thread, cpus=[0], max_events=2_000_000)


def _scenario_word_update(machine):
    """AMO with the put mechanism: the home AMU pushes WORD_UPDATEs into
    sharer caches (compiled word-update delivery chain on accel)."""
    var = machine.alloc("ctr", home_node=1)

    def reader(proc):
        return (yield from proc.load(var.addr))

    machine.run_threads(reader, max_events=2_000_000)

    def bumper(proc):
        old = yield from proc.amo("fetchadd", var.addr, 1, push=True)
        return old

    machine.run_threads(bumper, cpus=[0], max_events=2_000_000)

    machine.run_threads(reader, max_events=2_000_000)


def _tiny_l2():
    from repro.config.parameters import CacheConfig
    return dict(l2=CacheConfig(size_bytes=4 * 128, ways=2, line_bytes=128,
                               latency_cycles=10))


_TRACE_SCENARIOS = {
    "get_s_clean": (_scenario_get_s_clean, {}, {"GET_S", "DATA_S"}),
    "get_s_owned": (_scenario_get_s_owned, {},
                    {"GET_X", "INTERVENTION", "INTERVENTION_REPLY"}),
    "get_x_release_wave": (_scenario_get_x_release_wave, {},
                           {"INVALIDATE", "INV_ACK"}),
    "writeback": (_scenario_writeback, _tiny_l2,
                  {"WRITEBACK", "WRITEBACK_ACK"}),
    "word_update": (_scenario_word_update, {},
                    {"AMO_REQUEST", "WORD_UPDATE"}),
}


def _message_trace(backend, scenario_name):
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine

    scenario, overrides, _ = _TRACE_SCENARIOS[scenario_name]
    if callable(overrides):
        overrides = overrides()
    machine = Machine(SystemConfig.table1(
        8, kernel_backend=backend, **overrides))
    trace = []

    def hook(msg, hops):
        trace.append((machine.sim.now, msg.kind.name, msg.src_node,
                      msg.dst_node, hops, msg.addr, msg.requester,
                      msg.size_bytes))

    machine.net.subscribe_send(hook)
    scenario(machine)
    machine.check_coherence_invariants()
    return trace, machine.sim.now, machine.sim.events_dispatched


@pytest.mark.parametrize("scenario", sorted(_TRACE_SCENARIOS))
def test_ported_handler_message_traces_match_reference(backend, scenario):
    got = _message_trace(backend, scenario)
    want = _message_trace("reference", scenario)
    expected_kinds = _TRACE_SCENARIOS[scenario][2]
    seen = {entry[1] for entry in got[0]}
    assert expected_kinds <= seen, (
        f"scenario {scenario} did not exercise {expected_kinds - seen}")
    assert got == want


def test_accel_handlers_return_compiled_coroutines():
    """When the compiled model paths are armed, the ported entry points
    return ModelCoro state machines, not Python generators — the
    is-the-port-actually-active check the trace equality above relies
    on."""
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine
    from repro.network.message import Message, MessageKind
    from repro.sim.backends.model import model_core

    core = model_core()
    if core is None:
        pytest.skip("compiled model paths not armed")
    from repro.sim.backends._accel_core import ModelCoro

    machine = Machine(SystemConfig.table1(4, kernel_backend="accel"))
    hub = machine.hubs[0]
    assert type(hub).__name__ == "AccelHub"
    assert type(hub.home_engine).__name__ == "AccelHomeEngine"
    assert type(machine.cpus[0].controller).__name__ == "AccelCacheController"

    var = machine.alloc("v", home_node=0)
    get_s = Message(MessageKind.GET_S, 1, 0, addr=var.addr, requester=1)
    coros = [
        hub.home_engine._serve_get_s(get_s),
        hub.egress_send(Message(MessageKind.GET_S, 0, 1, addr=var.addr,
                                requester=0)),
        machine.cpus[0].controller.load(var.addr),
    ]
    try:
        for coro in coros:
            assert isinstance(coro, ModelCoro), coro
    finally:
        for coro in coros:
            coro.close()


# ---------------------------------------------------------------------------
# fuzz smoke on the accel core
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_fuzz_smoke_accel(seed):
    """12-seed sanitizer-armed fuzz smoke on the accel backend: random
    per-message delays must never produce a coherence violation, and the
    outcome must equal the reference backend's byte for byte."""
    from repro.check.fuzz import run_fuzz_schedule

    accel = run_fuzz_schedule(n_processors=8, workload="counter",
                              seed=seed, ops_per_cpu=2, backend="accel")
    assert accel["ok"], accel
    ref = run_fuzz_schedule(n_processors=8, workload="counter",
                            seed=seed, ops_per_cpu=2, backend="reference")
    assert (accel["cycles"], accel["events_dispatched"]) == \
        (ref["cycles"], ref["events_dispatched"])


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_smoke_accel_qlock_reorder(seed):
    """Queue-lock fuzz points in the relaxed-ordering universe on the
    accel core: the ReorderInjector's jittered delivery keys must land
    identically on both backends."""
    from repro.check.fuzz import run_fuzz_schedule

    kw = dict(n_processors=8, workload="qlock_cna", seed=seed,
              ops_per_cpu=2, max_extra=120, reorder_window=40)
    accel = run_fuzz_schedule(backend="accel", **kw)
    assert accel["ok"], accel
    ref = run_fuzz_schedule(backend="reference", **kw)
    assert accel == ref
