"""Tests for the trace subsystem."""

import json

import pytest

from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.machine import Machine
from repro.trace import TraceRecorder


def traced_machine(n=4):
    machine = Machine(SystemConfig.table1(n))
    tracer = TraceRecorder.attach(machine)
    return machine, tracer


def test_no_tracer_means_no_spans(machine4):
    var = machine4.alloc("v", home_node=0)

    def thread(proc):
        yield from proc.load(var.addr)

    machine4.run_threads(thread, cpus=[0])
    assert machine4.tracer is None


def test_spans_capture_ops_with_timing():
    machine, tracer = traced_machine()
    var = machine.alloc("v", home_node=1)

    def thread(proc):
        yield from proc.store(var.addr, 1)
        yield from proc.load(var.addr)

    machine.run_threads(thread, cpus=[0])
    spans = tracer.spans_on("cpu0")
    assert [s.name for s in spans] == ["store", "load"]
    store, load = spans
    assert store.start < store.end <= load.start < load.end
    assert store.args["addr"] == hex(var.addr)
    # the remote store dwarfs the local (cached) load
    assert store.duration > load.duration


def test_message_instants_captured():
    machine, tracer = traced_machine()
    var = machine.alloc("v", home_node=1)

    def thread(proc):
        yield from proc.amo_inc(var.addr)

    machine.run_threads(thread, cpus=[0])
    names = {i.name for i in tracer.instants}
    assert "amo_request" in names and "amo_reply" in names
    req = next(i for i in tracer.instants if i.name == "amo_request")
    assert req.args["src"] == 0 and req.args["dst"] == 1
    assert req.args["hops"] == 2


def test_spin_span_covers_wait():
    machine, tracer = traced_machine()
    var = machine.alloc("flag", home_node=0)

    def thread(proc):
        if proc.cpu_id == 0:
            yield from proc.spin_until(var.addr, lambda v: v == 1)
        else:
            yield from proc.delay(5_000)
            yield from proc.store(var.addr, 1)

    machine.run_threads(thread, cpus=[0, 2])
    spin = tracer.spans_named("spin_until")[0]
    assert spin.duration >= 5_000


def test_chrome_trace_schema():
    machine, tracer = traced_machine()
    var = machine.alloc("v", home_node=1)

    def thread(proc):
        yield from proc.amo_fetchadd(var.addr, 1)

    machine.run_threads(thread)
    trace = tracer.to_chrome_trace()
    events = trace["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases == {"M", "X", "i"}
    for e in events:
        if e["ph"] == "X":
            assert e["dur"] >= 1 and e["ts"] >= 0
    # every track has a metadata name record
    meta = [e for e in events if e["ph"] == "M"]
    named = {e["args"]["name"] for e in meta}
    assert "cpu0" in named and "net" in named


def test_save_round_trips(tmp_path):
    machine, tracer = traced_machine()
    var = machine.alloc("v", home_node=0)

    def thread(proc):
        yield from proc.load(var.addr)

    machine.run_threads(thread, cpus=[0])
    path = tmp_path / "trace.json"
    tracer.save(str(path))
    loaded = json.loads(path.read_text())
    assert loaded["traceEvents"]


def test_total_time_accounting():
    machine, tracer = traced_machine()
    var = machine.alloc("v", home_node=1)

    def thread(proc):
        yield from proc.load(var.addr)
        yield from proc.load(var.addr)

    machine.run_threads(thread, cpus=[0])
    assert tracer.total_time_in("cpu0") == \
        tracer.total_time_in("cpu0", "load")
    assert len(tracer.spans_named("load")) == 2


def test_summary_is_readable():
    machine, tracer = traced_machine()
    var = machine.alloc("v", home_node=0)

    def thread(proc):
        yield from proc.atomic_rmw(var.addr, lambda v: v + 1)

    machine.run_threads(thread)
    text = tracer.summary()
    assert "cpu0" in text and "messages traced" in text


def test_tracing_does_not_change_timing():
    """Observer effect check: identical cycle counts with/without."""
    def run(with_tracer):
        machine = Machine(SystemConfig.table1(8))
        if with_tracer:
            TraceRecorder.attach(machine)
        var = machine.alloc("ctr", home_node=0)

        def thread(proc):
            yield from proc.llsc_rmw(var.addr, lambda v: v + 1)

        machine.run_threads(thread)
        return machine.last_completion_time

    assert run(False) == run(True)


def _load_once(machine):
    var = machine.alloc(f"v{len(machine.address_space.symbols)}",
                        home_node=1)

    def thread(proc):
        yield from proc.load(var.addr)

    machine.run_threads(thread, cpus=[0])


def test_pooled_machine_reused_untraced_records_nothing():
    from repro.core.snapshot import MachinePool
    pool = MachinePool()
    cfg = SystemConfig.table1(4)
    machine = pool.acquire(cfg)
    tracer = TraceRecorder.attach(machine)
    _load_once(machine)
    spans, instants = len(tracer.spans), len(tracer.instants)
    assert spans and instants
    tracer.detach()
    again = pool.acquire(cfg)
    assert again is machine
    _load_once(again)
    assert (len(tracer.spans), len(tracer.instants)) == (spans, instants)
