"""Round-trip guarantees of ``TraceRecorder.to_chrome_trace``.

The exported document must be loadable by chrome://tracing / Perfetto:
serializable JSON, exactly one ``thread_name`` metadata record per
track, every span/instant on a registered tid, every event on one
process, and strictly positive durations (the viewer drops ``dur == 0``
complete events).  The tracer observes logical packets, so multicast
delivery batching must not show in the export.
"""

import json

from repro.config.parameters import NetworkConfig, SystemConfig
from repro.core.machine import Machine
from repro.network.faults import DelayInjector
from repro.trace import TraceRecorder


def traced_run(n=4):
    machine = Machine(SystemConfig.table1(n))
    tracer = TraceRecorder.attach(machine)
    var = machine.alloc("ctr", home_node=1)

    def thread(proc):
        yield from proc.load(var.addr)
        yield from proc.amo_fetchadd(var.addr, 1)
        yield from proc.store(var.addr, 0)

    machine.run_threads(thread)
    return tracer


def test_export_is_serializable_json():
    trace = traced_run().to_chrome_trace()
    # full round trip: serialize and parse back without loss
    again = json.loads(json.dumps(trace))
    assert again == trace
    assert again["traceEvents"]


def test_one_thread_name_record_per_track():
    tracer = traced_run()
    events = tracer.to_chrome_trace()["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert all(e["name"] == "thread_name" for e in meta)
    names = [e["args"]["name"] for e in meta]
    assert len(names) == len(set(names))          # exactly one per track
    tracks = {s.track for s in tracer.spans} | \
        {i.track for i in tracer.instants}
    assert set(names) == tracks
    # one distinct tid per track
    assert len({e["tid"] for e in meta}) == len(meta)


def test_every_event_maps_to_a_registered_tid():
    events = traced_run().to_chrome_trace()["traceEvents"]
    tids = {e["tid"] for e in events if e["ph"] == "M"}
    for e in events:
        if e["ph"] in ("X", "i"):
            assert e["tid"] in tids


def test_durations_are_at_least_one():
    tracer = traced_run()
    # force a zero-length span: the exporter must clamp it to dur=1
    tracer.add_span("cpu0", "instant_op", 50, 50)
    events = tracer.to_chrome_trace()["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    assert xs and all(e["dur"] >= 1 and e["ts"] >= 0 for e in xs)
    clamped = [e for e in xs if e["name"] == "instant_op"]
    assert clamped[0]["dur"] == 1


def test_span_args_survive_the_round_trip(tmp_path):
    tracer = traced_run()
    path = tmp_path / "trace.json"
    tracer.save(str(path))
    loaded = json.loads(path.read_text())
    loads = [e for e in loaded["traceEvents"]
             if e["ph"] == "X" and e["name"] == "load"]
    assert loads and all(e["args"]["addr"].startswith("0x")
                         for e in loads)


def test_export_is_a_single_process():
    """Every event sits on pid 1 and no process_name metadata is
    emitted: one machine renders as one Chrome process."""
    events = traced_run().to_chrome_trace()["traceEvents"]
    assert {e["pid"] for e in events} == {1}
    assert not any(e["ph"] == "M" and e["name"] == "process_name"
                   for e in events)


def multicast_trace(per_packet):
    """An update fan-out (3 sharers) with hardware multicast on; the
    inert zero-delay injector forces the per-packet ``send`` fallback
    without changing any delivery time."""
    cfg = SystemConfig.table1(
        8, network=NetworkConfig(multicast_updates=True))
    machine = Machine(cfg)
    tracer = TraceRecorder.attach(machine)
    if per_packet:
        DelayInjector.install(machine, seed=0, max_extra_cycles=0)
    var = machine.alloc("v", home_node=0)

    def loader(proc):
        yield from proc.load(var.addr)

    machine.run_threads(loader, cpus=[2, 4, 6])

    def pusher(proc):
        yield from proc.amo_fetchadd(var.addr, 1)

    machine.run_threads(pusher, cpus=[0])
    return tracer, machine


def test_multicast_wave_trace_matches_per_packet_fallback():
    """Grouped-wave multicast delivery and the fault-injection
    per-packet fallback must produce the identical Chrome trace: the
    tracer observes logical packets, not delivery batching."""
    wave_tracer, wave_machine = multicast_trace(per_packet=False)
    pkt_tracer, pkt_machine = multicast_trace(per_packet=True)
    assert wave_machine.last_completion_time == \
        pkt_machine.last_completion_time
    wave_doc = wave_tracer.to_chrome_trace()
    pkt_doc = pkt_tracer.to_chrome_trace()
    assert wave_doc == pkt_doc
    names = {e["name"] for e in wave_doc["traceEvents"]
             if e["ph"] == "i"}
    assert "word_update" in names
    # round-trips through JSON byte-identically
    assert json.dumps(wave_doc, sort_keys=True) == \
        json.dumps(pkt_doc, sort_keys=True)
