"""Structured JSONL event log."""

import io
import json

from repro.obs import EventLog


def records_of(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def test_emit_round_trips_jsonl():
    buf = io.StringIO()
    log = EventLog(buf)
    log.emit("sweep.start", points=12, jobs=4)
    log.emit("sweep.done")
    recs = records_of(buf)
    assert recs == [
        {"t": None, "event": "sweep.start", "points": 12, "jobs": 4},
        {"t": None, "event": "sweep.done"},
    ]
    assert log.records_written == 2


def test_timestamps_track_the_simulator(machine4):
    buf = io.StringIO()
    log = EventLog(buf, sim=machine4.sim)
    var = machine4.alloc("v", home_node=0)

    def thread(proc):
        yield from proc.load(var.addr)
        log.emit("thread.done", cpu=proc.cpu_id)

    machine4.run_threads(thread, cpus=[0])
    recs = records_of(buf)
    assert recs[0]["event"] == "thread.done"
    assert recs[0]["t"] == machine4.last_completion_time


def test_non_json_values_are_stringified():
    buf = io.StringIO()
    EventLog(buf).emit("odd", value={1, 2})   # a set is not JSON-able
    assert isinstance(records_of(buf)[0]["value"], str)


def test_file_sink_and_context_manager(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(str(path)) as log:
        log.emit("one")
        log.emit("two")
    lines = path.read_text().splitlines()
    assert [json.loads(ln)["event"] for ln in lines] == ["one", "two"]
