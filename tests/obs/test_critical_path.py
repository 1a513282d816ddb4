"""Critical-path attribution from synthetic and real trace spans."""

from repro.obs import CriticalPathAnalyzer
from repro.obs.critical_path import EPISODE_SPAN, SEGMENTS
from repro.trace.recorder import TraceRecorder


def make_tracer():
    t = TraceRecorder()
    return t


def test_no_markers_no_episodes(machine4):
    analyzer = CriticalPathAnalyzer(machine4)
    assert analyzer.analyze(make_tracer()) == []


def test_critical_track_is_last_finisher(machine4):
    tracer = make_tracer()
    tracer.add_span("cpu0", EPISODE_SPAN, 0, 100)
    tracer.add_span("cpu1", EPISODE_SPAN, 0, 300)   # finishes last
    breakdowns = CriticalPathAnalyzer(machine4).analyze(tracer)
    assert len(breakdowns) == 1
    b = breakdowns[0]
    assert b.critical_track == "cpu1"
    assert (b.start, b.end, b.total_cycles) == (0, 300, 300)


def test_segments_sum_to_episode_length(machine4):
    tracer = make_tracer()
    tracer.add_span("cpu0", EPISODE_SPAN, 0, 1_000)
    tracer.add_span("cpu0", "spin_until", 100, 700)
    tracer.add_span("cpu0", "load", 700, 760)
    breakdowns = CriticalPathAnalyzer(machine4).analyze(tracer)
    b = breakdowns[0]
    assert b.segments["wait"] == 600
    assert b.segments["coherence"] == 60
    # uncovered time inside the marker lands in cpu
    assert b.segments["cpu"] == 1_000 - 600 - 60
    assert sum(b.segments.values()) == b.total_cycles


def test_amu_span_splits_network_transit(machine4):
    tracer = make_tracer()
    var = machine4.alloc("v", home_node=1)
    tracer.add_span("cpu0", EPISODE_SPAN, 0, 2_000)
    tracer.add_span("cpu0", "amo", 0, 1_000, addr=hex(var.addr))
    b = CriticalPathAnalyzer(machine4).analyze(tracer)[0]
    expected_transit = 2 * machine4.net.latency(machine4.node_of_cpu(0), 1)
    assert b.segments["network"] == expected_transit
    assert b.segments["amu"] == 1_000 - expected_transit
    assert sum(b.segments.values()) == b.total_cycles


def test_multi_episode_windows_pair_up(machine4):
    tracer = make_tracer()
    for cpu in ("cpu0", "cpu1"):
        tracer.add_span(cpu, EPISODE_SPAN, 0, 100)
        tracer.add_span(cpu, EPISODE_SPAN, 100, 250)
    breakdowns = CriticalPathAnalyzer(machine4).analyze(tracer)
    assert [b.index for b in breakdowns] == [0, 1]
    assert breakdowns[1].total_cycles == 150


def test_summarize_merges_episodes(machine4):
    tracer = make_tracer()
    tracer.add_span("cpu0", EPISODE_SPAN, 0, 100)
    tracer.add_span("cpu0", EPISODE_SPAN, 100, 300)
    analyzer = CriticalPathAnalyzer(machine4)
    summary = analyzer.summarize(analyzer.analyze(tracer))
    assert summary["episodes"] == 2
    assert summary["total_cycles"] == 300
    assert set(summary["segments"]) == set(SEGMENTS)
    assert sum(summary["segments"].values()) == 300


def test_describe_is_readable(machine4):
    tracer = make_tracer()
    tracer.add_span("cpu3", EPISODE_SPAN, 0, 50)
    b = CriticalPathAnalyzer(machine4).analyze(tracer)[0]
    text = b.describe()
    assert "cpu3" in text and "50 cycles" in text
