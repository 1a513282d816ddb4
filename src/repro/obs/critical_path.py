"""Per-episode critical-path attribution from trace spans.

A synchronization *episode* (one barrier round, one lock
acquire/critical-section/release) is bounded in time by the slowest
processor — the critical path.  This analyzer takes the spans a
:class:`~repro.trace.recorder.TraceRecorder` captured (every traced
processor operation, plus the ``"episode"`` umbrella spans the workload
drivers record around each measured episode) and attributes the critical
processor's episode time to segments:

========== ==========================================================
segment    meaning
========== ==========================================================
wait       spinning for the release (``spin_until`` spans)
amu        AMO/MAO round trips, minus the estimated wire time
network    estimated request+reply transit of AMO/MAO round trips
           (hops x hop latency from the machine's own topology)
coherence  cached loads/stores, LL/SC, processor atomics, uncached
           accesses — the coherence-protocol-bound operations
actmsg     active-message calls (handler runs on the remote CPU)
cpu        everything else: local compute and issue overhead (the
           gaps between traced operations)
========== ==========================================================

The wire-time split keeps the AMU column honest: a remote ``amo.inc``
span covers injection, transit, FU service, and the reply; transit is
reconstructed from the machine's topology (the simulator's own latency
function) and the remainder attributed to the AMU.  Everything else is
attributed span-whole, and the gaps between traced operations land in
``cpu`` — segment totals sum to the episode length (active-message
handler spans interleaved on the critical CPU can overshoot slightly;
the ``cpu`` remainder is clamped at zero), so percentages are directly
comparable across mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.mem.address import home_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine
    from repro.trace.recorder import Span, TraceRecorder

#: span name -> segment (anything unlisted is ignored, i.e. counted
#: as cpu time via the gap rule)
SEGMENT_OF = {
    "spin_until": "wait",
    "amo": "amu",
    "mao_rmw": "amu",
    "load": "coherence",
    "store": "coherence",
    "load_linked": "coherence",
    "store_conditional": "coherence",
    "llsc_rmw": "coherence",
    "atomic_rmw": "coherence",
    "uncached_read": "coherence",
    "uncached_write": "coherence",
    "am_call": "actmsg",
}

#: marker span name recorded by workload drivers around each episode
EPISODE_SPAN = "episode"

SEGMENTS = ("cpu", "coherence", "network", "amu", "wait", "actmsg")


@dataclass
class EpisodeBreakdown:
    """Attribution of one episode's critical path."""

    index: int
    start: int
    end: int
    #: the track (``"cpu7"``) whose completion defined the episode end
    critical_track: str
    segments: dict[str, int] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return self.end - self.start

    def fraction(self, segment: str) -> float:
        total = self.total_cycles
        return self.segments.get(segment, 0) / total if total else 0.0

    def describe(self) -> str:
        bits = ", ".join(f"{seg}={self.segments.get(seg, 0)}"
                         for seg in SEGMENTS if self.segments.get(seg))
        return (f"episode {self.index}: {self.total_cycles} cycles "
                f"(critical {self.critical_track}; {bits})")


class CriticalPathAnalyzer:
    """Attributes episode latency using a machine's own latency model."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine

    # ------------------------------------------------------------------
    def _transit_estimate(self, span: "Span", track: str) -> int:
        """Estimated request+reply wire cycles of one AMO/MAO span."""
        addr = span.args.get("addr")
        if addr is None:
            return 0
        try:
            cpu_id = int(track.removeprefix("cpu"))
        except ValueError:
            return 0
        src = self.machine.node_of_cpu(cpu_id)
        dst = home_of(int(addr, 16) if isinstance(addr, str) else addr)
        return 2 * self.machine.net.latency(src, dst)

    def analyze(self, tracer: "TraceRecorder") -> list[EpisodeBreakdown]:
        """Per-episode breakdowns, in episode order.

        Episode *i* spans the window from the earliest CPU's *i*-th
        ``"episode"`` marker start to the latest CPU's marker end; the
        CPU finishing last is the critical path and its traced
        operations inside the window are classified by
        :data:`SEGMENT_OF`.
        """
        markers: dict[str, list["Span"]] = {}
        for span in tracer.spans:
            if span.name == EPISODE_SPAN:
                markers.setdefault(span.track, []).append(span)
        if not markers:
            return []
        for spans in markers.values():
            spans.sort(key=lambda s: s.start)
        n_episodes = min(len(s) for s in markers.values())

        out: list[EpisodeBreakdown] = []
        for i in range(n_episodes):
            window = {track: spans[i] for track, spans in markers.items()}
            start = min(s.start for s in window.values())
            end = max(s.end for s in window.values())
            critical = max(window, key=lambda t: (window[t].end, t))
            breakdown = self._attribute(
                tracer, critical, window[critical], start, end)
            breakdown.index = i
            out.append(breakdown)
        return out

    def _attribute(self, tracer: "TraceRecorder", track: str,
                   marker: "Span", start: int, end: int
                   ) -> EpisodeBreakdown:
        segments = {seg: 0 for seg in SEGMENTS}
        # Lead-in before the critical CPU even starts its episode
        # (it was still in the previous episode / local work): cpu time.
        segments["cpu"] += marker.start - start
        op_time = 0
        for span in tracer.spans_on(track):
            seg = SEGMENT_OF.get(span.name)
            if seg is None or span.start < marker.start \
                    or span.end > marker.end:
                continue
            duration = span.duration
            if seg == "amu":
                transit = min(self._transit_estimate(span, track), duration)
                segments["network"] += transit
                duration -= transit
            segments[seg] += duration
            op_time += span.duration
        # Remaining uncovered time inside the marker is local compute
        # plus issue overhead between traced operations.  (With active
        # messages, handler spans interleaved on this track can make
        # op_time overshoot the marker slightly; the clamp keeps cpu
        # time non-negative.)
        segments["cpu"] += max(0, marker.duration - op_time)
        return EpisodeBreakdown(index=0, start=start, end=end,
                                critical_track=track, segments=segments)

    # ------------------------------------------------------------------
    def summarize(self, breakdowns: list[EpisodeBreakdown]) -> dict:
        """Aggregate for the metrics snapshot (mergeable across points)."""
        segments = {seg: 0 for seg in SEGMENTS}
        total = 0
        for b in breakdowns:
            total += b.total_cycles
            for seg, cycles in b.segments.items():
                segments[seg] = segments.get(seg, 0) + cycles
        return {
            "episodes": len(breakdowns),
            "total_cycles": total,
            "segments": segments,
        }
