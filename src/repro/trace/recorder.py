"""The trace recorder and its Chrome-trace exporter.

Span capture is zero-cost when no recorder is attached: the processor's
traced methods check ``machine.tracer`` once per call.  Message capture
subscribes to the fabric's send hooks (``Network.subscribe_send``).
:meth:`TraceRecorder.detach` undoes both, so a pooled machine can be
traced for one run and reused untraced.

Chrome trace format notes: we emit "X" (complete) events with ``ts`` and
``dur`` in simulated CPU cycles (one cycle rendered as one microsecond —
the viewer's unit label is cosmetic), one "process" per machine and one
"thread" per track (cpu0..N, net).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine


@dataclass
class Span:
    """One completed operation on some track."""

    track: str
    name: str
    start: int
    end: int
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Instant:
    """A point event (message injection)."""

    track: str
    name: str
    time: int
    args: dict = field(default_factory=dict)


class TraceRecorder:
    """Collects spans/instants from an attached machine."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.message_capture = True
        self._machine: Optional["Machine"] = None

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, machine: "Machine",
               capture_messages: bool = True) -> "TraceRecorder":
        """Create a recorder and hook it into ``machine``."""
        tracer = cls()
        tracer.message_capture = capture_messages
        tracer._machine = machine
        machine.tracer = tracer
        if capture_messages:
            machine.net.subscribe_send(tracer._on_send)
        return tracer

    def detach(self) -> None:
        """Unhook from the attached machine (no-op when not attached);
        the recorded spans and instants stay readable."""
        machine = self._machine
        if machine is None:
            return
        if self.message_capture:
            machine.net.unsubscribe_send(self._on_send)
        if machine.tracer is self:
            machine.tracer = None
        self._machine = None

    def _on_send(self, msg, hops: int) -> None:
        self.instants.append(Instant(
            track="net",
            name=msg.kind.value,
            time=self._machine.sim.now,
            args={"src": msg.src_node, "dst": msg.dst_node,
                  "hops": hops,
                  "addr": None if msg.addr is None else hex(msg.addr)}))

    # ------------------------------------------------------------------
    def add_span(self, track: str, name: str, start: int, end: int,
                 **args: Any) -> None:
        self.spans.append(Span(track=track, name=name, start=start,
                               end=end, args=dict(args)))

    def spans_on(self, track: str) -> list[Span]:
        return [s for s in self.spans if s.track == track]

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_time_in(self, track: str, name: Optional[str] = None) -> int:
        """Sum of span durations on a track (optionally one op kind)."""
        return sum(s.duration for s in self.spans
                   if s.track == track and (name is None or s.name == name))

    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """The trace as a chrome://tracing-compatible dict: one process
        (pid 1), one thread per track in sorted track order."""
        events = []
        tracks = sorted({s.track for s in self.spans}
                        | {i.track for i in self.instants})
        tid_of = {track: tid for tid, track in enumerate(tracks)}
        for track, tid in tid_of.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1,
                "tid": tid, "args": {"name": track},
            })
        for span in self.spans:
            events.append({
                "name": span.name, "ph": "X", "pid": 1,
                "tid": tid_of[span.track], "ts": span.start,
                "dur": max(span.duration, 1), "cat": "op",
                "args": span.args,
            })
        for inst in self.instants:
            events.append({
                "name": inst.name, "ph": "i", "s": "t", "pid": 1,
                "tid": tid_of[inst.track], "ts": inst.time,
                "cat": "msg", "args": inst.args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)

    def summary(self) -> str:
        """Per-track op-time accounting (quick look without the viewer)."""
        lines = [f"{'track':<10}{'spans':>8}{'busy cycles':>14}"]
        for track in sorted({s.track for s in self.spans}):
            spans = self.spans_on(track)
            busy = sum(s.duration for s in spans)
            lines.append(f"{track:<10}{len(spans):>8}{busy:>14}")
        lines.append(f"messages traced: {len(self.instants)}")
        return "\n".join(lines)


def traced_op(fn):
    """Decorator for Processor coroutine methods: records a span when a
    tracer is attached, with zero overhead otherwise.

    The untraced path returns the wrapped generator *directly* (the
    wrapper itself is not a generator function), so ``yield from`` chains
    through traced methods pay no extra frame per resume when tracing is
    off — the common case on performance runs.
    """
    name = fn.__name__

    def _traced(self, tracer, args, kwargs):
        start = self.sim.now
        result = yield from fn(self, *args, **kwargs)
        addr = args[0] if args else None
        tracer.add_span(
            f"cpu{self.cpu_id}", name, start, self.sim.now,
            addr=hex(addr) if isinstance(addr, int) else None)
        return result

    def wrapper(self, *args, **kwargs):
        tracer = self.machine.tracer
        if tracer is None:
            return fn(self, *args, **kwargs)
        return _traced(self, tracer, args, kwargs)

    wrapper.__name__ = name
    wrapper.__doc__ = fn.__doc__
    wrapper.__qualname__ = fn.__qualname__
    return wrapper
