"""A fixed pure-Python workload that measures how fast the host is now.

The benchmark's host is shared, and its speed drifts by up to 1.9x in
phases of seconds to minutes.  :func:`sample` times a fixed piece of
work shaped like the simulator's inner loop: a heap-ordered event queue,
small ``__slots__`` objects, dict lookups and method calls over a
working set of a few megabytes.  It is the benchmark's own code, so a
change to the simulator never changes it.  :class:`Sampler` times it on
a timer while a pass runs; a pass's time divided by the mean
sample taken during it is far steadier than either alone.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

#: table entries the work reads and writes (a few MB of live objects)
TABLE = 1 << 15
#: events per sample (about 10-17 ms on the 2-core host it was tuned on)
EVENTS = 6000
#: seconds between two samples taken during a pass
INTERVAL_S = 0.2


class _Line:
    __slots__ = ("tag", "state", "sharers", "value")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.state = 0
        self.sharers = 0
        self.value = 0

    def touch(self, cpu: int, write: bool) -> int:
        if write:
            self.sharers = 1 << (cpu & 63)
            self.state = 2
            self.value += 1
        else:
            self.sharers |= 1 << (cpu & 63)
            self.state = self.state or 1
        return self.value


class _World:
    def __init__(self) -> None:
        self.lines = {i * 64: _Line(i) for i in range(TABLE)}
        self.queue: list = []
        self.seq = 0

    def post(self, when: int, cpu: int, addr: int) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (when, self.seq, cpu, addr))

    def run(self, events: int) -> int:
        lines, pop, post = self.lines, heapq.heappop, self.post
        self.queue.clear()
        total = 0
        x = 12345
        for i in range(64):
            post(i, i, (i * 977 % TABLE) * 64)
        for _ in range(events):
            when, _seq, cpu, addr = pop(self.queue)
            total += lines[addr].touch(cpu, (when ^ cpu) & 3 == 0)
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            post(when + 1 + (x & 15), cpu, (x >> 5) % TABLE * 64)
        return total


class Sampler:
    """Times the fixed work a few times on entry to and exit from
    ``with`` and, with ``timer``, once every ``INTERVAL_S`` on a
    real-time timer inside it.

    ``spent`` is the host time the timed samples took inside the block,
    to be taken off the block's own time.
    """

    def __init__(self, timer: bool = True, edge_samples: int = 5) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.timer = timer
        self.edge = edge_samples
        self._old = None
        self._world = _World()

    def sample(self) -> float:
        """Seconds the fixed work takes now (garbage collection off, so
        the caller's heap does not count)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._world.run(EVENTS)
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.sample())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.samples += [self.sample() for _ in range(self.edge)]
        if self.timer:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.samples += [self.sample() for _ in range(self.edge)]

    def mean(self) -> float:
        return statistics.fmean(self.samples)
