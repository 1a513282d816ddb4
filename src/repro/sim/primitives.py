"""Waitable primitives processes can ``yield``.

Every primitive implements ``_arm(sim, proc)``: register ``proc`` so the
kernel resumes it when the primitive completes.  Zero-delay resumptions
are appended straight onto the kernel's same-cycle dispatch ring
(``sim._ring``) — equivalent to ``sim.schedule(0, sim._resume, ...)``
but without the call and argument-packing overhead, which matters on the
wake-up storms these primitives implement.  ``sim._resume`` is one
stable object that marks the event as a resume; the kernel's run loop
steps the process itself.  The value the process's ``yield`` expression
evaluates to is primitive-specific (documented per class).

Both trampolines arm some exact types inline with copies of the
``_arm`` bodies below: the reference one, inside ``Simulator.run``,
does ``Timeout`` (its positive delay with the body of
``Simulator._push_future``) and ``Acquire``; the compiled one every
primitive here plus ``JoinCmd``.  A change to one of those bodies must
be made there too.  Subclasses always go through their own ``_arm``.

===========  =========================================================
primitive    resumes when / with
===========  =========================================================
Timeout(d)   after ``d`` cycles, with ``None``
sig.wait()   when the signal fires, with the fired value
Gate.wait()  when the gate is (or already was) opened, with gate value
Acquire(r)   when the FIFO resource grants the caller, with ``None``
queue.get()  when an item is available, with the item
proc.join()  when the process finishes, with its result
===========  =========================================================
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process


class Timeout:
    """Suspend the yielding process for ``delay`` cycles."""

    __slots__ = ("delay",)

    def __init__(self, delay: int) -> None:
        self.delay = delay

    def _arm(self, sim: "Simulator", proc: "Process") -> None:
        d = self.delay
        if d > 0:
            sim._push_future(sim.now + d, proc._rn)
        elif d == 0:
            sim._ring.append(proc._rn)
        else:
            sim.schedule(d, sim._resume, proc, None)  # raises


class Signal:
    """One-shot broadcast event.

    ``fire(value)`` wakes every process currently waiting, delivering
    ``value``.  Waiting on a signal that has already fired resumes
    immediately with the fired value, so reply races (reply arrives the
    same cycle the requester starts waiting) are benign.

    A fresh Signal is typically created per transaction (e.g. one per
    outstanding coherence request) and discarded after use.  A reply
    signal keeps the delivered reply as its ``value``; the fabric
    clears that reply's ``reply_to`` before firing (see
    :meth:`repro.network.fabric.Network._deliver`), so the pair never
    forms a cycle and both die by refcount.
    """

    __slots__ = ("_waiters", "fired", "value", "name")

    def __init__(self, name: str = "") -> None:
        self._waiters: list["Process"] = []
        self.fired = False
        self.value: Any = None
        self.name = name

    def fire(self, sim: "Simulator", value: Any = None) -> None:
        """Fire the signal, waking all waiters in FIFO order."""
        if self.fired:
            raise RuntimeError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for proc in waiters:
                sim._ring.append((sim._resume, (proc, value)))

    def try_fire(self, sim: "Simulator", value: Any = None) -> bool:
        """Fire unless already fired; returns whether it fired.

        Used for reply delivery where a late duplicate is legitimate
        (an active-message reply racing its own retransmission timeout).
        """
        if self.fired:
            return False
        self.fire(sim, value)
        return True

    def wait(self) -> "Signal":
        """Yieldable: suspend until the signal fires.

        The signal is its own wait primitive, so a request/reply
        allocates nothing to wait on.
        """
        return self

    def _arm(self, sim: "Simulator", proc: "Process") -> None:
        if self.fired:
            sim._ring.append((sim._resume, (proc, self.value)))
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Signal {self.name} fired={self.fired}>"


class Gate:
    """Level-triggered event: once opened, all waits pass immediately.

    Unlike :class:`Signal`, a gate may be re-armed with :meth:`close`,
    which makes it the natural building block for sense-reversing
    barriers and line-change subscriptions.
    """

    __slots__ = ("_waiters", "open", "value", "name")

    def __init__(self, name: str = "") -> None:
        self._waiters: list["Process"] = []
        self.open = False
        self.value: Any = None
        self.name = name

    def release(self, sim: "Simulator", value: Any = None) -> None:
        """Open the gate, waking current waiters and passing future ones."""
        self.open = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for proc in waiters:
                sim._ring.append((sim._resume, (proc, value)))

    def pulse(self, sim: "Simulator", value: Any = None) -> None:
        """Wake current waiters without leaving the gate open."""
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for proc in waiters:
                sim._ring.append((sim._resume, (proc, value)))

    def close(self) -> None:
        """Re-arm the gate so subsequent waits block again."""
        self.open = False
        self.value = None

    def wait(self) -> "GateWait":
        """Yieldable: pass immediately if open, else block until opened."""
        return GateWait(self)


class GateWait:
    __slots__ = ("gate",)

    def __init__(self, gate: Gate) -> None:
        self.gate = gate

    def _arm(self, sim: "Simulator", proc: "Process") -> None:
        if self.gate.open:
            sim._ring.append((sim._resume, (proc, self.gate.value)))
        else:
            self.gate._waiters.append(proc)


class Resource:
    """FIFO mutual-exclusion resource (a hardware port, a directory slot).

    Usage::

        yield res.acquire()
        try:
            ...exclusive section...
        finally:
            res.release()

    Tracks total busy cycles and grant count so utilization shows up in
    statistics reports.
    """

    __slots__ = ("name", "_busy", "_queue", "grants", "busy_cycles",
                 "_acquired_at", "_sim", "_acquire")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._busy = False
        self._queue: deque["Process"] = deque()
        self.grants = 0
        self.busy_cycles = 0
        self._acquired_at = 0
        self._sim: Optional["Simulator"] = None
        # Acquire is stateless apart from its backref; reuse one instance
        self._acquire = Acquire(self)

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def acquire(self) -> "Acquire":
        """Yieldable: block until this process holds the resource."""
        return self._acquire

    def release(self) -> None:
        """Release; the longest-waiting process (if any) is granted next."""
        if not self._busy:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        sim = self._sim
        assert sim is not None
        self.busy_cycles += sim.now - self._acquired_at
        if self._queue:
            proc = self._queue.popleft()
            self.grants += 1
            self._acquired_at = sim.now
            sim._ring.append(proc._rn)
        else:
            self._busy = False


class Acquire:
    """Primitive form of :meth:`Resource.acquire`."""

    __slots__ = ("resource",)

    def __init__(self, resource: Resource) -> None:
        self.resource = resource

    def _arm(self, sim: "Simulator", proc: "Process") -> None:
        res = self.resource
        res._sim = sim
        if not res._busy:
            res._busy = True
            res.grants += 1
            res._acquired_at = sim.now
            sim._ring.append(proc._rn)
        else:
            res._queue.append(proc)


class FifoQueue:
    """Unbounded FIFO channel between processes.

    ``put`` never blocks; ``yield queue.get()`` blocks until an item is
    available.  Used for hardware request queues (AMU input queue, hub
    dispatch queues) where the *service* side is the bottleneck being
    modelled, not queue capacity.
    """

    __slots__ = ("name", "_items", "_getters", "max_depth", "puts")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._items: deque = deque()
        self._getters: deque["Process"] = deque()
        self.max_depth = 0
        self.puts = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, sim: "Simulator", item: Any) -> None:
        """Enqueue ``item``; wakes the oldest blocked getter, if any."""
        self.puts += 1
        if self._getters:
            proc = self._getters.popleft()
            sim._ring.append((sim._resume, (proc, item)))
        else:
            self._items.append(item)
            self.max_depth = max(self.max_depth, len(self._items))

    def get(self) -> "QueueGet":
        """Yieldable: dequeue the next item, blocking while empty."""
        return QueueGet(self)


class QueueGet:
    __slots__ = ("queue",)

    def __init__(self, queue: FifoQueue) -> None:
        self.queue = queue

    def _arm(self, sim: "Simulator", proc: "Process") -> None:
        q = self.queue
        if q._items:
            item = q._items.popleft()
            sim._ring.append((sim._resume, (proc, item)))
        else:
            q._getters.append(proc)


def all_of(sim: "Simulator", processes: list["Process"]):
    """Coroutine: wait for every process in ``processes`` to finish.

    Returns the list of their results in order.

    .. code-block:: python

        workers = [sim.spawn(work(i)) for i in range(n)]
        results = yield from all_of(sim, workers)
    """
    results = []
    for proc in processes:
        result = yield proc.join()
        results.append(result)
    return results
