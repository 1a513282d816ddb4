"""The discrete-event simulator core.

A :class:`Simulator` owns a **two-tier event queue**:

* a same-cycle FIFO *dispatch ring* (a deque) holding every event due at
  the current time — the overwhelmingly common case, since most events
  schedule at ``now`` (process resumptions) or at ``now + fixed_latency``;
* a binary heap of *timestamps*, each owning a FIFO bucket (a pooled,
  recycled list) of the events due at that time.

Same-cycle events bypass the heap entirely; future events cost one heap
push per **distinct timestamp**, not per event, so an N-target fan-out
landing on one cycle (a 255-way invalidation wave, a word-update push)
pays a single heap operation.  Events are plain ``(fn, args)`` tuples —
CPython's tuple free list makes them cheaper than any pooled record
object — and drained buckets are cleared and recycled, so steady-state
scheduling allocates almost nothing.

Dispatch order is strict time order; within one cycle, events fire in
two phases:

1. the **delivery phase** — network deliveries scheduled through
   :meth:`Simulator._push_delivery`, dispatched in ``(src, seq)`` key
   order, where ``src`` is the injecting node and ``seq`` a per-source
   injection sequence number.  The key depends only on the *sender's*
   own history, never on global event interleaving, so same-cycle
   arrivals have one canonical order (the 512-CPU golden fingerprints
   pin it);
2. everything else, FIFO in schedule order (ring order == push order).

Every run remains fully deterministic — a property the test suite leans
on heavily (identical configurations must produce identical cycle
counts, message traces, and ``events_dispatched``; see
``tests/integration/test_determinism_parity.py``).

Only three things ever enter the queue: plain callbacks scheduled with
:meth:`Simulator.schedule`, coroutine resumptions scheduled internally
by the waitable primitives in :mod:`repro.sim.primitives`, and network
deliveries keyed through :meth:`Simulator._push_delivery`.  A
resumption is the event ``(sim._resume, (proc, value))``: ``run``
recognizes the one stable ``_resume`` object by identity and steps the
process in its inline trampoline, without a call per resume — the
structure the compiled core has too.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import itemgetter
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

from repro.sim.primitives import Acquire, Timeout
from repro.sim.process import Process


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, running twice...)."""


class Simulator:
    """Deterministic discrete-event simulation kernel.

    Examples
    --------
    >>> sim = Simulator()
    >>> out = []
    >>> sim.schedule(10, out.append, "a")
    >>> sim.schedule(5, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    >>> sim.now
    10
    """

    def __init__(self) -> None:
        #: current simulated time in CPU cycles (read-only for model code)
        self.now = 0
        #: events due at the current time, in FIFO dispatch order
        self._ring: deque[tuple] = deque()
        #: future time -> FIFO list of events due then
        self._buckets: dict[int, list] = {}
        #: min-heap of the distinct timestamps present in ``_buckets``
        self._times: list[int] = []
        #: recycled (cleared) bucket lists
        self._bucket_pool: list[list] = []
        #: future time -> list of ``(key, event)`` delivery-phase entries,
        #: sorted by key and dispatched *before* the regular bucket
        self._phase: dict[int, list] = {}
        self._running = False
        self.events_dispatched = 0
        #: live (unfinished) processes, for leak diagnostics in tests
        self.active_processes: set[Process] = set()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be a non-negative integer; zero-delay events run
        after all events already queued for the current cycle (FIFO).
        """
        if delay == 0:
            self._ring.append((fn, args))
        elif delay > 0:
            self._push_future(self.now + int(delay), (fn, args))
        else:
            raise SimulationError(f"negative delay {delay!r}")

    def schedule_at(self, when: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``when`` (>= now)."""
        if when == self.now:
            self._ring.append((fn, args))
        elif when > self.now:
            self._push_future(int(when), (fn, args))
        else:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self.now})")

    def _push_future(self, when: int, ev: tuple) -> None:
        bucket = self._buckets.get(when)
        if bucket is None:
            pool = self._bucket_pool
            bucket = pool.pop() if pool else []
            self._buckets[when] = bucket
            heapq.heappush(self._times, when)
        bucket.append(ev)

    def _push_delivery(self, when: int, key: tuple, ev: tuple) -> None:
        """Queue a network delivery for the cycle-start delivery phase.

        ``key`` must be ``(src, seq)`` with ``seq`` strictly increasing
        per ``src`` — unique keys, totally ordered, derived only from
        the sender's own injection history.  Deliveries at ``when`` fire
        before that cycle's regular bucket, in key order; this is the
        canonical arrival order the golden fingerprints pin.
        """
        if when <= self.now:
            raise SimulationError(
                f"delivery must be in the future ({when} <= {self.now})")
        if self._buckets.get(when) is None:
            pool = self._bucket_pool
            self._buckets[when] = pool.pop() if pool else []
            heapq.heappush(self._times, when)
        phase = self._phase.get(when)
        if phase is None:
            self._phase[when] = phase = []
        phase.append((key, ev))

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Create a :class:`Process` driving ``gen`` and start it this cycle.

        The generator may ``yield`` any primitive from
        :mod:`repro.sim.primitives` and may delegate to sub-coroutines with
        ``yield from``.  Its ``return`` value becomes ``process.result``.

        Sub-coroutines may also be yielded *directly* (``yield sub()``
        instead of ``yield from sub()``): the kernel then drives the inner
        generator through an explicit per-process stack, so each resume
        costs one frame regardless of call depth — semantically identical
        to ``yield from`` (same values, same exception flow, same event
        counts) but without paying one Python frame per nesting level per
        resume on hot paths.
        """
        proc = Process(gen, name, self)
        self.active_processes.add(proc)
        # Start after the current event finishes so spawn() is not reentrant.
        self._ring.append(proc._rn)
        return proc

    @staticmethod
    def _resume(proc: Process, value: Any) -> None:
        """The marker of a resume event ``(sim._resume, (proc, value))``.

        ``sim._resume`` is one stable object, so :meth:`run` recognizes
        resume events by identity and steps ``proc`` (resuming its
        ``yield`` with ``value``) in its inline trampoline; this body is
        never reached from the queue.  ``Process._rn`` and the
        primitives put it in every wake-up they queue.
        """
        raise SimulationError(
            "sim._resume marks resume events for run(); queue it with "
            "schedule(0, sim._resume, proc, value) instead of calling it")

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Dispatch events until the queue empties (or a bound is hit).

        Parameters
        ----------
        until:
            Stop once simulated time would pass this value; events at
            exactly ``until`` still fire.
        max_events:
            Safety valve for runaway simulations; at most ``max_events``
            events are dispatched, and attempting one more raises
            :class:`SimulationError`.  Process resumes count like
            callbacks.

        Returns the final simulated time.

        A resume event (one whose callable is :meth:`_resume`) runs in
        the inline resume trampoline: it advances the process by one
        step, interpreting what it yields.  Yielded generators are pushed
        onto the process's call stack and driven directly, so deep
        coroutine chains resume in O(1) instead of O(depth).  Exact
        ``Timeout`` and ``Acquire`` commands are armed with the bodies of
        their ``_arm`` methods (a positive delay pushes onto the future
        bucket in place); any other type, subclasses included, goes
        through ``cmd._arm``.  A resume whose process raises counts as
        undispatched, like a callback that raises.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        ring = self._ring
        popleft = ring.popleft
        buckets = self._buckets
        times = self._times
        bucket_pool = self._bucket_pool
        phase_map = self._phase
        active = self.active_processes
        resume = self._resume
        heappop = heapq.heappop
        heappush = heapq.heappush
        # -1 == unbounded (``dispatched`` only ever equals a non-negative bound)
        max_ev = -1 if max_events is None else max_events
        dispatched = 0
        base_dispatched = self.events_dispatched
        try:
            while True:
                while ring:
                    if dispatched == max_ev:
                        raise SimulationError(
                            f"exceeded max_events={max_events}")
                    fn, args = popleft()
                    if fn is not resume:
                        fn(*args)
                        dispatched += 1
                        continue
                    # -- the resume trampoline ---------------------------
                    proc, value = args
                    if proc.done:
                        dispatched += 1
                        continue
                    gen = proc.gen
                    stack = proc.stack
                    exc = None
                    while True:
                        try:
                            if exc is not None:
                                err_in, exc = exc, None
                                cmd = gen.throw(err_in)
                            else:
                                cmd = gen.send(value)
                        except StopIteration as stop:
                            if stack:
                                # inner coroutine returned: resume its caller
                                proc.gen = gen = stack.pop()
                                value = stop.value
                                continue
                            proc._finish(stop.value)
                            active.discard(proc)
                            break
                        except BaseException as err:
                            if stack:
                                # propagate into the caller (its
                                # try/finally must run)
                                proc.gen = gen = stack.pop()
                                exc = err
                                continue
                            proc._fail(err)
                            active.discard(proc)
                            raise
                        ct = type(cmd)
                        if ct is GeneratorType:
                            # sub-call: push the caller, drive the inner one
                            stack.append(gen)
                            proc.gen = gen = cmd
                            value = None
                            continue
                        # Timeout and Acquire are ~86% of all arms: their
                        # ``_arm`` bodies run here without the method call
                        if ct is Timeout:
                            d = cmd.delay
                            if d > 0:
                                # _push_future's body: positive delays are
                                # the common case on the model's paths
                                when = self.now + d
                                bucket = buckets.get(when)
                                if bucket is None:
                                    bucket = (bucket_pool.pop() if bucket_pool
                                              else [])
                                    buckets[when] = bucket
                                    heappush(times, when)
                                bucket.append(proc._rn)
                            elif d == 0:
                                ring.append(proc._rn)
                            else:
                                raise SimulationError(f"negative delay {d!r}")
                        elif ct is Acquire:
                            res = cmd.resource
                            res._sim = self
                            if not res._busy:
                                res._busy = True
                                res.grants += 1
                                res._acquired_at = self.now
                                ring.append(proc._rn)
                            else:
                                res._queue.append(proc)
                        else:
                            try:
                                cmd._arm(self, proc)
                            except AttributeError:
                                raise SimulationError(
                                    f"process {proc.name!r} yielded "
                                    f"non-primitive {cmd!r}; yield "
                                    "Timeout/Signal/Acquire/... or use "
                                    "'yield from' for sub-coroutines"
                                ) from None
                        break
                    dispatched += 1
                if not times:
                    break
                # events remain: the bound is checked before looking at
                # ``until`` so a capped run with work pending always raises
                if dispatched == max_ev:
                    raise SimulationError(
                        f"exceeded max_events={max_events}")
                when = times[0]
                if until is not None and when > until:
                    self.now = until
                    break
                heappop(times)
                self.now = when
                phase = phase_map.pop(when, None)
                if phase is not None:
                    # delivery phase: canonical (src, seq) arrival order
                    if len(phase) > 1:
                        phase.sort()
                    ring.extend(map(itemgetter(1), phase))
                bucket = buckets.pop(when)
                ring.extend(bucket)
                bucket.clear()
                bucket_pool.append(bucket)
        finally:
            self._running = False
            self.events_dispatched = base_dispatched + dispatched
        return self.now

    def run_process(self, gen: Generator, name: str = "main",
                    max_events: Optional[int] = None) -> Any:
        """Spawn ``gen``, run to completion, and return its result.

        Convenience wrapper used by workloads: raises if the process is
        still blocked when the event queue drains (deadlock detection).
        """
        proc = self.spawn(gen, name=name)
        self.run(max_events=max_events)
        if not proc.done:
            raise SimulationError(
                f"deadlock: process {name!r} still blocked at t={self.now} "
                f"with {len(self.active_processes)} live processes"
            )
        return proc.result

    def pending_events(self) -> int:
        """Number of events currently queued (diagnostic)."""
        return (len(self._ring)
                + sum(len(b) for b in self._buckets.values())
                + sum(len(p) for p in self._phase.values()))
