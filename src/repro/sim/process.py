"""Generator-backed simulation processes.

A :class:`Process` wraps a Python generator.  The generator yields waitable
primitives (:mod:`repro.sim.primitives`) and the kernel resumes it when the
primitive completes.  Sub-coroutines compose with plain ``yield from``, so
hardware models read like straight-line code:

.. code-block:: python

    def cpu_thread(mem):
        value = yield from mem.load(addr)        # nested coroutine
        yield Timeout(COMPUTE_CYCLES)            # primitive
        yield from mem.store(addr, value + 1)
        return value
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Process:
    """A running coroutine inside the simulator.

    Not constructed directly — use :meth:`repro.sim.kernel.Simulator.spawn`.

    Attributes
    ----------
    done:
        True once the generator returned or raised.
    result:
        The generator's ``return`` value (None until :attr:`done`).
    error:
        The exception that killed the process, if any.
    gen:
        The generator the kernel currently resumes — the innermost frame
        when sub-coroutines are yielded directly (see :attr:`stack`).
    stack:
        Suspended caller generators, outermost first.  Populated when a
        coroutine yields a sub-generator instead of delegating with
        ``yield from``; the kernel's flattened trampoline drives only
        :attr:`gen` and unwinds through this stack on return/raise, so a
        resume costs one Python frame regardless of call depth.
    """

    __slots__ = ("gen", "stack", "name", "sim", "done", "result", "error",
                 "_waiters", "_rn")

    def __init__(self, gen: Generator, name: str, sim: "Simulator") -> None:
        self.gen = gen
        self.stack: list[Generator] = []
        self.name = name or getattr(gen, "__name__", "process")
        self.sim = sim
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._waiters: list[Process] = []
        # Interned "resume with None" event.  A process is suspended on at
        # most one primitive at a time, so the same tuple is never queued
        # twice concurrently; every None-valued wake-up (spawn, Timeout,
        # Acquire grant) reuses it instead of allocating two tuples.  The
        # tuple points back at the process, so _finish/_fail set it to
        # None: a finished process (with its generator frames and lists)
        # then dies by refcount instead of waiting for the cyclic GC.  Only
        # live processes are ever woken, so nothing reads it afterwards.
        self._rn: Optional[tuple] = (sim._resume, (self, None))

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        self._rn = None
        waiters = self._waiters
        if waiters:
            self._waiters = []
            ring = self.sim._ring
            resume = self.sim._resume
            for waiter in waiters:
                ring.append((resume, (waiter, result)))

    def _fail(self, error: BaseException) -> None:
        self.done = True
        self.error = error
        self._rn = None
        # Waiters are abandoned; the kernel re-raises the error at top level
        # so a failing process always surfaces loudly in tests.
        self._waiters = []

    def join(self) -> "JoinCmd":
        """Yieldable: block the caller until this process finishes.

        Resumes with the process result.  Joining an already-finished
        process resumes immediately (next zero-delay slot).
        """
        return JoinCmd(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"<Process {self.name} {state}>"


class JoinCmd:
    """Primitive implementing :meth:`Process.join`."""

    __slots__ = ("target",)

    def __init__(self, target: Process) -> None:
        self.target = target

    def _arm(self, sim: "Simulator", proc: Process) -> None:
        if self.target.done:
            sim._ring.append((sim._resume, (proc, self.target.result)))
        else:
            self.target._waiters.append(proc)
