"""Ticket lock — paper Figure 4, after Mellor-Crummey & Scott.

Two global variables: the sequencer (``next_ticket``) and the counter
(``now_serving``), in separate cache lines.  Acquire atomically takes a
ticket and spins until served; release increments the counter.

Mechanism mapping:

* the ticket fetch-and-add goes through :func:`repro.sync.rmw.fetch_add`;
* the release is a plain coherent store for LL/SC / Atomic / MAO (only
  the holder writes — but the store invalidates every spinner, whose
  reloads are the pass-latency storm), a handler store for ActMsg, and
  an ``amo.fetchadd`` update push for AMO ("we also use amo_fetchadd()
  on the counter to take advantage of the put mechanism", §3.3.2).

Optional proportional backoff (Mellor-Crummey & Scott) is provided; the
paper notes it is far less effective on cache-coherent machines, which
the ablation benchmark confirms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config.mechanism import Mechanism
from repro.sync.rmw import coherent_release_store, fetch_add

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine
    from repro.cpu.processor import Processor


class TicketLock:
    """FIFO ticket lock, parameterized by mechanism."""

    _counter = 0

    def __init__(self, machine: "Machine", mechanism: Mechanism,
                 home_node: int = 0,
                 proportional_backoff_cycles: int = 0) -> None:
        self.machine = machine
        self.mechanism = mechanism
        self.home_node = home_node
        self.backoff = proportional_backoff_cycles
        uid = TicketLock._counter
        TicketLock._counter += 1
        self.next_ticket = machine.alloc(f"ticket{uid}.next", home_node)
        self.now_serving = machine.alloc(f"ticket{uid}.serving", home_node)
        self._held_by: dict[int, int] = {}   # cpu -> ticket while held
        self.acquisitions = 0

    # ------------------------------------------------------------------
    def acquire(self, proc: "Processor"):
        """Coroutine: take a ticket and wait to be served."""
        my = yield from fetch_add(proc, self.mechanism,
                                  self.next_ticket.addr, 1)
        if self.backoff:
            # Proportional backoff: delay by distance-in-line before
            # touching the counter (Mellor-Crummey & Scott §2.2).
            current = yield from proc.load(self.now_serving.addr)
            distance = max(0, my - current)
            if distance > 1:
                yield from proc.delay(distance * self.backoff)
        yield proc.spin_until(self.now_serving.addr,
                                   lambda v, my=my: v >= my)
        self._held_by[proc.cpu_id] = my
        self.acquisitions += 1
        return my

    def release(self, proc: "Processor"):
        """Coroutine: pass the lock to the next ticket holder."""
        my = self._held_by.pop(proc.cpu_id, None)
        if my is None:
            raise RuntimeError(
                f"cpu{proc.cpu_id} released ticket lock it does not hold")
        yield from coherent_release_store(
            proc, self.mechanism, self.now_serving.addr, my + 1, delta=1)

    def holder(self) -> int | None:
        """CPU currently holding the lock, or None (diagnostics)."""
        holders = list(self._held_by)
        if len(holders) > 1:
            raise AssertionError(f"mutual exclusion violated: {holders}")
        return holders[0] if holders else None
