"""Centralized (flat) barriers — paper Figure 3.

Three codings:

* **naive** (Fig. 3a): increment the barrier variable, spin on it.  With
  conventional coherence this puts spinners and incrementers on the same
  line — every increment invalidates every spinner, whose reloads then
  contend with the next increment.  Provided for the pathology tests.
* **optimized** (Fig. 3b): spin on a *separate* spin variable (different
  cache line); the last arriver writes it once.  This is the coding used
  for the LL/SC (baseline), Atomic, and MAO table entries, and the
  ActMsg variant lets the handler publish the release.
* **AMO** (Fig. 3c): the naive coding *is* the right coding — ``amo.inc``
  carries a test value, the AMU defers the put until the count reaches
  it, and spinner caches are patched in place.

The barrier is reusable: episodes advance a monotonic target
(``episode * n_participants``), so no sense-reversal is needed and a
single code path serves repeated use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config.mechanism import Mechanism
from repro.sync.rmw import fetch_add

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine
    from repro.cpu.processor import Processor


class CentralizedBarrier:
    """Flat barrier over ``n_participants`` CPUs.

    Parameters
    ----------
    machine, mechanism:
        The system and the atomic-primitive mechanism to use.
    n_participants:
        Defaults to every CPU in the machine.
    home_node:
        Placement of the barrier (and spin) variables.
    naive:
        Force the Figure 3(a) coding for conventional mechanisms
        (pathology demonstration).  AMO always uses the naive coding —
        that is the paper's point.
    """

    _counter = 0

    def __init__(self, machine: "Machine", mechanism: Mechanism,
                 n_participants: int | None = None, home_node: int = 0,
                 naive: bool = False) -> None:
        self.machine = machine
        self.mechanism = mechanism
        self.n = n_participants or machine.n_processors
        self.home_node = home_node
        self.naive = naive or mechanism is Mechanism.AMO
        uid = CentralizedBarrier._counter
        CentralizedBarrier._counter += 1
        self.count_var = machine.alloc(f"barrier{uid}.count", home_node)
        self.spin_var = machine.alloc(f"barrier{uid}.spin", home_node)
        self._episode: dict[int, int] = {}

    # ------------------------------------------------------------------
    def wait(self, proc: "Processor"):
        """Coroutine: block until all ``n`` participants have arrived."""
        episode = self._episode.get(proc.cpu_id, 0)
        self._episode[proc.cpu_id] = episode + 1
        target = self.n * (episode + 1)
        mech = self.mechanism

        if mech is Mechanism.AMO:
            # Figure 3(c): naive coding, test value = expected final count.
            # The inc's old-value reply is unread — no stall on it.
            yield from proc.amo_inc(self.count_var.addr, test=target,
                                    wait_reply=False)
            yield proc.spin_until(self.count_var.addr,
                                       lambda v: v >= target)
            return

        if mech is Mechanism.ACTMSG:
            # The home processor's handler increments and publishes the
            # release with a coherent store when the count completes.
            yield from proc.am_call(
                self.home_node, "fetchadd_notify",
                (self.count_var.addr, 1, target,
                 self.spin_var.addr, episode + 1))
            yield proc.spin_until(self.spin_var.addr,
                                       lambda v: v >= episode + 1)
            return

        old = yield from fetch_add(proc, mech, self.count_var.addr, 1)
        if self.naive:
            # Figure 3(a): spin straight on the barrier variable.
            if old != target - 1:
                yield proc.spin_until(self.count_var.addr,
                                           lambda v: v >= target)
            return
        # Figure 3(b): last arriver releases through the spin variable.
        if old == target - 1:
            yield from proc.store(self.spin_var.addr, episode + 1)
        else:
            yield proc.spin_until(self.spin_var.addr,
                                       lambda v: v >= episode + 1)

    # ------------------------------------------------------------------
    def episodes_completed(self, cpu_id: int) -> int:
        """How many times ``cpu_id`` has entered the barrier."""
        return self._episode.get(cpu_id, 0)
