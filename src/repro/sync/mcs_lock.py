"""MCS list-based queue lock (Mellor-Crummey & Scott, 1991).

An extension beyond the paper's two evaluated locks: the third classic
scalable lock from the same MCS paper the authors take their ticket and
array locks from.  Each waiter enqueues a *queue node* onto a global
tail pointer with an atomic **swap**, and spins on a flag inside its own
node — which this implementation homes on the *waiter's own node*, so
spinning is node-local (the property QOLB builds into hardware, §2).
Release hands the lock to the successor with a single-word write, or
clears the tail with a **compare-and-swap** when no successor exists.

Mechanism mapping uses :func:`repro.sync.rmw.swap` /
:func:`repro.sync.rmw.compare_and_swap`, so the lock runs over all five
of the paper's hardware options — including ``amo.swap`` / ``amo.cas``
from the "wide range of AMO instructions" the paper says it is
considering (§3).

Queue-node encoding: CPU ``i``'s ``k``-th acquisition is identified by
``k * (P + 1) + i + 1`` in pointer words (0 is nil), so pointers fit the
simulator's integer words *and* every acquisition attempt has a unique
handle — which lets the queue-order linearizability checkers
(:mod:`repro.check.linearize`) reconstruct the enqueue chain offline
from recorded predecessor handles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config.mechanism import Mechanism
from repro.sync.rmw import coherent_release_store, compare_and_swap, swap

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine
    from repro.cpu.processor import Processor

NIL = 0

#: qnode.locked values
GO = 0
WAIT = 1


class McsLock:
    """MCS queue lock, parameterized by mechanism."""

    _counter = 0
    _name = "mcs"          # allocation-name prefix; subclasses override

    def __init__(self, machine: "Machine", mechanism: Mechanism,
                 home_node: int = 0) -> None:
        self.machine = machine
        self.mechanism = mechanism
        self.home_node = home_node
        cls = type(self)
        uid = cls._counter
        cls._counter = uid + 1
        prefix = f"{self._name}{uid}"
        #: global tail pointer (the only centralized variable)
        self.tail = machine.alloc(f"{prefix}.tail", home_node)
        #: per-CPU queue nodes, homed at the owning CPU's node for local
        #: spinning; one line per word (next / locked in separate lines)
        self._next = []
        self._locked = []
        for cpu in range(machine.n_processors):
            node = machine.node_of_cpu(cpu)
            self._next.append(
                machine.alloc(f"{prefix}.n{cpu}.next", node))
            self._locked.append(
                machine.alloc(f"{prefix}.n{cpu}.locked", node))
        self._held_by: set[int] = set()
        self.acquisitions = 0
        #: handle namespace: cpu lives in the low ``stride`` residue,
        #: the per-CPU attempt counter in the quotient, 0 stays nil
        self._stride = machine.n_processors + 1
        self._attempt = [0] * machine.n_processors
        self._cur_handle = [NIL] * machine.n_processors

    # ------------------------------------------------------------------
    def _qnode_of(self, handle: int) -> int:
        """Pointer-word handle -> cpu id."""
        return handle % self._stride - 1

    def _new_handle(self, cpu: int) -> int:
        attempt = self._attempt[cpu]
        self._attempt[cpu] = attempt + 1
        handle = attempt * self._stride + cpu + 1
        self._cur_handle[cpu] = handle
        return handle

    def acquire(self, proc: "Processor"):
        """Coroutine: enqueue with swap, spin locally until granted.

        Returns ``(my_handle, pred_handle)`` — the unique handle of this
        acquisition and of the queue predecessor it linked behind (nil
        when the queue was empty).  Checkers use the pair to rebuild the
        enqueue chain; ordinary callers may ignore it.
        """
        me = proc.cpu_id
        my_handle = self._new_handle(me)
        # reset my node (plain local-homed stores)
        yield from proc.store(self._next[me].addr, NIL)
        pred_handle = yield from swap(proc, self.mechanism,
                                      self.tail.addr, my_handle)
        if pred_handle != NIL:
            pred = self._qnode_of(pred_handle)
            yield from proc.store(self._locked[me].addr, WAIT)
            # link behind the predecessor...
            yield from proc.store(self._next[pred].addr, my_handle)
            # ...and spin on our own (node-local) flag
            yield proc.spin_until(self._locked[me].addr,
                                       lambda v: v == GO)
        self._held_by.add(me)
        self.acquisitions += 1
        return my_handle, pred_handle

    def release(self, proc: "Processor"):
        """Coroutine: hand off to the successor (or clear the tail)."""
        me = proc.cpu_id
        if me not in self._held_by:
            raise RuntimeError(
                f"cpu{me} released MCS lock it does not hold")
        my_handle = self._cur_handle[me]
        successor = yield from proc.load(self._next[me].addr)
        if successor == NIL:
            old = yield from compare_and_swap(
                proc, self.mechanism, self.tail.addr, my_handle, NIL)
            if old == my_handle:
                self._held_by.discard(me)
                return                    # no successor: lock is free
            # somebody is mid-enqueue; wait for the link to appear
            successor = yield proc.spin_until(
                self._next[me].addr, lambda v: v != NIL)
        succ_cpu = self._qnode_of(successor)
        yield from coherent_release_store(
            proc, self.mechanism, self._locked[succ_cpu].addr, GO,
            delta=-1)
        self._held_by.discard(me)

    def holder(self) -> int | None:
        holders = sorted(self._held_by)
        if len(holders) > 1:
            raise AssertionError(f"mutual exclusion violated: {holders}")
        return holders[0] if holders else None
