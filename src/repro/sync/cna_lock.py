"""Compact NUMA-aware (CNA) queue lock (Dice & Kogan, EuroSys 2019).

A NUMA-aware refinement of the MCS lock, per Paolillo et al.'s
weak-memory study of it (PAPERS.md): the release path prefers handing
the lock to a waiter on the *holder's own NUMA node*, parking the
skipped remote waiters on a **secondary queue** so the lock (and the
cache line protected by it) ping-pongs between nodes far less often.
Fairness is bounded: after ``batch_threshold`` consecutive node-local
grants the secondary queue is *flushed* — spliced back in front of the
main queue — so no parked waiter starves.

The memory layout extends the MCS lock's (tail word plus per-CPU
``next``/``locked`` words homed on the waiter's node) with three
holder-owned words at the lock's home: the secondary queue's head and
tail handles and the consecutive-local-grant counter.  Real CNA packs
these into the lock word and the holder's qnode; giving them their own
words keeps the handle encoding simple while still routing every access
through simulated coherent memory (all cross-holder state lives in the
machine, none in host-side Python attributes).  Only the current holder
touches them, so plain loads/stores are race-free by mutual exclusion
itself.

Acquire is inherited from MCS unchanged.  The checker contract this
lock is fuzzed against
(:func:`repro.check.linearize.check_cna_grant_order`): every grant that
overtakes an older waiter must be node-local to the granting holder,
and no run of consecutive overtaking grants may exceed
``batch_threshold``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config.mechanism import Mechanism
from repro.sync.mcs_lock import GO, NIL, McsLock
from repro.sync.rmw import coherent_release_store, compare_and_swap

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine
    from repro.cpu.processor import Processor

#: default bound on consecutive node-local grants before the secondary
#: queue is flushed (Dice & Kogan use a probabilistic threshold; a
#: deterministic counter keeps the simulator reproducible)
DEFAULT_BATCH_THRESHOLD = 16


class CnaLock(McsLock):
    """CNA queue lock: MCS with NUMA-local batching, parameterized by
    mechanism."""

    _counter = 0
    _name = "cna"

    def __init__(self, machine: "Machine", mechanism: Mechanism,
                 home_node: int = 0,
                 batch_threshold: int = DEFAULT_BATCH_THRESHOLD) -> None:
        if batch_threshold < 1:
            raise ValueError("batch_threshold must be >= 1")
        super().__init__(machine, mechanism, home_node)
        self.batch_threshold = batch_threshold
        # the tail allocation above consumed this instance's uid slot;
        # reuse its name prefix for the holder-state words
        prefix = self.tail.name.rsplit(".", 1)[0]
        #: secondary queue of parked remote waiters (handles; NIL=empty),
        #: linked through the same per-CPU ``next`` words as the main
        #: queue, always in global enqueue order; holder-owned words
        self.sec_head = machine.alloc(f"{prefix}.sec_head", home_node)
        self.sec_tail = machine.alloc(f"{prefix}.sec_tail", home_node)
        #: consecutive node-local grants since the last FIFO/flush grant
        self.batch = machine.alloc(f"{prefix}.batch", home_node)

    # ------------------------------------------------------------------
    def _node_of_handle(self, handle: int) -> int:
        return self.machine.node_of_cpu(self._qnode_of(handle))

    def _grant(self, proc: "Processor", handle: int):
        succ_cpu = self._qnode_of(handle)
        yield from coherent_release_store(
            proc, self.mechanism, self._locked[succ_cpu].addr, GO,
            delta=-1)

    def _set_secondary(self, proc: "Processor", head: int, tail: int):
        yield from proc.store(self.sec_head.addr, head)
        yield from proc.store(self.sec_tail.addr, tail)

    def release(self, proc: "Processor"):
        """Coroutine: NUMA-aware handoff.

        Preference order: flush the secondary queue when the batch bound
        is hit; otherwise the first *settled* same-node waiter in the
        main queue (parking any skipped remote waiters); otherwise flush
        the secondary queue; otherwise plain FIFO handoff / tail clear.
        """
        me = proc.cpu_id
        if me not in self._held_by:
            raise RuntimeError(
                f"cpu{me} released CNA lock it does not hold")
        my_handle = self._cur_handle[me]
        my_node = self.machine.node_of_cpu(me)
        successor = yield from proc.load(self._next[me].addr)
        sec_head = yield from proc.load(self.sec_head.addr)

        if successor == NIL:
            if sec_head == NIL:
                # queue looks empty: try to clear the tail
                yield from proc.store(self.batch.addr, 0)
                old = yield from compare_and_swap(
                    proc, self.mechanism, self.tail.addr, my_handle, NIL)
                if old == my_handle:
                    self._held_by.discard(me)
                    return                # no waiter anywhere: lock free
                # somebody is mid-enqueue; wait for the link to appear
                successor = yield proc.spin_until(
                    self._next[me].addr, lambda v: v != NIL)
            else:
                # main queue empty but parked waiters exist: promote the
                # secondary queue to be the main queue
                sec_tail = yield from proc.load(self.sec_tail.addr)
                old = yield from compare_and_swap(
                    proc, self.mechanism, self.tail.addr, my_handle,
                    sec_tail)
                if old == my_handle:
                    yield from self._set_secondary(proc, NIL, NIL)
                    yield from proc.store(self.batch.addr, 0)
                    yield from self._grant(proc, sec_head)
                    self._held_by.discard(me)
                    return
                # lost the race to an enqueuer: a main successor exists
                successor = yield proc.spin_until(
                    self._next[me].addr, lambda v: v != NIL)

        # main successor exists
        batch = yield from proc.load(self.batch.addr)
        if batch >= self.batch_threshold and sec_head != NIL:
            # fairness bound hit: splice the (older) secondary queue in
            # front of the main queue and grant its head
            sec_tail = yield from proc.load(self.sec_tail.addr)
            yield from proc.store(
                self._next[self._qnode_of(sec_tail)].addr, successor)
            yield from self._set_secondary(proc, NIL, NIL)
            yield from proc.store(self.batch.addr, 0)
            yield from self._grant(proc, sec_head)
            self._held_by.discard(me)
            return

        # scan the settled prefix of the main queue for a waiter on my
        # node (the scan stops at the first unlinked ``next`` — enqueue
        # order past that point is not yet observable)
        local = NIL
        prev = NIL
        cursor = successor
        while cursor != NIL:
            if self._node_of_handle(cursor) == my_node:
                local = cursor
                break
            prev = cursor
            cursor = yield from proc.load(
                self._next[self._qnode_of(cursor)].addr)

        if local != NIL:
            if local != successor:
                # park the skipped remote prefix [successor .. prev]
                # onto the secondary queue (cut it out of the main one)
                yield from proc.store(
                    self._next[self._qnode_of(prev)].addr, NIL)
                if sec_head == NIL:
                    yield from self._set_secondary(proc, successor, prev)
                else:
                    sec_tail = yield from proc.load(self.sec_tail.addr)
                    yield from proc.store(
                        self._next[self._qnode_of(sec_tail)].addr,
                        successor)
                    yield from proc.store(self.sec_tail.addr, prev)
            yield from proc.store(self.batch.addr, batch + 1)
            yield from self._grant(proc, local)
            self._held_by.discard(me)
            return

        if sec_head != NIL:
            # no local waiter: flush parked (older) waiters first
            sec_tail = yield from proc.load(self.sec_tail.addr)
            yield from proc.store(
                self._next[self._qnode_of(sec_tail)].addr, successor)
            yield from self._set_secondary(proc, NIL, NIL)
            yield from proc.store(self.batch.addr, 0)
            yield from self._grant(proc, sec_head)
            self._held_by.discard(me)
            return

        # plain FIFO handoff
        yield from proc.store(self.batch.addr, 0)
        yield from self._grant(proc, successor)
        self._held_by.discard(me)
