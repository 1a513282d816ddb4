"""Processor-side cache controller.

One :class:`CacheController` per CPU: a write-through L1D latency filter
in front of the coherent L2.  All coherence state lives in the L2; the L1
is kept inclusive (invalidated/updated alongside).  The controller
implements the full load/store/LL-SC/processor-atomic/uncached repertoire
as coroutines, plus the event-driven :meth:`spin_until` that gives spin
loops their real traffic behaviour without per-iteration simulation
events:

* spinning on a valid cached line costs nothing on the network;
* an arriving WORD_UPDATE patches the word, wakes the spinner, and lets
  it re-check locally (the AMO wake-up path);
* an arriving INVALIDATE wakes the spinner into a *full reload* — the
  conventional invalidate-then-reload storm.

A per-line version counter makes the wake-up race-free: any change
between the spinner's read and its wait is detected and re-checked.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, TYPE_CHECKING

from repro.cache.cache import SetAssociativeCache
from repro.cache.line import CacheLine
from repro.cache.state import LINE_EXCLUSIVE, LINE_SHARED
from repro.mem.address import LINE_BYTES, NODE_SHIFT, home_of, line_base
from repro.network.message import (
    DATA_X, GET_S, GET_X, INTERVENTION_REPLY, INV_ACK, SHARING_WRITEBACK,
    UNCACHED_READ, UNCACHED_WRITE, WRITEBACK, Message,
)
from repro.sim.primitives import Gate, Signal, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Hub


class LineMeta:
    """Spin-support metadata for one line: change version + wake gate.

    ``gate_wait`` is the gate's (stateless) wait primitive, built once —
    spinners re-yield it every wake-up, so per-iteration allocation is
    avoided on the hottest loop in lock workloads.
    """

    __slots__ = ("version", "gate", "gate_wait")

    def __init__(self) -> None:
        self.version = 0
        self.gate = Gate()
        self.gate_wait = self.gate.wait()


def _fill_done_of(mshr: dict) -> Signal:
    """The MSHR's fill-completion signal, created on first waiter."""
    sig = mshr["fill_done"]
    if sig is None:
        sig = mshr["fill_done"] = Signal()
    return sig


def backoff_rng(cpu_id: int) -> random.Random:
    """A fresh LL/SC retry-backoff jitter stream for ``cpu_id``."""
    return random.Random(0x9E3779B9 ^ (cpu_id * 2654435761))


class CacheController:
    """Cache hierarchy + coherence client for one CPU."""

    __slots__ = ("cpu_id", "hub", "sim", "node", "config", "net", "l1",
                 "l2", "_reservation", "_meta", "_pending_writebacks",
                 "_inflight", "_rmw_locks", "sc_failures", "sc_successes",
                 "spin_wakeups", "_backoff_rng", "wb_race_interventions",
                 "_t_l1", "_t_l2", "_name_inv", "_name_intervene")

    def __init__(self, cpu_id: int, hub: "Hub") -> None:
        self.cpu_id = cpu_id
        self.hub = hub
        self.sim = hub.sim
        self.node = hub.node
        self.config = hub.config
        self.net = hub.net
        self.l1 = SetAssociativeCache(self.config.l1, name=f"L1[{cpu_id}]")
        self.l2 = SetAssociativeCache(self.config.l2, name=f"L2[{cpu_id}]")
        self._reservation: Optional[int] = None  # line addr of valid LL
        self._meta: dict[int, LineMeta] = {}
        self._pending_writebacks: dict[int, dict[int, int]] = {}
        # MSHR-style tracking of in-flight fills: a racing INVALIDATE
        # poisons the fill (install-then-drop), racing WORD_UPDATEs are
        # buffered and applied at install time.
        self._inflight: dict[int, dict] = {}
        # Lines currently inside an atomic read-modify-write window (or
        # an exclusive fill whose requesting write has not landed yet).
        # Incoming interventions defer on the gate — the hardware
        # behaviour of holding the line through an atomic sequence.
        self._rmw_locks: dict[int, Gate] = {}
        self.sc_failures = 0
        self.sc_successes = 0
        self.spin_wakeups = 0
        # deterministic per-CPU jitter source for LL/SC retry backoff,
        # created on the first retry: most CPUs never retry, and each
        # Random carries ~2.5 KB of state (as much again per snapshot)
        self._backoff_rng: Optional[random.Random] = None
        #: interventions answered from the writeback buffer (race where
        #: the home forwarded to us after we evicted but before our
        #: WRITEBACK retired)
        self.wb_race_interventions = 0
        # fixed cache latencies: Timeout is stateless, reuse one per level
        self._t_l1 = Timeout(self.config.l1.latency_cycles)
        self._t_l2 = Timeout(self.config.l2.latency_cycles)
        # spawn names precomputed once: these handlers run per delivery
        self._name_inv = f"inv@cpu{cpu_id}"
        self._name_intervene = f"intervene@cpu{cpu_id}"

    # ------------------------------------------------------------------
    # metadata / spin support
    # ------------------------------------------------------------------
    def _line_meta(self, addr: int) -> LineMeta:
        line = line_base(addr)
        meta = self._meta.get(line)
        if meta is None:
            meta = LineMeta()
            meta.gate.name = f"line@{line:#x}/cpu{self.cpu_id}"
            self._meta[line] = meta
        return meta

    def _line_changed(self, addr: int) -> None:
        meta = self._line_meta(addr)
        meta.version += 1
        meta.gate.pulse(self.sim)

    # ------------------------------------------------------------------
    # loads & stores
    # ------------------------------------------------------------------
    def load(self, addr: int):
        """Coroutine: coherent load of the word containing ``addr``."""
        yield self._t_l1
        l1_line = self.l1.lookup(addr)
        if l1_line is not None:
            self.l1.hits += 1
            return l1_line.read_word(addr)
        self.l1.misses += 1
        yield self._t_l2
        l2_line = self.l2.lookup(addr)
        if l2_line is not None:
            self.l2.hits += 1
            value = l2_line.read_word(addr)
            self._fill_l1(addr, value)
            return value
        self.l2.misses += 1
        value = yield from self._load_miss(addr)
        return value

    def _load_miss(self, addr: int):
        """Coroutine: the both-levels-missed tail of :meth:`load`.

        Split out so the compiled backend's load port can run the L1/L2
        hit levels in C and delegate only this cold path to Python.
        """
        # Bare yield (not ``yield from``): the kernel drives the fetch
        # through its flattened subcall stack, so the many resumes of a
        # miss transaction cost one frame each instead of walking this
        # delegation chain (see Simulator.spawn).
        line = yield self._fetch(addr, False)
        value = line.read_word(addr)
        if self.l2.probe(addr) is not None:
            # Fill L1 only from resident lines (a poisoned fetch returns
            # a detached snapshot) — strict L1 inclusion.
            self._fill_l1(addr, value)
        return value

    def store(self, addr: int, value: int):
        """Coroutine: coherent store (write-invalidate unless exclusive)."""
        yield self._t_l1
        l2_line = self.l2.lookup(addr)
        fetched = False
        if l2_line is None or l2_line.state is not LINE_EXCLUSIVE:
            self.l2.record_miss()
            l2_line = yield self._fetch(addr, True)
            fetched = True
        else:
            self.l2.record_hit()
        l2_line.write_word(addr, value)
        l2_line.dirty = True
        san = self.hub.machine.sanitizer
        if san is not None:
            san.note_store(self.cpu_id, addr, value)
        if fetched:
            self._release_rmw_lock(line_base(addr))
        self._fill_l1(addr, value)
        # Wake local spinners (another context on this CPU — e.g. an
        # active-message handler running on the home processor — may be
        # spinning on this very line).
        self._line_changed(addr)

    # ------------------------------------------------------------------
    # LL / SC
    # ------------------------------------------------------------------
    def load_linked(self, addr: int):
        """Coroutine: LL — load and arm the reservation."""
        value = yield self.load(addr)
        self._reservation = line_base(addr)
        return value

    def store_conditional(self, addr: int, value: int):
        """Coroutine: SC — store iff the reservation survived.

        Returns True on success.  A cleared reservation fails fast with
        no network traffic (the hardware LLbit check); a reservation that
        dies *during* the upgrade — the classic contended race — fails
        after the GET_X completes, having already paid the traffic.
        """
        line = line_base(addr)
        yield self._t_l1
        if self._reservation != line:
            self.sc_failures += 1
            return False
        l2_line = self.l2.lookup(addr)
        if l2_line is None:
            # invalidated (reservation should already be clear) — fail
            self._reservation = None
            self.sc_failures += 1
            return False
        if l2_line.state is not LINE_EXCLUSIVE:
            l2_line = yield self._fetch(addr, True)
            if self._reservation != line:
                self._release_rmw_lock(line)
                self.sc_failures += 1
                return False
            san = self.hub.machine.sanitizer
            if san is not None:
                san.note_rmw(self.cpu_id, addr, l2_line.read_word(addr),
                             value, "sc")
            l2_line.write_word(addr, value)
            l2_line.dirty = True
            self._release_rmw_lock(line)
        else:
            san = self.hub.machine.sanitizer
            if san is not None:
                san.note_rmw(self.cpu_id, addr, l2_line.read_word(addr),
                             value, "sc")
            l2_line.write_word(addr, value)
            l2_line.dirty = True
        self._fill_l1(addr, value)
        self._line_changed(addr)
        self._reservation = None
        self.sc_successes += 1
        return True

    def ll_sc_rmw(self, addr: int, fn: Callable[[int], int]):
        """Coroutine: library-style LL/SC retry loop. Returns old value.

        Retries use *randomized* exponential backoff (deterministically
        seeded per CPU, so runs stay reproducible).  Without
        randomization, symmetric contenders whose reservations keep
        getting killed during their upgrades re-collide on every retry
        slot and can livelock — the pathology LL/SC library loops guard
        against on real machines with random jitter.
        """
        base = self.config.processor.llsc_retry_penalty_cycles
        attempt = 0
        while True:
            old = yield self.load_linked(addr)
            ok = yield self.store_conditional(addr, fn(old))
            if ok:
                return old
            ceiling = min(base << min(attempt, 8),
                          self.config.processor.llsc_backoff_cap_cycles)
            rng = self._backoff_rng
            if rng is None:
                rng = self._backoff_rng = backoff_rng(self.cpu_id)
            yield Timeout(base + rng.randrange(ceiling))
            attempt += 1

    # ------------------------------------------------------------------
    # processor-side atomic instruction
    # ------------------------------------------------------------------
    def atomic_rmw(self, addr: int, fn: Callable[[int], int]):
        """Coroutine: one-shot atomic RMW at the processor.

        Fetches the line exclusively (the interprocessor communication
        the paper charges this mechanism with), applies ``fn`` locally,
        never fails.  Returns the old value.
        """
        yield self._t_l1
        line_addr = line_base(addr)
        l2_line = self.l2.lookup(addr)
        if l2_line is None or l2_line.state is not LINE_EXCLUSIVE:
            self.l2.record_miss()
            l2_line = yield self._fetch(addr, True)
        else:
            self.l2.record_hit()
            # hold the line through the ALU window (the hardware keeps
            # the atomic sequence indivisible; see _rmw_locks)
            yield from self._acquire_rmw_lock(line_addr)
        try:
            yield Timeout(2)  # ALU op on the loaded word
            old = l2_line.read_word(addr)
            new = fn(old)
            san = self.hub.machine.sanitizer
            if san is not None:
                san.note_rmw(self.cpu_id, addr, old, new, "atomic")
            l2_line.write_word(addr, new)
            l2_line.dirty = True
        finally:
            self._release_rmw_lock(line_addr)
        self._fill_l1(addr, new)
        self._line_changed(addr)
        return old

    # ------------------------------------------------------------------
    # uncached (IO-space) accesses — the MAO spin path
    # ------------------------------------------------------------------
    def uncached_read(self, addr: int):
        """Coroutine: cache-bypassing load served by the home node."""
        sig = Signal()
        yield from self.hub.egress_send(Message(
            UNCACHED_READ, self.node, home_of(addr), addr, None, None,
            sig, self.cpu_id))
        reply = yield sig.wait()
        return reply.value

    def uncached_write(self, addr: int, value: int):
        """Coroutine: cache-bypassing store (waits for the ack)."""
        sig = Signal()
        yield from self.hub.egress_send(Message(
            UNCACHED_WRITE, self.node, home_of(addr), addr, value, None,
            sig, self.cpu_id))
        yield sig.wait()

    # ------------------------------------------------------------------
    # spinning
    # ------------------------------------------------------------------
    def spin_until(self, addr: int, predicate: Callable[[int], bool]):
        """Coroutine: spin-read ``addr`` until ``predicate(value)``.

        Event-driven equivalent of a spin loop; see the module docstring
        for the traffic semantics.  Returns the satisfying value.
        """
        meta = self._line_meta(addr)
        gate_wait = meta.gate_wait
        while True:
            version = meta.version
            value = yield from self.load(addr)
            if predicate(value):
                return value
            if meta.version != version:
                continue  # changed under our read; re-check immediately
            yield gate_wait
            self.spin_wakeups += 1

    # ------------------------------------------------------------------
    # fills, evictions, and the fetch path
    # ------------------------------------------------------------------
    # RMW line locks (intervention deferral windows)
    # ------------------------------------------------------------------
    def _acquire_rmw_lock(self, line_addr: int):
        """Coroutine: take the per-line RMW lock (waits out any holder —
        another context on this CPU, e.g. an active-message handler)."""
        while True:
            gate = self._rmw_locks.get(line_addr)
            if gate is None:
                break
            yield gate.wait()
        gate = Gate()
        gate.name = f"rmw@{line_addr:#x}/cpu{self.cpu_id}"
        self._rmw_locks[line_addr] = gate

    def _release_rmw_lock(self, line_addr: int) -> None:
        gate = self._rmw_locks.pop(line_addr, None)
        if gate is not None:
            gate.pulse(self.sim)

    # ------------------------------------------------------------------
    def _fill_l1(self, addr: int, value: int) -> None:
        line, _victim = self.l1.install(addr, LINE_SHARED)
        line.write_word(addr, value)
        # L1 victims are silently dropped: write-through, inclusive in L2.

    def _fetch(self, addr: int, exclusive: bool):
        """Coroutine: run a GET_S/GET_X transaction; installs and returns
        the L2 line.

        MSHR semantics for races against the in-flight reply (possible
        because clean reads are pipelined at the home): an INVALIDATE
        poisons the fill — the data is still returned to the requesting
        load (it was coherent when the directory snapshotted it) but the
        line is not left resident; WORD_UPDATEs that overtake the fill
        are buffered and applied at install time so no wake-up is lost.
        """
        # line_base and home_of inlined: this runs once per miss
        line_addr = addr - addr % LINE_BYTES
        inflight = self._inflight
        # One outstanding fill per line per controller: a second context
        # (an active-message handler sharing this CPU) waits its turn.
        while line_addr in inflight:
            yield _fill_done_of(inflight[line_addr]).wait()
        # fill_done is created lazily — only a second context racing the
        # same line ever waits on it, and fills outnumber races ~1000:1
        mshr = {"poisoned": False, "updates": [], "exclusive": exclusive,
                "fill_done": None}
        inflight[line_addr] = mshr
        try:
            home = (addr >> NODE_SHIFT) - 1
            if home < 0:
                home_of(addr)  # raises its ValueError
            sig = Signal()
            yield self.hub.egress_send(Message(
                GET_X if exclusive else GET_S,
                self.node, home, addr, None, None, sig, self.cpu_id))
            reply = yield sig.wait()
        finally:
            inflight.pop(line_addr, None)
        kind = reply.kind
        if kind is INTERVENTION_REPLY:
            state = LINE_EXCLUSIVE if reply.value == "exclusive" else LINE_SHARED
        else:
            state = LINE_EXCLUSIVE if kind is DATA_X else LINE_SHARED
        # install() copies for new lines and merges for resident ones, so
        # the reply payload can be handed over without a defensive copy
        line, victim = self.l2.install(addr, state, reply.payload)
        line.dirty = False
        for upd_addr, upd_value in mshr["updates"]:
            line.patch_word(upd_addr, upd_value)
            self._line_changed(upd_addr)
        if mshr["poisoned"]:
            # Hand the caller a detached copy; the caches keep nothing
            # (L1 inclusion: never fill L1 from a poisoned reply).
            detached = CacheLine(line_addr=line.line_addr, state=line.state,
                                 words=line.snapshot_words())
            self.l1.invalidate(addr)
            self.l2.invalidate(addr)
            fd = mshr["fill_done"]
            if fd is not None:
                fd.fire(self.sim, None)
            if victim is not None:
                yield from self._evict(victim)
            return detached
        for upd_addr, upd_value in mshr["updates"]:
            self._fill_l1(upd_addr, upd_value)
        if exclusive:
            # Hold the line through the caller's imminent write: the
            # caller MUST _release_rmw_lock after it.  Taken before the
            # eviction below can yield, so no intervention can steal the
            # line mid-RMW.
            yield from self._acquire_rmw_lock(line_addr)
        # Wake any intervention that raced ahead of this fill (it will
        # then defer again on the RMW lock just taken).
        fd = mshr["fill_done"]
        if fd is not None:
            fd.fire(self.sim, None)
        if victim is not None:
            yield from self._evict(victim)
        return line

    def _evict(self, victim):
        """Coroutine: handle an L2 victim.

        SHARED victims drop silently (the directory keeps a stale sharer
        that will simply ack a spurious invalidation).  EXCLUSIVE victims
        notify the home — with data when dirty — so ownership is never
        silently lost.
        """
        self.l1.invalidate(victim.line_addr)
        if victim.state is not LINE_EXCLUSIVE:
            return
        words = victim.snapshot_words() if victim.dirty else None
        self._pending_writebacks[victim.line_addr] = victim.snapshot_words()
        sig = Signal()
        yield from self.hub.egress_send(Message(
            WRITEBACK, self.node, home_of(victim.line_addr),
            victim.line_addr, None, words, sig, self.cpu_id))
        yield sig.wait()
        self._pending_writebacks.pop(victim.line_addr, None)

    # ------------------------------------------------------------------
    # incoming coherence traffic (called by the hub at delivery time)
    # ------------------------------------------------------------------
    def on_invalidate(self, msg: Message) -> None:
        self.sim.spawn(self._do_invalidate(msg), self._name_inv)

    def _do_invalidate(self, msg: Message):
        yield self._t_l2
        addr = msg.addr
        line = addr - addr % LINE_BYTES
        mshr = self._inflight.get(line)
        if mshr is not None and not mshr["exclusive"]:
            # Poison only read fills: an invalidation racing our own
            # GET_X targets the pre-upgrade copy; the exclusive reply
            # (serialized later at the directory) supersedes it.
            mshr["poisoned"] = True
        self.l1.invalidate(addr)
        self.l2.invalidate(addr)
        if self._reservation == line:
            self._reservation = None
        self._line_changed(addr)
        yield from self.hub.egress_send(Message(
            INV_ACK, self.node, msg.src_node, addr, None,
            msg.payload, None, self.cpu_id))

    def on_intervention(self, msg: Message) -> None:
        self.sim.spawn(self._do_intervention(msg), self._name_intervene)

    def _do_intervention(self, msg: Message):
        yield self._t_l2
        requester_msg, done = msg.payload
        downgrade = msg.value == "downgrade"
        line_addr = line_base(msg.addr)
        # Evicted-with-writeback-in-flight answers FIRST, before any
        # deferral: our re-fetch of the same line may be queued at the
        # home *behind the very transaction this intervention serves*,
        # so waiting for that fill here would deadlock the line.
        pending = self._pending_writebacks.get(line_addr)
        if pending is not None and self.l2.probe(msg.addr) is None:
            self.wb_race_interventions += 1
            yield from self._finish_intervention(
                msg, requester_msg, done, dict(pending), downgrade)
            return
        # Defer behind any in-flight exclusive fill for this line (the
        # home believes we own it before our data arrives — that fill's
        # home transaction has already retired, so it cannot be queued
        # behind this intervention) and behind any atomic RMW window.
        mshr = self._inflight.get(line_addr)
        if mshr is not None and mshr["exclusive"]:
            yield _fill_done_of(mshr).wait()
        while True:
            gate = self._rmw_locks.get(line_addr)
            if gate is None:
                break
            yield gate.wait()
        line = self.l2.probe(msg.addr)
        if line is not None:
            words = line.snapshot_words()
            if downgrade:
                self.l2.downgrade(msg.addr)
                line.dirty = False
            else:
                self.l1.invalidate(msg.addr)
                self.l2.invalidate(msg.addr)
                if self._reservation == line_base(msg.addr):
                    self._reservation = None
                self._line_changed(msg.addr)
        else:
            pending = self._pending_writebacks.get(line_base(msg.addr))
            if pending is None:
                raise RuntimeError(
                    f"cpu{self.cpu_id}: intervention for absent line "
                    f"{msg.addr:#x} with no writeback in flight")
            self.wb_race_interventions += 1
            words = dict(pending)
        yield from self._finish_intervention(msg, requester_msg, done,
                                             words, downgrade)

    def _finish_intervention(self, msg: Message, requester_msg: Message,
                             done, words, downgrade: bool):
        """Coroutine: the intervention's reply legs (3-hop protocol):
        data straight to the requester, sharing writeback / transfer ack
        back to the home."""
        if requester_msg.reply_to is not None:
            yield from self.hub.egress_send(Message(
                INTERVENTION_REPLY, self.node, requester_msg.src_node,
                requester_msg.addr,
                "shared" if downgrade else "exclusive", words,
                requester_msg.reply_to, requester_msg.requester))
        yield from self.hub.egress_send(Message(
            SHARING_WRITEBACK, self.node, msg.src_node, msg.addr, None,
            words, done, self.cpu_id))

    def on_word_update(self, msg: Message) -> None:
        # Word updates apply instantly on arrival: patch both levels,
        # clear any reservation (the word changed), wake spinners.
        mshr = self._inflight.get(line_base(msg.addr))
        if mshr is not None:
            mshr["updates"].append((msg.addr, msg.value))
            return
        applied = self.l2.apply_word_update(msg.addr, msg.value)
        if applied:
            self.l1.apply_word_update(msg.addr, msg.value)
            if self._reservation == line_base(msg.addr):
                self._reservation = None
            self._line_changed(msg.addr)

    # ------------------------------------------------------------------
    def peek(self, addr: int) -> Optional[int]:
        """Zero-time debug read of the local cached value (tests only)."""
        line = self.l2.probe(addr)
        return None if line is None else line.read_word(addr)
