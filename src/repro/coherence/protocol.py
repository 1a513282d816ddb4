"""Home-side coherence transaction engine.

One :class:`HomeEngine` per node services every coherence request whose
address is homed there.  Transactions on the same line are serialized by
the line's directory ``busy`` resource (the hardware busy bit); the DRAM
access is performed *while the entry is busy* — matching Origin-style
directory controllers, where a read request occupies the directory slot
until the memory reply is injected.  This non-pipelined service is a
first-order term in the paper's results: it is what makes the
invalidate-then-reload wake-up storm of conventional barriers/locks cost
O(P x full service time) at the home, while AMO word-update pushes cost
only O(P x egress injection).

Three-hop transactions (owner intervention) follow the SN2 style: the
home forwards an intervention to the exclusive owner, the owner replies
with data *directly to the requester* and sends a sharing writeback (or
ownership-transfer ack) back to the home, which then retires the
transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.coherence.directory import (
    DIR_EXCLUSIVE, DIR_SHARED, DIR_UNOWNED, Directory,
)
from repro.mem.address import LINE_BYTES, line_base, word_base
from repro.network.message import (
    DATA_S, DATA_X, FG_GET, FG_PUT, GET_S, GET_X, INTERVENTION, INVALIDATE,
    UNCACHED_READ, UNCACHED_READ_REPLY, UNCACHED_WRITE, UNCACHED_WRITE_ACK,
    WORD_UPDATE, WRITEBACK, WRITEBACK_ACK, Message,
)
from repro.sim.backends.wave import expand_wave, wave_builder
from repro.sim.primitives import Signal, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Hub


class AckLatch:
    """Counts acknowledgements; fires its signal when all have arrived."""

    __slots__ = ("signal", "remaining")

    def __init__(self, expected: int, name: str = "") -> None:
        self.signal = Signal(name=name)
        self.remaining = expected

    def ack(self, sim) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.signal.fire(sim, None)
        elif self.remaining < 0:
            raise RuntimeError("ack latch over-acked")


class HomeEngine:
    """Directory + memory controller protocol engine for one home node."""

    __slots__ = ("hub", "sim", "node", "config", "net", "dram", "backing",
                 "directory", "transactions", "get_s_served", "get_x_served",
                 "writebacks_served", "invalidations_sent",
                 "interventions_sent", "word_updates_pushed", "_t_dir",
                 "_name_get_s", "_name_get_x", "_name_wb", "_name_readfill",
                 "_build_wave", "_line_bytes")

    def __init__(self, hub: "Hub") -> None:
        self.hub = hub
        self.sim = hub.sim
        self.node = hub.node
        self.config = hub.config
        self.net = hub.net
        self.dram = hub.dram
        self.backing = hub.backing
        self.directory = Directory(hub.node)
        self.transactions = 0
        self.get_s_served = 0
        self.get_x_served = 0
        self.writebacks_served = 0
        self.invalidations_sent = 0
        self.interventions_sent = 0
        self.word_updates_pushed = 0
        # fixed directory-occupancy delay: Timeout is stateless, reuse one
        self._t_dir = Timeout(self.config.hub.hub_to_cpu(
            self.config.hub.directory_occupancy_hub_cycles))
        # the config's line_bytes is a property; read it once
        self._line_bytes = self.config.line_bytes
        # spawn names precomputed once: handle() runs per request message
        self._name_get_s = f"getS@{self.node}"
        self._name_get_x = f"getX@{self.node}"
        self._name_wb = f"wb@{self.node}"
        self._name_readfill = f"readfill@{self.node}"
        # wave construction: the whole message batch is allocated in C
        # on the accel backend (same slots, ids, and order either way)
        self._build_wave = wave_builder(self.config.kernel_backend)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        """Entry point from the hub for a request homed at this node."""
        self.transactions += 1
        kind = msg.kind
        if kind is GET_S:
            self.sim.spawn(self._serve_get_s(msg), self._name_get_s)
        elif kind is GET_X:
            self.sim.spawn(self._serve_get_x(msg), self._name_get_x)
        elif kind is WRITEBACK:
            self.sim.spawn(self._serve_writeback(msg), self._name_wb)
        elif kind is UNCACHED_READ:
            self.sim.spawn(self._serve_uncached_read(msg))
        elif kind is UNCACHED_WRITE:
            self.sim.spawn(self._serve_uncached_write(msg))
        else:
            raise RuntimeError(f"home engine got unexpected {msg!r}")

    def _count_invalidations(self, fanout: int) -> None:
        """Account one invalidation wave of ``fanout`` targets."""
        self.invalidations_sent += fanout
        obs = self.hub.machine.obs
        if obs is not None:
            obs.inval_fanout.observe(fanout)

    # ------------------------------------------------------------------
    # GET_S — read miss
    # ------------------------------------------------------------------
    def _serve_get_s(self, msg: Message):
        # Split so the compiled backend's GET_S port can run the clean
        # path in C and delegate only the 3-hop tail to Python.
        self.get_s_served += 1
        addr = msg.addr
        ent = self.directory.entry(addr - addr % LINE_BYTES)  # line_base
        yield ent.busy.acquire()
        try:
            yield self._t_dir
            if ent.state is DIR_EXCLUSIVE:
                yield from self._get_s_owned(msg, ent)
            else:
                self._get_s_clean(msg, ent)
        finally:
            ent.busy.release()

    def _get_s_owned(self, msg: Message, ent):
        """Coroutine: the GET_S tail when a cache holds the line exclusive.

        3-hop: downgrade the owner; data flows owner->requester, sharing
        writeback flows owner->home.
        """
        requester = msg.requester
        if ent.owner == requester:
            # owner re-fetching after silent drop is impossible in
            # this model (clean evictions notify); treat as error.
            raise RuntimeError(f"owner {requester} re-requested {ent!r}")
        words = yield from self._intervene(ent.owner, msg, True)
        self.backing.write_line(ent.line_addr, words)
        ent.sharer_mask = (1 << ent.owner) | (1 << requester)
        ent.owner = None
        ent.state = DIR_SHARED

    def _get_s_clean(self, msg: Message, ent) -> None:
        """Clean read: memory supplies the data.  The directory slot is
        held only for the lookup/state update; the DRAM access and reply
        injection proceed after release, so a read *storm* serializes at
        (directory + channel occupancy), not at full access latency —
        Origin-style pipelined reads.  Racing invalidations/updates
        against the in-flight reply are handled by the requester's MSHR
        logic (see CacheController._fetch).

        Note: if the AMU caches a newer value for a word in this line,
        the reply is deliberately *stale* — the paper's
        release-consistency semantics (§3.2): AMU values become visible
        at the put (test match / eviction), not before.
        """
        words = self.backing.read_line(ent.line_addr, self._line_bytes)
        ent.sharer_mask |= 1 << msg.requester
        ent.state = DIR_SHARED
        ent.version += 1
        self.sim.spawn(self._finish_clean_read(msg, words),
                       self._name_readfill)

    def _finish_clean_read(self, msg: Message, words):
        """Coroutine: the pipelined tail of a clean GET_S (DRAM + reply)."""
        yield from self.dram.access_line()
        yield from self.hub.egress_send(Message(
            DATA_S, self.node, msg.src_node, msg.addr, None,
            words, msg.reply_to, msg.requester))

    # ------------------------------------------------------------------
    # GET_X — store miss / upgrade / LL-SC upgrade / atomic fetch
    # ------------------------------------------------------------------
    def _serve_get_x(self, msg: Message):
        self.get_x_served += 1
        line = line_base(msg.addr)
        ent = self.directory.entry(line)
        yield ent.busy.acquire()
        try:
            yield self._t_dir
            requester = msg.requester
            if ent.state is DIR_EXCLUSIVE and ent.owner != requester:
                words = yield from self._intervene(ent.owner, msg, False)
                self.backing.write_line(line, words)
                ent.owner = requester
                ent.version += 1
                # data went owner->requester directly; nothing more to send
            elif ent.state is DIR_EXCLUSIVE:
                # already the owner (racing duplicate); just re-acknowledge
                yield self._reply_data_x(msg, ent)
            else:
                if ent.amu_sharer:
                    yield from self.hub.amu.flush_line(line)
                    ent.amu_sharer = False
                inv_mask = ent.sharer_mask & ~(1 << requester)
                if inv_mask:
                    fanout = inv_mask.bit_count()
                    self._count_invalidations(fanout)
                    latch = AckLatch(fanout)
                    wave = self._build_wave(
                        INVALIDATE, self.node, msg.addr, None,
                        latch, expand_wave(
                            inv_mask, self.config.cpus_per_node))
                    yield self.hub.egress_wave(wave).wait()
                    yield latch.signal.wait()
                # bare yield: kernel-flattened subcall (one frame/resume)
                yield self._reply_data_x(msg, ent)
        finally:
            ent.busy.release()

    def _reply_data_x(self, msg: Message, ent) -> object:
        line = ent.line_addr
        yield self.dram.access_line()
        words = self.backing.read_line(line, self._line_bytes)
        ent.sharer_mask = 0
        ent.owner = msg.requester
        ent.state = DIR_EXCLUSIVE
        ent.amu_sharer = False
        ent.version += 1
        yield self.hub.egress_send(Message(
            DATA_X, self.node, msg.src_node, msg.addr, None, words,
            msg.reply_to, msg.requester))

    # ------------------------------------------------------------------
    # 3-hop intervention helper
    # ------------------------------------------------------------------
    def _intervene(self, owner: int, requester_msg: Message, downgrade: bool):
        """Forward an intervention to ``owner``; wait for its writeback.

        Returns the owner's line words (the coherent data).  The owner
        itself sends the data reply directly to the requester.
        """
        self.interventions_sent += 1
        done = Signal(name=f"intervene@{requester_msg.addr:#x}")
        node = self.hub.machine.node_of_cpu(owner)
        yield from self.hub.egress_send(Message(
            INTERVENTION, self.node, node, requester_msg.addr,
            "downgrade" if downgrade else "invalidate",
            (requester_msg, done), None, None, owner))
        wb_msg = yield done.wait()
        return wb_msg.payload  # words dict from the owner's cache

    # ------------------------------------------------------------------
    # writebacks (dirty eviction or clean-exclusive drop notification)
    # ------------------------------------------------------------------
    def _serve_writeback(self, msg: Message):
        self.writebacks_served += 1
        line = line_base(msg.addr)
        ent = self.directory.entry(line)
        yield ent.busy.acquire()
        try:
            yield self._t_dir
            if msg.payload is not None:
                yield from self.dram.access_line()
                self.backing.write_line(line, msg.payload)
            if ent.owner == msg.requester:
                ent.owner = None
                ent.state = DIR_UNOWNED
            elif ent.sharer_mask >> msg.requester & 1:
                ent.sharer_mask &= ~(1 << msg.requester)
                if not ent.sharer_mask and not ent.amu_sharer:
                    ent.state = DIR_UNOWNED
            ent.version += 1
            yield from self.hub.egress_send(Message(
                WRITEBACK_ACK, self.node, msg.src_node, msg.addr, None,
                None, msg.reply_to, msg.requester))
        finally:
            ent.busy.release()

    # ------------------------------------------------------------------
    # uncached accesses (MAO spin path, IO space)
    # ------------------------------------------------------------------
    def _serve_uncached_read(self, msg: Message):
        # The freshest value of a MAO-operated word lives in the AMU
        # cache (MAOs never write coherence state); serve from there.
        cached = self.hub.amu.peek(msg.addr)
        if cached is not None:
            yield Timeout(self.config.hub.hub_to_cpu(
                self.config.amu.op_latency_hub_cycles))
            value = cached
        else:
            value = yield from self.read_coherent_word(msg.addr)
        yield from self.hub.egress_send(Message(
            UNCACHED_READ_REPLY, self.node, msg.src_node, msg.addr, value,
            None, msg.reply_to, msg.requester))

    def _serve_uncached_write(self, msg: Message):
        yield from self.write_coherent_word(msg.addr, msg.value,
                                            push_updates=False)
        yield from self.hub.egress_send(Message(
            UNCACHED_WRITE_ACK, self.node, msg.src_node, msg.addr, None,
            None, msg.reply_to, msg.requester))

    # ------------------------------------------------------------------
    # coherent word access, used by the fine-grained engine / MAO path
    # ------------------------------------------------------------------
    def read_coherent_word(self, addr: int):
        """Coroutine: coherent value of one word (home-local entry point).

        If a processor cache holds the line exclusively, the owner is
        downgraded (3-hop); otherwise memory (or the AMU cache, checked by
        callers) supplies the value.
        """
        line = line_base(addr)
        ent = self.directory.entry(line)
        yield ent.busy.acquire()
        try:
            yield self._t_dir
            if ent.state is DIR_EXCLUSIVE:
                fake_req = Message(FG_GET, self.node, self.node, addr)
                words = yield from self._intervene(ent.owner, fake_req, True)
                self.backing.write_line(line, words)
                ent.sharer_mask = 1 << ent.owner
                ent.owner = None
                ent.state = DIR_SHARED
                ent.version += 1
            yield from self.dram.access_word()
            return self.backing.read_word(addr)
        finally:
            ent.busy.release()

    def write_coherent_word(self, addr: int, value: int,
                            push_updates: bool) -> object:
        """Coroutine: write one word at the home (fine-grained put).

        With ``push_updates`` (the paper's put mechanism), a WORD_UPDATE
        is pushed to every sharer's cache — the line stays SHARED, no
        invalidations, no reloads.  Without it (MAO/uncached semantics),
        sharers must be invalidated to keep caches coherent.
        """
        line = line_base(addr)
        ent = self.directory.entry(line)
        yield ent.busy.acquire()
        try:
            yield self._t_dir
            if ent.state is DIR_EXCLUSIVE:
                # pull the line home first (rare: sync variables are not
                # normally write-shared with exclusive owners)
                fake_req = Message(FG_PUT, self.node, self.node, addr)
                words = yield from self._intervene(ent.owner, fake_req, True)
                self.backing.write_line(line, words)
                ent.sharer_mask = 1 << ent.owner
                ent.owner = None
                ent.state = DIR_SHARED
            yield from self.dram.access_word()
            self.backing.write_word(addr, value)
            san = self.hub.machine.sanitizer
            if san is not None:
                san.note_coherent_write(addr, value, push_updates)
            ent.version += 1
            if push_updates:
                if ent.sharer_mask:
                    fanout = ent.sharer_mask.bit_count()
                    self.word_updates_pushed += fanout
                    obs = self.hub.machine.obs
                    if obs is not None:
                        obs.update_fanout.observe(fanout)
                    word = word_base(addr)
                    updates = self._build_wave(
                        WORD_UPDATE, self.node, word, value,
                        None, expand_wave(
                            ent.sharer_mask, self.config.cpus_per_node))
                    if self.config.network.multicast_updates:
                        # hardware multicast (footnote 2): the routers
                        # replicate the packet — one injection slot
                        # total, batched lazy delivery for the replicas
                        yield self.hub.egress_wave(updates[:1]).wait()
                        self.net.send_multicast(updates[1:])
                    else:
                        yield self.hub.egress_wave(updates).wait()
            elif ent.sharer_mask:
                fanout = ent.sharer_mask.bit_count()
                self._count_invalidations(fanout)
                latch = AckLatch(fanout)
                wave = self._build_wave(
                    INVALIDATE, self.node, addr, None, latch,
                    expand_wave(
                        ent.sharer_mask, self.config.cpus_per_node))
                yield self.hub.egress_wave(wave).wait()
                yield latch.signal.wait()
                ent.sharer_mask = 0
                if not ent.amu_sharer:
                    ent.state = DIR_UNOWNED
        finally:
            ent.busy.release()

    # ------------------------------------------------------------------
    def mark_amu_sharer(self, addr: int) -> None:
        """Register the local AMU as a fine-grained sharer of the line."""
        ent = self.directory.entry(line_base(addr))
        ent.amu_sharer = True
        if ent.state is DIR_UNOWNED:
            ent.state = DIR_SHARED

    def unmark_amu_sharer(self, addr: int) -> None:
        ent = self.directory.entry(line_base(addr))
        ent.amu_sharer = False
        if ent.state is DIR_SHARED and not ent.sharer_mask:
            ent.state = DIR_UNOWNED
