"""The Active Memory Unit proper.

A single dispatcher process drains the request queue (the paper's Figure 2
queue + READY handshake), so operations on the home's synchronization
variables serialize at the function unit: a cache-resident AMO costs two
hub cycles of FU time regardless of how many processors contend — the
paper's key constant.

The unit serves both AMO_REQUEST (coherent, test value, put pushes) and
MAO_REQUEST (non-coherent; same FU and cache, per the paper's evaluation
setup: "The AMU cache is used for both MAOs and AMOs").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.amu.cache import AmuCache
from repro.amu.ops import AmoCommand
from repro.mem.address import home_of, word_base
from repro.network.message import AMO_REPLY, MAO_REPLY, Message
from repro.sim.primitives import FifoQueue, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Hub


class ActiveMemoryUnit:
    """AMU instance inside one hub."""

    __slots__ = ("hub", "sim", "node", "config", "cache", "queue",
                 "ops_executed", "puts_issued", "test_matches",
                 "puts_deferred", "_dispatcher")

    def __init__(self, hub: "Hub") -> None:
        self.hub = hub
        self.sim = hub.sim
        self.node = hub.node
        self.config = hub.config
        self.cache = AmuCache(self.config.amu.cache_words)
        self.queue = FifoQueue(name=f"amu[{hub.node}]")
        self.ops_executed = 0
        self.puts_issued = 0
        #: ops whose result matched their §3.2 test value
        self.test_matches = 0
        #: ops that updated the AMU cache *without* a put — the deferred
        #: visibility window of the paper's release-consistency semantics
        self.puts_deferred = 0
        self._dispatcher = self.sim.spawn(self._dispatch_loop(),
                                          f"amu-dispatch[{hub.node}]")

    # ------------------------------------------------------------------
    def enqueue(self, msg: Message) -> None:
        """Hub delivery path for AMO_REQUEST / MAO_REQUEST messages."""
        if home_of(msg.addr) != self.node:
            raise RuntimeError(
                f"AMO for {msg.addr:#x} routed to non-home node {self.node}")
        self.queue.put(self.sim, msg)

    def peek(self, addr: int):
        """AMU-cached value of a word, or None (MAO uncached-read path)."""
        return self.cache.peek(addr)

    # ------------------------------------------------------------------
    def _dispatch_loop(self):
        hub_cfg = self.config.hub
        dispatch = hub_cfg.hub_to_cpu(self.config.amu.dispatch_hub_cycles)
        op_time = hub_cfg.hub_to_cpu(self.config.amu.op_latency_hub_cycles)
        while True:
            msg = yield self.queue.get()
            cmd: AmoCommand = msg.payload
            op = cmd.resolve_op()
            word = word_base(msg.addr)
            yield Timeout(dispatch)

            if not self.config.amu.cache_enabled:
                # Ablation: read-modify-write straight against memory.
                old = yield from self.hub.home_engine.read_coherent_word(word)
                yield Timeout(op_time)
                new = op.apply(old, cmd.operand)
                if cmd.test is not None and new == cmd.test:
                    self.test_matches += 1
                push = cmd.should_push(new)
                san = self.hub.machine.sanitizer
                if san is not None:
                    san.note_amu_op(self.node, word, old, new,
                                    coherent=cmd.coherent, will_push=push)
                yield from self.hub.home_engine.write_coherent_word(
                    word, new, push_updates=push)
            else:
                entry = self.cache.lookup(word)
                if entry is None:
                    yield from self._fill(word, coherent=cmd.coherent)
                    entry = self.cache.lookup(word)
                    assert entry is not None
                yield Timeout(op_time)
                # The RMW itself is atomic in simulated time (no yields
                # between read, compute and write).
                old = entry.value
                new = op.apply(old, cmd.operand)
                entry.value = new
                if cmd.test is not None and new == cmd.test:
                    self.test_matches += 1
                push = cmd.should_push(new)
                san = self.hub.machine.sanitizer
                if san is not None:
                    san.note_amu_op(self.node, word, old, new,
                                    coherent=cmd.coherent, will_push=push)
                if push:
                    self.puts_issued += 1
                    yield from self.hub.home_engine.write_coherent_word(
                        word, new, push_updates=True)
                else:
                    self.puts_deferred += 1

            self.ops_executed += 1
            reply_kind = AMO_REPLY if cmd.coherent else MAO_REPLY
            # Reply injection is pipelined: the FU moves on to the next
            # queued op while the NI serializes the outbound packet (the
            # egress resource still bounds injection throughput).
            self.sim.spawn(self.hub.egress_send(Message(
                reply_kind, self.node, msg.src_node, msg.addr, old, None,
                msg.reply_to, msg.requester)), f"amu-reply[{self.node}]")

    def _fill(self, word: int, coherent: bool):
        """Coroutine: bring a word into the AMU cache, evicting if full."""
        if self.cache.full:
            victim = self.cache.victim()
            self.cache.drop(victim.word_addr)
            # Evicted values become memory-visible via a full put: the
            # coherent write keeps sharer caches patched too.
            yield from self.hub.home_engine.write_coherent_word(
                victim.word_addr, victim.value, push_updates=True)
            self.hub.home_engine.unmark_amu_sharer(victim.word_addr)
        value = yield from self.hub.home_engine.read_coherent_word(word)
        if coherent:
            self.hub.home_engine.mark_amu_sharer(word)
        self.cache.insert(word, value)

    # ------------------------------------------------------------------
    def flush_line(self, line_addr: int):
        """Coroutine: write all cached words of a line back to memory.

        Called by the home engine *while it holds the line busy* (a
        processor GET_X is reconciling coherence), so this must not
        re-acquire the directory resource — it goes straight to DRAM.
        """
        for entry in self.cache.words_in_line(line_addr,
                                              self.config.line_bytes):
            self.cache.drop(entry.word_addr)
            yield from self.hub.dram.access_word()
            self.hub.backing.write_word(entry.word_addr, entry.value)
