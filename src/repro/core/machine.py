"""Machine assembly: nodes, hubs, processors, and run helpers.

A :class:`Machine` is the root object of every simulation::

    from repro import Machine, SystemConfig

    m = Machine(SystemConfig.table1(n_processors=16))
    counter = m.alloc("counter", home_node=0)

    def thread(proc):
        old = yield from proc.amo_inc(counter.addr, test=16)
        yield from proc.spin_until(counter.addr, lambda v: v >= 16)

    m.run_threads(thread)        # one thread per CPU, to completion

Each node's :class:`Hub` models the paper's Figure 2 chip: processor
interface, memory controller (DRAM + backing store), directory controller
(home engine), network interface (egress port with injection
serialization), active memory unit, and the active-message endpoint.
"""

from __future__ import annotations

import gc
from typing import Callable, Optional

from repro.activemsg.endpoint import ActiveMessageEndpoint
import repro.activemsg.handlers  # noqa: F401  (registers built-in handlers)
from repro.amu.unit import ActiveMemoryUnit
from repro.cache.state import LINE_EXCLUSIVE
from repro.coherence.directory import DIR_EXCLUSIVE
from repro.coherence.protocol import HomeEngine
from repro.config.parameters import SystemConfig
from repro.cpu.processor import Processor
from repro.mem.address import AddressSpace, Variable
from repro.mem.backing import BackingStore
from repro.mem.dram import Dram
from repro.network.fabric import Network
from repro.network.message import (
    AMO_REQUEST, AM_REQUEST, GET_S, GET_X, INTERVENTION, INVALIDATE, INV_ACK,
    MAO_REQUEST, UNCACHED_READ, UNCACHED_WRITE, WORD_UPDATE, WRITEBACK,
    Message,
)
from repro.sim.backends import create_simulator
from repro.sim.backends.model import model_classes
from repro.sim.primitives import Resource, Signal, Timeout, all_of


class _EgressWave:
    """One fan-out packet train through an egress port, one kernel event
    per packet.

    Behaviour-equivalent to a coroutine injecting the train with
    sequential :meth:`Hub.egress_send` calls — same grant cycles, same
    FIFO fairness with queued processes (after each packet a queued
    waiter takes the port before the wave's next packet), same injection
    times, same resource accounting — but the per-packet *acquire-grant*
    and *occupancy-timeout* generator resumptions collapse into a single
    expiry callback, which is what makes N-way invalidation waves and
    word-update pushes O(1) kernel events per packet with no generator
    frames at all.  ``done`` fires at the last packet's injection cycle;
    callers must wait on it before proceeding (the legacy coroutine
    could not proceed before its last injection either).

    The wave joins the egress :class:`Resource`'s FIFO queue as a
    duck-typed process: ``Resource.release`` resumes whatever it pops
    via ``._rn``, so an object exposing that attribute can stand in
    line with real processes.

    ``_rn`` and ``_expiry`` are event tuples holding callbacks bound to
    the wave itself.  After the last packet ``_expire`` sets them and
    ``messages`` to None, so the spent wave dies by refcount instead
    of waiting for the cyclic collector.
    """

    __slots__ = ("hub", "sim", "res", "messages", "occ", "index", "done",
                 "_rn", "_expiry")

    def __init__(self, hub: "Hub", messages: list[Message], occ: int,
                 done: Signal) -> None:
        self.hub = hub
        self.sim = hub.sim
        self.res = hub._egress
        self.messages = messages
        self.occ = occ
        self.index = 0
        self.done = done
        self._rn = (self._granted, ())
        self._expiry = (self._expire, ())

    def start(self) -> None:
        res = self.res
        res._sim = self.sim
        if res._busy:
            res._queue.append(self)
        else:
            res._busy = True
            res.grants += 1
            res._acquired_at = self.sim.now
            self.sim._push_future(self.sim.now + self.occ, self._expiry)

    def _granted(self) -> None:
        # Resource.release already did the grant bookkeeping for us
        self.sim._push_future(self.sim.now + self.occ, self._expiry)

    def _expire(self) -> None:
        sim, res = self.sim, self.res
        now = sim.now
        res.busy_cycles += now - res._acquired_at
        msg = self.messages[self.index]
        self.index += 1
        more = self.index < len(self.messages)
        if res._queue:
            # grant the port to the queued process first; with packets
            # left, rejoin at the tail (exactly where a re-acquiring
            # coroutine would land)
            waiter = res._queue.popleft()
            res.grants += 1
            res._acquired_at = now
            sim._ring.append(waiter._rn)
            if more:
                res._queue.append(self)
        elif more:
            # immediate self re-grant (legacy: release, then re-acquire
            # in the same cycle with nobody waiting)
            res.grants += 1
            res._acquired_at = now
            sim._push_future(now + self.occ, self._expiry)
        else:
            res._busy = False
        self.hub.net.send(msg)
        if not more:
            self.done.fire(sim)
            self._rn = self._expiry = self.messages = None


class Hub:
    """One node's hub chip (Figure 2): MC, directory, NI, AMU, AM endpoint."""

    #: cache-controller class override; None means the reference
    #: CacheController (set on the accel hub subclass so Processor picks
    #: up the compiled-coroutine controller without an import cycle)
    _controller_cls = None

    #: home-engine class override; None means the reference HomeEngine
    _home_cls = None

    __slots__ = ("machine", "node", "sim", "config", "net", "backing",
                 "dram", "_egress", "home_engine", "amu", "actmsg",
                 "controllers", "_t_egress_update", "_t_egress_ctrl",
                 "_t_egress_line", "_routes")

    def __init__(self, machine: "Machine", node: int) -> None:
        self.machine = machine
        self.node = node
        self.sim = machine.sim
        self.config = machine.config
        self.net = machine.net
        self.backing = machine.backing
        self.dram = Dram(self.sim, node, self.config.dram)
        self._egress = Resource(name=f"egress[{node}]")
        self.home_engine = (self._home_cls or HomeEngine)(self)
        self.amu = ActiveMemoryUnit(self)
        self.actmsg = ActiveMessageEndpoint(self)
        self.net.attach(node, self.receive)
        #: controllers of the CPUs on this node, keyed by cpu id
        self.controllers: dict[int, object] = {}
        # Egress occupancy depends only on the message kind; Timeout is
        # stateless, so one instance per cost class serves every send.
        hub_cfg = self.config.hub
        self._t_egress_update = Timeout(
            hub_cfg.hub_to_cpu(hub_cfg.update_egress_hub_cycles))
        self._t_egress_ctrl = Timeout(
            hub_cfg.hub_to_cpu(hub_cfg.egress_occupancy_hub_cycles))
        self._t_egress_line = Timeout(
            hub_cfg.hub_to_cpu(hub_cfg.egress_occupancy_hub_cycles * 2))
        #: delivery routing table, kind -> handler (see :meth:`receive`)
        self._routes = {
            GET_S: self.home_engine.handle,
            GET_X: self.home_engine.handle,
            WRITEBACK: self.home_engine.handle,
            UNCACHED_READ: self.home_engine.handle,
            UNCACHED_WRITE: self.home_engine.handle,
            INVALIDATE: self._on_invalidate,
            INTERVENTION: self._on_intervention,
            WORD_UPDATE: self._on_word_update,
            INV_ACK: self._on_inv_ack,
            AMO_REQUEST: self.amu.enqueue,
            MAO_REQUEST: self.amu.enqueue,
            AM_REQUEST: self.actmsg.handle,
        }

    # ------------------------------------------------------------------
    def egress_send(self, msg: Message):
        """Coroutine: inject a message through this hub's egress port.

        The port serializes injection — an N-target fan-out (invalidation
        wave, word-update push) costs N injection slots.  Line-carrying
        packets occupy the port twice as long as control/word packets.
        """
        kind = msg.kind
        if kind is WORD_UPDATE:
            occupancy = self._t_egress_update
        elif kind.carries_line:
            occupancy = self._t_egress_line
        else:
            occupancy = self._t_egress_ctrl
        yield self._egress.acquire()
        try:
            yield occupancy
        finally:
            self._egress.release()
        self.net.send(msg)

    def egress_wave(self, messages: list[Message]) -> Signal:
        """Inject a same-kind packet train through this hub's egress port.

        Cycle-equivalent to injecting each packet with
        :meth:`egress_send` back to back, at one kernel event per packet
        instead of three (see :class:`_EgressWave`).  Returns a signal
        that fires at the last packet's injection; the caller must
        ``yield`` its ``wait()`` before touching protocol state the wave
        publishes — matching where the sequential coroutine resumed.
        """
        kind = messages[0].kind
        if kind is WORD_UPDATE:
            occ = self._t_egress_update.delay
        elif kind.carries_line:
            occ = self._t_egress_line.delay
        else:
            occ = self._t_egress_ctrl.delay
        done = Signal(name=f"egress-wave[{self.node}]")
        _EgressWave(self, messages, occ, done).start()
        return done

    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        """Delivery dispatch for messages addressed to this node.

        One dict probe per delivery (enum members hash by identity)
        instead of a membership-scan cascade — this sits on every
        message's critical path.
        """
        route = self._routes.get(msg.kind)
        if route is None:
            raise RuntimeError(f"hub {self.node}: unroutable {msg!r}")
        route(msg)

    def _on_invalidate(self, msg: Message) -> None:
        self._controller_of(msg).on_invalidate(msg)

    def _on_intervention(self, msg: Message) -> None:
        self._controller_of(msg).on_intervention(msg)

    def _on_word_update(self, msg: Message) -> None:
        self._controller_of(msg).on_word_update(msg)

    def _on_inv_ack(self, msg: Message) -> None:
        msg.payload.ack(self.sim)

    def _controller_of(self, msg: Message):
        if msg.dst_cpu is None:
            raise RuntimeError(f"{msg!r} has no dst_cpu")
        ctrl = self.controllers.get(msg.dst_cpu)
        if ctrl is None:
            raise RuntimeError(
                f"cpu{msg.dst_cpu} is not on node {self.node}")
        return ctrl


class Machine:
    """A complete simulated CC-NUMA multiprocessor."""

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config or SystemConfig()
        self.sim = create_simulator(self.config.kernel_backend)
        self.backing = BackingStore()
        net_cls, hub_cls = model_classes(self.config.kernel_backend)
        self.net = net_cls(self.sim, self.config.n_nodes, self.config.network)
        self.address_space = AddressSpace(self.config.n_nodes)
        self.hubs = [hub_cls(self, node) for node in range(self.config.n_nodes)]
        self.cpus: list[Processor] = []
        #: simulated time when the last thread of the most recent
        #: :meth:`run_threads` finished (excludes stale timer events)
        self.last_completion_time = 0
        #: optional TraceRecorder (see repro.trace) — None = no tracing
        self.tracer = None
        #: optional MachineMetrics (see repro.obs) — None = no metrics
        self.obs = None
        #: optional CoherenceSanitizer (see repro.check) — None = unchecked
        self.sanitizer = None
        for cpu_id in range(self.config.n_processors):
            hub = self.hubs[self.node_of_cpu(cpu_id)]
            proc = Processor(cpu_id, hub)
            hub.controllers[cpu_id] = proc.controller
            self.cpus.append(proc)

    # ------------------------------------------------------------------
    @property
    def n_processors(self) -> int:
        return self.config.n_processors

    def node_of_cpu(self, cpu_id: int) -> int:
        return cpu_id // self.config.cpus_per_node

    # ------------------------------------------------------------------
    # memory placement & direct access
    # ------------------------------------------------------------------
    def alloc(self, name: str, home_node: int = 0, words: int = 1,
              stride_lines: bool = False) -> Variable:
        """Allocate a shared variable homed at ``home_node``."""
        return self.address_space.alloc(name, home_node, words=words,
                                        stride_lines=stride_lines)

    def poke(self, addr: int, value: int) -> None:
        """Zero-time direct write to memory (workload initialization).

        Only safe before threads run or between episodes when the word is
        known uncached; tests assert both usages.
        """
        self.backing.write_word(addr, value)
        if self.sanitizer is not None:
            self.sanitizer.note_poke(addr, value)

    def peek(self, addr: int) -> int:
        """Zero-time coherent-best-effort read: AMU cache, any exclusive
        cache copy, else memory (end-of-run verification)."""
        from repro.mem.address import home_of
        amu_val = self.hubs[home_of(addr)].amu.peek(addr)
        if amu_val is not None:
            return amu_val
        for proc in self.cpus:
            line = proc.controller.l2.probe(addr)
            if line is not None and line.dirty:
                return line.read_word(addr)
        return self.backing.read_word(addr)

    # ------------------------------------------------------------------
    # running workloads
    # ------------------------------------------------------------------
    def run_threads(self, thread_fn: Callable, cpus: Optional[list[int]] = None,
                    max_events: Optional[int] = None) -> list:
        """Spawn ``thread_fn(processor)`` on each CPU and run to completion.

        Returns the per-thread results in CPU order.  Raises on deadlock
        (event queue drained with threads still blocked).

        Python's cyclic collector is paused while the threads run and
        re-enabled on the way out, however the run ends.  The event path
        leaves no cyclic garbage (tests/sim/test_garbage_free.py), so a
        collection here would only rescan the long-lived machine heap.
        A caller that disabled the collector itself keeps it disabled.
        """
        targets = self.cpus if cpus is None else [self.cpus[i] for i in cpus]
        def _main():
            procs = [self.sim.spawn(thread_fn(p), f"thread-cpu{p.cpu_id}")
                     for p in targets]
            results = yield from all_of(self.sim, procs)
            # Stale events (unexpired retransmission timers) may run the
            # clock past this point; completion time is captured here.
            self.last_completion_time = self.sim.now
            return results
        collecting = gc.isenabled()
        if collecting:
            gc.disable()
        try:
            return self.sim.run_process(_main(), name="run_threads",
                                        max_events=max_events)
        finally:
            if collecting:
                gc.enable()

    # ------------------------------------------------------------------
    # snapshot / restore (the machine pool)
    # ------------------------------------------------------------------
    def snapshot(self):
        """Checkpoint all mutable simulation state at quiescence.

        The returned :class:`~repro.core.snapshot.MachineSnapshot` is
        bound to this machine; :meth:`restore` rewinds to it in place.
        Requires a fully drained event queue and no attached sanitizer
        (see :mod:`repro.core.snapshot` for the full contract).
        """
        from repro.core.snapshot import MachineSnapshot
        return MachineSnapshot(self)

    def restore(self, snap) -> None:
        """Rewind this machine to ``snap`` (in place, at quiescence).

        A restored machine re-runs cycle-for-cycle identically to a
        fresh build replayed from the same point — the determinism
        parity suite pins this against golden fingerprints.
        """
        if snap.machine is not self:
            raise ValueError(
                "snapshot belongs to a different machine instance; "
                "restore is in-place (live coroutines cannot be copied)")
        snap.restore()

    def check_coherence_invariants(self) -> None:
        """Directory/cache cross-checks; used liberally by the test suite."""
        # exclusive L2 holders of each line, in CPU order: one pass over
        # the resident lines instead of a probe per (entry, CPU)
        exclusive: dict[int, list[int]] = {}
        for p in self.cpus:
            for ln in p.controller.l2.resident_lines():
                if ln.state is LINE_EXCLUSIVE:
                    exclusive.setdefault(ln.line_addr, []).append(p.cpu_id)
        for hub in self.hubs:
            for ent in hub.home_engine.directory.known_entries():
                ent.check()
                owners = exclusive.get(ent.line_addr, [])
                if ent.state is DIR_EXCLUSIVE:
                    assert owners == [ent.owner], (
                        f"{ent!r}: cache owners {owners}")
                else:
                    assert not owners, (
                        f"{ent!r}: unexpected exclusive copies {owners}")

    def describe(self) -> str:
        """Human-readable machine summary (CPUs, nodes, topology, key
        latencies) — handy at the top of experiment logs."""
        cfg = self.config
        topo = self.net.topology
        lines = [
            f"{cfg.n_processors} CPUs on {cfg.n_nodes} nodes "
            f"({cfg.cpus_per_node}/node), "
            f"{topo.n_levels}-level radix-{topo.radix} fat tree "
            f"(diameter {topo.diameter_hops} hops)",
            f"L1 {cfg.l1.size_bytes // 1024}KB/{cfg.l1.ways}w/"
            f"{cfg.l1.latency_cycles}cy, "
            f"L2 {cfg.l2.size_bytes // (1024 * 1024)}MB/{cfg.l2.ways}w/"
            f"{cfg.l2.latency_cycles}cy, "
            f"DRAM {cfg.dram.latency_cycles}cy, "
            f"hop {cfg.network.hop_latency_cycles}cy",
            f"AMU: {cfg.amu.cache_words}-word cache, "
            f"{cfg.amu.op_latency_hub_cycles} hub-cycle ops"
            + ("" if cfg.amu.cache_enabled else " (cache DISABLED)"),
        ]
        return "\n".join(lines)
