"""The interconnect fabric: message transport with latency and accounting.

:class:`Network` owns the topology, the traffic statistics, and the
delivery machinery.  ``send`` is non-blocking: it computes the end-to-end
latency (hops x hop latency, or the crossbar latency for node-local
traffic), records the packet, and schedules delivery.  *Occupancy* at the
endpoints (hub egress serialization when the home fans out N invalidations
or updates) is charged by the sender holding its hub's egress resource —
see :meth:`repro.core.machine.Hub.egress_send`.

Delivery dispatch order:

1. ``msg.reply_to`` set and the kind is a reply → fire the signal with
   ``msg`` (resumes the coroutine blocked on the transaction);
2. otherwise the destination handler registered via :meth:`attach` is
   invoked with the message (request servicing path).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config.parameters import NetworkConfig
from repro.network.message import Message
from repro.network.stats import TrafficStats
from repro.network.topology import FatTreeTopology
from repro.sim.kernel import Simulator


class Network:
    """Latency/statistics model of the fat-tree interconnect."""

    def __init__(self, sim: Simulator, n_nodes: int,
                 config: Optional[NetworkConfig] = None) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        # tableless (hops are computed on demand), so each Network owns
        # one; _route memoizes the pairs actually used
        self.topology = FatTreeTopology(n_nodes, radix=self.config.router_radix)
        self.stats = TrafficStats()
        # node -> delivery handler; dense, so a list beats a dict probe
        self._handlers: list[Optional[Callable[[Message], None]]] = \
            [None] * n_nodes
        # hooks observing every injected message (tracing, profiling,
        # metrics) — see subscribe_send
        self._send_hooks: list[Callable[[Message, int], None]] = []
        # per-node link reservations (timestamp model, contention mode)
        self._uplink_free_at = [0] * n_nodes
        self._downlink_free_at = [0] * n_nodes
        self.link_busy_cycles = 0
        # per-directed-link reservations (router-contention mode)
        self._link_free_at: dict[tuple, int] = {}
        #: optional DelayInjector (see repro.network.faults); perturbs
        #: delivery times while preserving per-(src,dst) FIFO order
        self.delay_injector = None
        #: optional ReorderInjector; relaxes the FIFO guarantee itself
        #: to per-(src,dst,line) with bounded jitter (weak-memory mode)
        self.reorder_injector = None
        self._last_delivery: dict[tuple, int] = {}
        #: per-source injection sequence numbers — the ``(src, seq)``
        #: delivery-phase keys (see Simulator._push_delivery) that give
        #: same-cycle arrivals a canonical order
        self._inj_seq = [0] * n_nodes
        # (src, dst) -> (hops, base_latency): route metrics are static,
        # so the send fast path pays one dict probe instead of a
        # hop computation plus a latency recomputation per packet
        self._route_cache: dict[tuple[int, int], tuple[int, int]] = {}

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    # ------------------------------------------------------------------
    def attach(self, node: int, handler: Callable[[Message], None]) -> None:
        """Register the request handler (the hub) for ``node``."""
        self._handlers[node] = handler

    # ------------------------------------------------------------------
    # send observation hooks
    # ------------------------------------------------------------------
    def subscribe_send(self, hook: Callable[[Message, int], None]) -> None:
        """Add a ``hook(msg, hops)`` called on every injected message.

        Hooks are observation-only (tracers, profilers, metrics) and are
        invoked in subscription order; any number may be attached
        concurrently.  Subscribing the same callable twice is a no-op.
        """
        if hook not in self._send_hooks:
            self._send_hooks.append(hook)

    def unsubscribe_send(self, hook: Callable[[Message, int], None]) -> None:
        """Remove a previously subscribed hook (missing hook is a no-op)."""
        try:
            self._send_hooks.remove(hook)
        except ValueError:
            pass

    def _route(self, src: int, dst: int) -> tuple[int, int]:
        """Cached ``(hops, one-way latency)`` for a node pair."""
        key = (src, dst)
        route = self._route_cache.get(key)
        if route is None:
            if src == dst:
                route = (0, self.config.local_latency_cycles)
            else:
                hops = self.topology.hops(src, dst)
                route = (hops, hops * self.config.hop_latency_cycles)
            self._route_cache[key] = route
        return route

    def latency(self, src: int, dst: int) -> int:
        """One-way latency in CPU cycles between two nodes."""
        return self._route(src, dst)[1]

    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Inject ``msg``; it will be delivered after the path latency.

        In link-contention mode, the packet additionally reserves the
        source node's uplink and the destination node's downlink for its
        serialization time (size / link bandwidth), modelled with
        timestamp reservations — deterministic and allocation-free.
        The hot-spot effect this adds is convergence at a *home node's
        downlink* under request storms.
        """
        hops, base_latency = self._route(msg.src_node, msg.dst_node)
        self.stats.record(msg, hops)
        if self._send_hooks:
            for hook in self._send_hooks:
                hook(msg, hops)
        config = self.config
        if config.model_router_contention and hops > 0:
            self._schedule_delivery(msg, self._reserve_path(msg))
            return
        if not config.model_link_contention or hops == 0:
            # fast path: latency-only delivery, no reservations; the
            # scheduling is inlined (one phase push) — this is every
            # packet's path in the paper-default configuration
            if self.delay_injector is None and self.reorder_injector is None:
                sim = self.sim
                if base_latency:
                    src = msg.src_node
                    seqs = self._inj_seq
                    seq = seqs[src]
                    seqs[src] = seq + 1
                    sim._push_delivery(sim.now + base_latency, (src, seq),
                                       (self._deliver, (msg,)))
                else:
                    # zero-latency implies src == dst (node-local):
                    # plain FIFO ring order
                    sim._ring.append((self._deliver, (msg,)))
            else:
                self._schedule_delivery(msg, self.sim.now + base_latency)
            return
        now = self.sim.now
        transfer = max(1, int(msg.size_bytes
                              / self.config.link_bandwidth_bytes_per_cycle))
        up_start = max(now, self._uplink_free_at[msg.src_node])
        self._uplink_free_at[msg.src_node] = up_start + transfer
        arrival = up_start + transfer + base_latency
        down_start = max(arrival, self._downlink_free_at[msg.dst_node])
        self._downlink_free_at[msg.dst_node] = down_start + transfer
        self.link_busy_cycles += 2 * transfer
        self._schedule_delivery(msg, down_start + transfer)

    def send_multicast(self, messages: list[Message]) -> None:
        """Inject a router-replicated packet train (hardware multicast).

        Statistics and send hooks observe every logical packet exactly
        as with per-packet :meth:`send`, but delivery is batched: one
        kernel event per *distinct arrival time* carrying the packets
        due then, expanded lazily at delivery in injection order.  On a
        fat tree the distinct hop counts grow with the tree's depth —
        O(log P) — so a P-way word-update fan-out stops costing O(P)
        host-side events.  Contention and fault-injection modes need
        per-packet reservations/delays and fall back to :meth:`send`.
        """
        config = self.config
        if (config.model_router_contention or config.model_link_contention
                or self.delay_injector is not None
                or self.reorder_injector is not None):
            for msg in messages:
                self.send(msg)
            return
        sim = self.sim
        now = sim.now
        record = self.stats.record
        hooks = self._send_hooks
        seqs = self._inj_seq
        # latency -> member list; the group is one delivery-phase entry
        # keyed like a unicast send, by the injection seq of its *first*
        # packet.  All of a group's seqs are contiguous (nothing else
        # injects inside this loop), so that key orders the group
        # correctly against every other same-cycle injection from this
        # source.
        groups: dict[int, list] = {}
        for msg in messages:
            hops, base_latency = self._route(msg.src_node, msg.dst_node)
            record(msg, hops)
            if hooks:
                for hook in hooks:
                    hook(msg, hops)
            if base_latency:
                src = msg.src_node
                seq = seqs[src]
                seqs[src] = seq + 1
                group = groups.get(base_latency)
                if group is None:
                    # the event captures the list; packets grouped
                    # later this cycle ride along for free
                    groups[base_latency] = group = []
                    sim._push_delivery(now + base_latency, (src, seq),
                                       (self._deliver_group, (group,)))
                group.append(msg)
            else:
                sim._ring.append((self._deliver, (msg,)))

    def _deliver_group(self, messages: list[Message]) -> None:
        deliver = self._deliver
        for msg in messages:
            deliver(msg)

    def _reserve_path(self, msg: Message) -> int:
        """Store-and-forward reservation of every link on the path.

        Each directed link is held for the packet's serialization time;
        crossing it additionally costs the hop latency.  Returns the
        delivery time.  Flows sharing a directed link (converging on a
        hot home, funneling through the root) serialize exactly there.
        """
        transfer = max(1, int(msg.size_bytes
                              / self.config.link_bandwidth_bytes_per_cycle))
        t = self.sim.now
        for link in self.topology.path_links(msg.src_node, msg.dst_node):
            start = max(t, self._link_free_at.get(link, 0))
            self._link_free_at[link] = start + transfer
            self.link_busy_cycles += transfer
            t = start + transfer + self.config.hop_latency_cycles
        return t

    def _schedule_delivery(self, msg: Message, when: int) -> None:
        """Schedule delivery at ``when`` (+ any injected fault delay).

        Ordering floor: per-(src,dst) FIFO — the point-to-point ordering
        the interconnect hardware guarantees and the protocol assumes —
        unless a :class:`~repro.network.faults.ReorderInjector` is
        installed, in which case the floor weakens to per
        (src, dst, cache line): same-line traffic stays ordered (the
        per-line coherence state machines require it) while cross-line
        messages may overtake within the injector's bounded window."""
        delay = self.delay_injector
        reorder = self.reorder_injector
        if delay is not None:
            when += delay.extra_delay(msg)
        if reorder is not None:
            when += reorder.extra_delay(msg)
            key = reorder.order_key(msg)
        elif delay is not None:
            key = (msg.src_node, msg.dst_node)
        else:
            key = None
        if key is not None:
            floor = self._last_delivery.get(key, -1)
            when = max(when, floor + 1)
            self._last_delivery[key] = when
        self.sim.schedule_at(when, self._deliver, msg)

    def _deliver(self, msg: Message) -> None:
        """Dispatch one arrived packet: fire its reply signal, or hand
        it to the destination hub.

        A delivered reply's ``reply_to`` is cleared before the fire.
        The signal's ``value`` is the reply itself, so keeping the
        back-reference would tie the two into a cycle that only the
        cyclic GC could free; nothing reads a reply's ``reply_to``
        after delivery.
        """
        reply_to = msg.reply_to
        if reply_to is not None and msg.kind.is_reply:
            msg.reply_to = None
            # try_fire: a reply racing its requester's retransmission
            # timeout (active messages) is silently dropped — the
            # retransmit path owns delivery then.
            reply_to.try_fire(self.sim, msg)
            return
        handler = self._handlers[msg.dst_node]
        if handler is None:
            raise RuntimeError(
                f"no handler attached to node {msg.dst_node} for {msg!r}")
        handler(msg)

    # ------------------------------------------------------------------
    def reply(self, request: Message, kind, value=None, payload=None,
              src_node: Optional[int] = None) -> None:
        """Convenience: send a reply for ``request`` back to its source,
        carrying the request's ``reply_to`` signal."""
        self.send(Message(
            kind=kind,
            src_node=request.dst_node if src_node is None else src_node,
            dst_node=request.src_node,
            addr=request.addr,
            value=value,
            payload=payload,
            reply_to=request.reply_to,
            requester=request.requester,
        ))
