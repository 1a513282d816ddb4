"""Active-message endpoints: handler execution, dedup, retransmission.

Receive path (home side)
------------------------
Each node has one endpoint.  Handlers execute on the node's primary
processor, modelled as a FIFO :class:`~repro.sim.primitives.Resource`:
one handler at a time, each paying the invocation overhead (interrupt +
user-level dispatch) before its body runs.  Handlers are coroutines and
may use the home CPU's cache controller — e.g. a barrier-release handler
performs a *coherent* store to the spin variable, generating the same
invalidate + reload wave a processor-side release would.

At-most-once execution
----------------------
Requesters time out and retransmit (with exponential backoff).  The
endpoint deduplicates by ``(requester, sequence)``: duplicates of an
in-flight request only refresh the reply destination; duplicates of a
completed request resend the cached result.  Retransmissions therefore
inflate *traffic* (the paper's observation) without corrupting state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.network.message import AM_REPLY, AM_REQUEST, Message
from repro.sim.primitives import Resource, Signal, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Hub


#: handler registry: name -> coroutine function(machine, home_node, args)
HANDLERS: dict[str, Callable] = {}


def register_handler(name: str, fn: Optional[Callable] = None):
    """Register an active-message handler (usable as a decorator).

    The handler is a coroutine function ``fn(machine, home_node, args)``
    whose return value is shipped back in the AM_REPLY.
    """
    def _install(f: Callable):
        if name in HANDLERS and HANDLERS[name] is not f:
            raise ValueError(f"handler {name!r} already registered")
        HANDLERS[name] = f
        return f
    return _install(fn) if fn is not None else _install


@dataclass(slots=True)
class _PendingCall:
    """Home-side state for one logical (requester, seq) call."""

    reply_to: Signal           # most recent attempt's signal
    src_node: int
    done: bool = False
    result: Any = None


class ActiveMessageEndpoint:
    """Per-node active-message engine."""

    __slots__ = ("hub", "sim", "node", "config", "handler_cpu", "_calls",
                 "invocations", "duplicates_dropped", "replies_resent")

    def __init__(self, hub: "Hub") -> None:
        self.hub = hub
        self.sim = hub.sim
        self.node = hub.node
        self.config = hub.config.actmsg
        #: the home node's main processor, serializing handler execution
        self.handler_cpu = Resource(name=f"am-handler[{hub.node}]")
        self._calls: dict[tuple[int, int], _PendingCall] = {}
        self.invocations = 0
        self.duplicates_dropped = 0
        self.replies_resent = 0

    # ------------------------------------------------------------------
    # home side
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        """Hub delivery path for AM_REQUEST messages."""
        key = (msg.requester, msg.value)      # value carries the sequence
        call = self._calls.get(key)
        if call is not None:
            # duplicate (a retransmission)
            call.reply_to = msg.reply_to      # reply to the latest attempt
            call.src_node = msg.src_node
            if call.done:
                self.replies_resent += 1
                self.sim.spawn(self._resend(call, msg),
                               f"am-resend[{self.node}]")
            else:
                self.duplicates_dropped += 1
            return
        call = _PendingCall(reply_to=msg.reply_to, src_node=msg.src_node)
        self._calls[key] = call
        self.sim.spawn(self._execute(call, msg), f"am-exec[{self.node}]")

    def _execute(self, call: _PendingCall, msg: Message):
        handler_name, args = msg.payload
        handler = HANDLERS[handler_name]
        yield self.handler_cpu.acquire()
        try:
            yield Timeout(self.config.invocation_overhead_cycles)
            self.invocations += 1
            result = yield from handler(self.hub.machine, self.node, args)
            yield Timeout(self.config.handler_body_cycles)
        finally:
            self.handler_cpu.release()
        call.done = True
        call.result = result
        yield from self._send_reply(call, msg.addr)

    def _resend(self, call: _PendingCall, msg: Message):
        # a completed call being re-acked: small demux cost, no handler
        yield Timeout(self.hub.config.hub.hub_to_cpu(
            self.hub.config.hub.ingress_occupancy_hub_cycles))
        yield from self._send_reply(call, msg.addr)

    def _send_reply(self, call: _PendingCall, addr):
        yield from self.hub.egress_send(Message(
            AM_REPLY, self.node, call.src_node, addr, call.result, None,
            call.reply_to))

    # ------------------------------------------------------------------
    # requester side
    # ------------------------------------------------------------------
    def call_remote(self, requester_cpu: int, seq: int, home_node: int,
                    handler: str, args: Any):
        """Coroutine: invoke ``handler`` at ``home_node``; returns result.

        Retries with exponential backoff on timeout; raises after
        ``max_retransmits`` attempts go unanswered.
        """
        if handler not in HANDLERS:
            raise ValueError(f"unknown active-message handler {handler!r}")
        timeout = self.config.timeout_cycles
        _TIMED_OUT = object()
        for attempt in range(self.config.max_retransmits + 1):
            race = Signal(name=f"am-call[{requester_cpu}#{seq}]")
            yield from self.hub.egress_send(Message(
                kind=AM_REQUEST, src_node=self.node,
                dst_node=home_node, value=seq, payload=(handler, args),
                reply_to=race, requester=requester_cpu,
                is_retransmit=attempt > 0))
            self.sim.schedule(timeout, race.try_fire, self.sim, _TIMED_OUT)
            reply = yield race.wait()
            if reply is not _TIMED_OUT:
                return reply.value
            timeout *= 2
        raise RuntimeError(
            f"active message {handler!r} from cpu{requester_cpu} to node "
            f"{home_node} unanswered after "
            f"{self.config.max_retransmits + 1} attempts")
