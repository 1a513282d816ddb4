"""The per-CPU programming interface.

A :class:`Processor` bundles the CPU's cache controller, MAO port and
active-message sequencing, and charges the fixed processor-side issue
overhead on every operation.  Synchronization algorithms
(:mod:`repro.sync`) are written against this interface only, so a single
barrier/lock implementation runs over every mechanism.

All public methods are coroutines — call them with ``yield from`` inside
a simulated thread.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.amu.ops import AmoCommand
from repro.coherence.client import CacheController
from repro.mao.unit import MaoPort
from repro.mem.address import home_of
from repro.network.message import AMO_REQUEST, Message
from repro.sim.primitives import Signal, Timeout
from repro.trace.recorder import traced_op

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Hub, Machine


class Processor:
    """One simulated CPU."""

    __slots__ = ("cpu_id", "hub", "node", "sim", "config", "machine",
                 "controller", "mao_port", "_am_seq", "amo_ops",
                 "_t_overhead")

    def __init__(self, cpu_id: int, hub: "Hub") -> None:
        self.cpu_id = cpu_id
        self.hub = hub
        self.node = hub.node
        self.sim = hub.sim
        self.config = hub.config
        self.machine: "Machine" = hub.machine
        ctrl_cls = hub._controller_cls or CacheController
        self.controller = ctrl_cls(cpu_id, hub)
        self.mao_port = MaoPort(cpu_id, hub)
        self._am_seq = 0
        self.amo_ops = 0
        # fixed per-op issue overhead: Timeout is stateless, reuse one
        self._t_overhead = Timeout(self.config.processor.op_overhead_cycles)

    # ------------------------------------------------------------------
    def delay(self, cycles: int):
        """Coroutine: local computation for ``cycles`` (no memory traffic)."""
        yield Timeout(cycles)

    # ------------------------------------------------------------------
    # coherent memory operations
    # ------------------------------------------------------------------
    # Controller coroutines are bare-yielded (not ``yield from``) to
    # the kernel's flattened subcall stack: each resume of a multi-hop
    # transaction costs one frame instead of walking this delegation
    # chain (see Simulator.spawn and Processor.spin_until).
    @traced_op
    def load(self, addr: int):
        """Coroutine: coherent load; returns the word value."""
        yield self._t_overhead
        value = yield self.controller.load(addr)
        return value

    @traced_op
    def store(self, addr: int, value: int):
        """Coroutine: coherent store."""
        yield self._t_overhead
        yield self.controller.store(addr, value)

    @traced_op
    def load_linked(self, addr: int):
        yield self._t_overhead
        value = yield self.controller.load_linked(addr)
        return value

    @traced_op
    def store_conditional(self, addr: int, value: int):
        yield self._t_overhead
        ok = yield self.controller.store_conditional(addr, value)
        return ok

    @traced_op
    def llsc_rmw(self, addr: int, fn: Callable[[int], int]):
        """Coroutine: LL/SC retry loop; returns the pre-RMW value."""
        yield self._t_overhead
        old = yield self.controller.ll_sc_rmw(addr, fn)
        return old

    @traced_op
    def atomic_rmw(self, addr: int, fn: Callable[[int], int]):
        """Coroutine: processor-side atomic instruction; returns old value."""
        yield self._t_overhead
        old = yield self.controller.atomic_rmw(addr, fn)
        return old

    @traced_op
    def spin_until(self, addr: int, predicate: Callable[[int], bool]):
        """Coroutine: cached spin until ``predicate(value)`` holds.

        The controller coroutine is yielded to the kernel's flattened
        trampoline (not delegated with ``yield from``): a contended spin
        resumes many times per call, and the trampoline makes each
        wake-up O(1) instead of walking this delegation chain.
        """
        value = yield self.controller.spin_until(addr, predicate)
        return value

    # ------------------------------------------------------------------
    # active memory operations (the paper's contribution)
    # ------------------------------------------------------------------
    @traced_op
    def amo(self, op: str, addr: int, operand: Any = 1,
            test: Optional[int] = None, push: Optional[bool] = None,
            wait_reply: bool = True):
        """Coroutine: ship an atomic op to the home AMU; returns old value.

        Parameters mirror the AMO instruction encoding: ``test`` is the
        §3.2 test value (result match triggers the fine-grained put);
        ``push`` overrides the op's default update-push behaviour.

        ``wait_reply=False`` models an AMO whose destination register is
        never read (a lock release, a barrier arrival): the out-of-order
        core retires past it without stalling.  The reply is still sent
        and counted — the instruction has a register writeback — but
        this coroutine returns after injection, yielding ``None``.
        """
        yield self._t_overhead
        self.amo_ops += 1
        sig = Signal()
        yield self.hub.egress_send(Message(
            AMO_REQUEST, self.node, home_of(addr), addr, None,
            AmoCommand(op=op, operand=operand, test=test, push=push),
            sig, self.cpu_id))
        if not wait_reply:
            return None
        reply = yield sig.wait()
        return reply.value

    def amo_inc(self, addr: int, test: Optional[int] = None,
                wait_reply: bool = True):
        """Coroutine: ``amo.inc`` — increment by one, optional test value."""
        old = yield from self.amo("inc", addr, operand=1, test=test,
                                  wait_reply=wait_reply)
        return old

    def amo_fetchadd(self, addr: int, delta: int = 1,
                     wait_reply: bool = True):
        """Coroutine: ``amo.fetchadd`` — add and push the update (§3.3.2)."""
        old = yield from self.amo("fetchadd", addr, operand=delta,
                                  wait_reply=wait_reply)
        return old

    # ------------------------------------------------------------------
    # conventional memory-side atomics
    # ------------------------------------------------------------------
    @traced_op
    def mao_rmw(self, addr: int, op: str = "fetchadd", operand: Any = 1):
        """Coroutine: uncached memory-side atomic; returns old value."""
        yield self._t_overhead
        old = yield self.mao_port.rmw(addr, op, operand)
        return old

    @traced_op
    def uncached_read(self, addr: int):
        yield self._t_overhead
        value = yield self.controller.uncached_read(addr)
        return value

    @traced_op
    def uncached_write(self, addr: int, value: int):
        yield self._t_overhead
        yield self.controller.uncached_write(addr, value)

    # ------------------------------------------------------------------
    # active messages
    # ------------------------------------------------------------------
    @traced_op
    def am_call(self, home_node: int, handler: str, args: Any):
        """Coroutine: run ``handler`` on ``home_node``'s main processor;
        returns the handler result (retransmits on timeout)."""
        yield self._t_overhead
        seq = self._am_seq
        self._am_seq += 1
        result = yield from self.hub.actmsg.call_remote(
            self.cpu_id, seq, home_node, handler, args)
        return result

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Processor cpu{self.cpu_id} node{self.node}>"
