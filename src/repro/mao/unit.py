"""Processor-side MAO port.

Thin façade that encodes MAO requests for the home AMU (shared function
unit, ``coherent=False``).  MAO software spins on a separate coherent
variable, as the paper recommends; an uncached read of the MAO variable
itself is :meth:`repro.cpu.processor.Processor.uncached_read`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.amu.ops import AmoCommand
from repro.mem.address import home_of
from repro.network.message import MAO_REQUEST, Message
from repro.sim.primitives import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Hub


class MaoPort:
    """Issues memory-side atomic operations from one CPU."""

    __slots__ = ("cpu_id", "hub", "sim", "ops_issued")

    def __init__(self, cpu_id: int, hub: "Hub") -> None:
        self.cpu_id = cpu_id
        self.hub = hub
        self.sim = hub.sim
        self.ops_issued = 0

    def rmw(self, addr: int, op: str, operand=1):
        """Coroutine: uncached atomic RMW at the home MC; returns the old
        value (a full network round trip, serialized at the home FU)."""
        self.ops_issued += 1
        sig = Signal()
        yield from self.hub.egress_send(Message(
            MAO_REQUEST, self.hub.node, home_of(addr), addr, None,
            AmoCommand(op=op, operand=operand, coherent=False), sig,
            self.cpu_id))
        reply = yield sig.wait()
        return reply.value
