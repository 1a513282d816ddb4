"""Traffic accounting for the interconnect.

Counts every packet by :class:`~repro.network.message.MessageKind`, in
messages, bytes, and hop-weighted bytes (bytes x hops: link occupancy,
closest to what "network traffic" means in the paper's Figure 7).  Local
(same-node, crossbar) deliveries are tracked separately so the Figure 1
message-anatomy counts only true network messages.  Remote packets are
also counted per hop count (``hop_counts``); with the local packets as
the hops-0 bucket, that is the whole per-packet hop distribution, which
:mod:`repro.obs` reads at snapshot time instead of observing each send.
The per-packet message sequence is :class:`~repro.trace.TraceRecorder`'s
to capture.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.network.message import Message, MessageKind


@dataclass
class TrafficStats:
    """Aggregate interconnect traffic counters."""

    messages: Counter = field(default_factory=Counter)       # kind -> count
    bytes: Counter = field(default_factory=Counter)          # kind -> bytes
    hop_bytes: Counter = field(default_factory=Counter)      # kind -> bytes*hops
    local_messages: Counter = field(default_factory=Counter)
    #: hops -> remote packets.  A plain dict: ``d[k] = d.get(k, 0) + 1``
    #: costs about a third of a Counter's ``d[k] += 1``
    hop_counts: dict = field(default_factory=dict)
    retransmits: int = 0

    # ------------------------------------------------------------------
    def record(self, msg: Message, hops: int) -> None:
        """Account one packet traversing ``hops`` network hops."""
        if hops == 0:
            self.local_messages[msg.kind] += 1
        else:
            self.messages[msg.kind] += 1
            self.bytes[msg.kind] += msg.size_bytes
            self.hop_bytes[msg.kind] += msg.size_bytes * hops
            hop_counts = self.hop_counts
            hop_counts[hops] = hop_counts.get(hops, 0) + 1
        if msg.is_retransmit:
            self.retransmits += 1

    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        """Network (remote) messages only."""
        return sum(self.messages.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    @property
    def total_hop_bytes(self) -> int:
        return sum(self.hop_bytes.values())

    @property
    def total_local_messages(self) -> int:
        return sum(self.local_messages.values())

    def messages_of(self, *kinds: MessageKind) -> int:
        return sum(self.messages[k] for k in kinds)

    def snapshot(self) -> "TrafficStats":
        """Deep copy of the counters."""
        return TrafficStats(
            messages=Counter(self.messages),
            bytes=Counter(self.bytes),
            hop_bytes=Counter(self.hop_bytes),
            local_messages=Counter(self.local_messages),
            hop_counts=dict(self.hop_counts),
            retransmits=self.retransmits,
        )

    def delta_since(self, earlier: "TrafficStats") -> "TrafficStats":
        """Traffic accumulated since an earlier :meth:`snapshot`."""
        out = TrafficStats()
        out.messages = self.messages - earlier.messages
        out.bytes = self.bytes - earlier.bytes
        out.hop_bytes = self.hop_bytes - earlier.hop_bytes
        out.local_messages = self.local_messages - earlier.local_messages
        # positive entries only, as Counter subtraction keeps them
        before = earlier.hop_counts
        out.hop_counts = {hops: n - before.get(hops, 0)
                          for hops, n in self.hop_counts.items()
                          if n > before.get(hops, 0)}
        out.retransmits = self.retransmits - earlier.retransmits
        return out

    def reset(self) -> None:
        self.messages.clear()
        self.bytes.clear()
        self.hop_bytes.clear()
        self.local_messages.clear()
        self.hop_counts.clear()
        self.retransmits = 0

    def format_report(self) -> str:
        """Human-readable per-kind traffic table."""
        lines = [f"{'kind':<24}{'msgs':>10}{'bytes':>12}{'hop-bytes':>14}"]
        for kind in sorted(self.messages, key=lambda k: k.value):
            lines.append(
                f"{kind.value:<24}{self.messages[kind]:>10}"
                f"{self.bytes[kind]:>12}{self.hop_bytes[kind]:>14}"
            )
        lines.append(
            f"{'TOTAL':<24}{self.total_messages:>10}"
            f"{self.total_bytes:>12}{self.total_hop_bytes:>14}"
        )
        if self.retransmits:
            lines.append(f"retransmits: {self.retransmits}")
        return "\n".join(lines)
