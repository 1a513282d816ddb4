"""Traffic accounting for the interconnect.

Every packet is counted once, in one table: ``counts`` maps
``(kind, hops)`` to packets, with hops 0 meaning node-local (same-node,
crossbar) delivery.  Everything else is a read-only view derived from
it: per-kind ``messages``, ``bytes`` and hop-weighted ``hop_bytes``
(bytes x hops: link occupancy, closest to what "network traffic" means
in the paper's Figure 7) of remote packets, per-kind ``local_messages``
(kept apart so the Figure 1 message-anatomy counts only true network
messages), and ``hop_counts``, the remote packets per hop count.  A
packet's size is its kind's ``packet_bytes``.  With the local packets as
the hops-0 bucket, the table is the whole per-packet hop distribution,
which :mod:`repro.obs` reads at snapshot time instead of observing each
send.  Each view builds a fresh Counter, so bind it once where it is
read repeatedly.  The per-packet message sequence is
:class:`~repro.trace.TraceRecorder`'s to capture.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.network.message import Message, MessageKind


@dataclass
class TrafficStats:
    """Aggregate interconnect traffic counters."""

    #: ``(kind, hops) -> packets``; the compiled send updates it too, so
    #: it must stay a plain dict
    counts: dict = field(default_factory=dict)
    retransmits: int = 0

    # ------------------------------------------------------------------
    def record(self, msg: Message, hops: int) -> None:
        """Account one packet traversing ``hops`` network hops."""
        key = (msg.kind, hops)
        counts = self.counts
        counts[key] = counts.get(key, 0) + 1
        if msg.is_retransmit:
            self.retransmits += 1

    # ------------------------------------------------------------------
    @property
    def messages(self) -> Counter:
        """kind -> remote packets."""
        out = Counter()
        for (kind, hops), n in self.counts.items():
            if hops:
                out[kind] += n
        return out

    @property
    def bytes(self) -> Counter:
        """kind -> remote bytes."""
        out = Counter()
        for (kind, hops), n in self.counts.items():
            if hops:
                out[kind] += n * kind.packet_bytes
        return out

    @property
    def hop_bytes(self) -> Counter:
        """kind -> remote bytes x hops."""
        out = Counter()
        for (kind, hops), n in self.counts.items():
            if hops:
                out[kind] += n * kind.packet_bytes * hops
        return out

    @property
    def local_messages(self) -> Counter:
        """kind -> node-local packets."""
        out = Counter()
        for (kind, hops), n in self.counts.items():
            if not hops:
                out[kind] += n
        return out

    @property
    def hop_counts(self) -> dict:
        """hops -> remote packets."""
        out: dict = {}
        for (_, hops), n in self.counts.items():
            if hops:
                out[hops] = out.get(hops, 0) + n
        return out

    @property
    def total_messages(self) -> int:
        """Network (remote) messages only."""
        return sum(n for (_, hops), n in self.counts.items() if hops)

    @property
    def total_bytes(self) -> int:
        return sum(n * kind.packet_bytes
                   for (kind, hops), n in self.counts.items() if hops)

    @property
    def total_hop_bytes(self) -> int:
        return sum(n * kind.packet_bytes * hops
                   for (kind, hops), n in self.counts.items())

    @property
    def total_local_messages(self) -> int:
        return sum(n for (_, hops), n in self.counts.items() if not hops)

    def messages_of(self, *kinds: MessageKind) -> int:
        messages = self.messages
        return sum(messages[k] for k in kinds)

    def snapshot(self) -> "TrafficStats":
        """Deep copy of the counters."""
        return TrafficStats(dict(self.counts), self.retransmits)

    def delta_since(self, earlier: "TrafficStats") -> "TrafficStats":
        """Traffic accumulated since an earlier :meth:`snapshot`."""
        before = earlier.counts
        # positive entries only, as Counter subtraction keeps them
        return TrafficStats(
            {key: n - before.get(key, 0) for key, n in self.counts.items()
             if n > before.get(key, 0)},
            self.retransmits - earlier.retransmits)

    def reset(self) -> None:
        self.counts.clear()
        self.retransmits = 0

    def format_report(self) -> str:
        """Human-readable per-kind traffic table."""
        messages, size, hop_bytes = self.messages, self.bytes, self.hop_bytes
        lines = [f"{'kind':<24}{'msgs':>10}{'bytes':>12}{'hop-bytes':>14}"]
        for kind in sorted(messages, key=lambda k: k.value):
            lines.append(
                f"{kind.value:<24}{messages[kind]:>10}"
                f"{size[kind]:>12}{hop_bytes[kind]:>14}"
            )
        lines.append(
            f"{'TOTAL':<24}{self.total_messages:>10}"
            f"{self.total_bytes:>12}{self.total_hop_bytes:>14}"
        )
        if self.retransmits:
            lines.append(f"retransmits: {self.retransmits}")
        return "\n".join(lines)
