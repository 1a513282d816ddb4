"""System configuration dataclasses mirroring the paper's Table 1.

All latencies are expressed in **CPU cycles** (2 GHz clock), matching how
the paper reports them ("DRAM 60 processor cycles latency", "Network 100
processor cycles latency per hop").  The hub runs at 500 MHz, i.e. one hub
cycle is four CPU cycles; hub-side occupancies are specified in hub cycles
and converted via :attr:`HubConfig.cpu_cycles_per_hub_cycle`.

The default constructions reproduce Table 1:

=============  =======================================================
Parameter      Value
=============  =======================================================
Processor      4-issue, 48-entry active list, 2 GHz
L1 I-cache     2-way, 32 KB, 64 B lines, 1-cycle latency
L1 D-cache     2-way, 32 KB, 32 B lines, 2-cycle latency
L2 cache       4-way, 2 MB, 128 B lines, 10-cycle latency
System bus     16 B CPU→system, 8 B system→CPU, 16 outstanding misses
DRAM           16 16-bit-data DDR channels, 60-cycle latency
Hub clock      500 MHz
Network        100 CPU cycles per hop, radix-8 fat tree, 32 B packets
=============  =======================================================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ProcessorConfig:
    """Main processor model parameters.

    The simulator is transaction-level, so issue width and active-list
    depth appear only through :attr:`op_overhead_cycles`, the fixed cost
    charged for issuing one synchronization-related memory operation
    (address generation + LSQ traversal + retire).
    """

    clock_ghz: float = 2.0
    issue_width: int = 4
    active_list_entries: int = 48
    #: fixed per-operation issue/retire overhead, CPU cycles
    op_overhead_cycles: int = 4
    #: cycles of backoff between LL/SC retry attempts (software loop body)
    llsc_retry_penalty_cycles: int = 30
    #: cap on the randomized exponential LL/SC retry backoff; deep caps
    #: are what portable LL/SC loops ship (and what keeps the naive
    #: barrier coding livelock-free under spinner interference)
    llsc_backoff_cap_cycles: int = 4096


@dataclass(frozen=True)
class CacheConfig:
    """One cache level (size/associativity/line/latency)."""

    size_bytes: int
    ways: int
    line_bytes: int
    latency_cycles: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @staticmethod
    def l1d_default() -> "CacheConfig":
        return CacheConfig(size_bytes=32 * 1024, ways=2, line_bytes=32,
                           latency_cycles=2)

    @staticmethod
    def l2_default() -> "CacheConfig":
        return CacheConfig(size_bytes=2 * 1024 * 1024, ways=4,
                           line_bytes=128, latency_cycles=10)


@dataclass(frozen=True)
class DramConfig:
    """DDR DRAM backend: 16 channels, 60-CPU-cycle access latency.

    ``occupancy_cycles`` is how long one line-sized access keeps its
    channel group busy (serialization under a read storm at the home
    node — a first-order effect for the MAO-vs-AMO wake-up comparison).
    ``word_occupancy_cycles`` is the same for a word-grained access
    (AMU fill/writeback, fine-grained put to memory).
    """

    latency_cycles: int = 60
    channels: int = 16
    occupancy_cycles: int = 40
    word_occupancy_cycles: int = 4


@dataclass(frozen=True)
class HubConfig:
    """The Hub: processor interface, directory, MC, NI and AMU on one die.

    Occupancies are in *hub* cycles (500 MHz).  The directory engine
    serializes transactions to the same line; the egress port serializes
    outbound message injection (which is what makes an N-way invalidation
    or update fan-out cost O(N)).
    """

    clock_mhz: int = 500
    cpu_clock_mhz: int = 2000
    #: directory lookup + state update per transaction, hub cycles
    directory_occupancy_hub_cycles: int = 4
    #: per-message egress injection cost, hub cycles
    egress_occupancy_hub_cycles: int = 2
    #: per-message ingress demux cost, hub cycles
    ingress_occupancy_hub_cycles: int = 1
    #: egress cost of a WORD_UPDATE push, hub cycles — update packets are
    #: pre-formed by the put engine and streamed off the sharer vector,
    #: cheaper to inject than demand-generated transaction packets
    update_egress_hub_cycles: int = 1

    @property
    def cpu_cycles_per_hub_cycle(self) -> int:
        return self.cpu_clock_mhz // self.clock_mhz

    def hub_to_cpu(self, hub_cycles: int) -> int:
        """Convert hub cycles to CPU cycles."""
        return hub_cycles * self.cpu_cycles_per_hub_cycle


@dataclass(frozen=True)
class NetworkConfig:
    """NUMALink-4-like radix-8 fat tree.

    The paper models 50 ns per hop (100 CPU cycles at 2 GHz) and a 32-byte
    minimum packet.  ``local_latency_cycles`` is the on-die crossbar cost
    for a processor to reach its own hub.
    """

    hop_latency_cycles: int = 100
    router_radix: int = 8
    min_packet_bytes: int = 32
    header_bytes: int = 16
    local_latency_cycles: int = 16
    #: hardware multicast for update pushes (paper footnote 2: "AMO
    #: performance would be even higher if the network supported such
    #: operations").  When enabled, a word-update fan-out occupies the
    #: home egress port once instead of once per destination; the
    #: per-destination packets (and their traffic) still exist.
    multicast_updates: bool = False
    #: optional higher-fidelity mode: serialize packets on each node's
    #: up/down links at ``link_bandwidth_bytes_per_cycle``.  Off by
    #: default — the paper's effects are endpoint-serialization driven,
    #: and the calibration in EXPERIMENTS.md was done without it; the
    #: link-contention ablation bench quantifies the difference.
    model_link_contention: bool = False
    #: NUMALink-4-class link: ~3.2 GB/s at a 2 GHz CPU clock
    link_bandwidth_bytes_per_cycle: float = 1.6
    #: highest-fidelity mode: reserve *every* directed link on a
    #: packet's fat-tree path (store-and-forward per hop), so flows
    #: contend at shared routers, not just at the endpoints.  Implies
    #: the same bandwidth figure per link.  Supersedes
    #: ``model_link_contention`` when set.
    model_router_contention: bool = False


@dataclass(frozen=True)
class AmuConfig:
    """Active Memory Unit parameters (paper §3.1).

    An AMO that hits in the AMU cache completes in two (hub) cycles; an
    N-word AMU cache supports N concurrently-active synchronization
    variables without touching DRAM.
    """

    cache_words: int = 8
    op_latency_hub_cycles: int = 2
    #: extra dispatch cost per queued request (READY handshake), hub cycles
    dispatch_hub_cycles: int = 1
    #: when False the AMU cache is bypassed and every AMO reads/writes DRAM
    #: (ablation of the paper's §3.1 coalescing cache)
    cache_enabled: bool = True


@dataclass(frozen=True)
class ActiveMessageConfig:
    """Software active-message layer on the home node's main processor.

    The paper attributes ActMsg's limited gains to handler *invocation*
    overhead dwarfing the handler body, and its traffic blow-up (Fig. 7)
    to timeouts and retransmissions under contention.
    """

    #: interrupt/trap + dispatch to user-level handler, CPU cycles
    invocation_overhead_cycles: int = 350
    #: handler body for a fetch-and-add style op, CPU cycles
    handler_body_cycles: int = 40
    #: requester-side timeout before retransmitting, CPU cycles
    timeout_cycles: int = 12_000
    #: hard cap on retransmissions per logical message
    max_retransmits: int = 16


@dataclass(frozen=True)
class SystemConfig:
    """Complete machine description; the root object everything reads.

    Use :meth:`table1` for the paper's exact configuration at a given
    processor count.  Processor counts must be even multiples of
    ``cpus_per_node`` (the paper's smallest configuration is 4 CPUs =
    two nodes).
    """

    n_processors: int = 4
    cpus_per_node: int = 2
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    l1: CacheConfig = field(default_factory=CacheConfig.l1d_default)
    l2: CacheConfig = field(default_factory=CacheConfig.l2_default)
    dram: DramConfig = field(default_factory=DramConfig)
    hub: HubConfig = field(default_factory=HubConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    amu: AmuConfig = field(default_factory=AmuConfig)
    actmsg: ActiveMessageConfig = field(default_factory=ActiveMessageConfig)
    #: bytes per machine word (all sync variables are one word)
    word_bytes: int = 8
    #: event-kernel backend name (see :mod:`repro.sim.backends`);
    #: ``None`` defers to $REPRO_KERNEL_BACKEND, then ``reference``.
    #: Every backend produces byte-identical results, so this never
    #: enters a result cache key — but it *is* part of this (frozen,
    #: hashable) config, so machine pools keyed by config stay
    #: separated per backend.
    kernel_backend: str | None = None

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ValueError("need at least one processor")
        if self.n_processors % self.cpus_per_node:
            raise ValueError(
                f"{self.n_processors} processors not divisible by "
                f"{self.cpus_per_node} CPUs/node"
            )
        if self.l2.line_bytes % self.word_bytes:
            raise ValueError("L2 line must hold a whole number of words")

    @property
    def n_nodes(self) -> int:
        return self.n_processors // self.cpus_per_node

    @property
    def line_bytes(self) -> int:
        """Coherence granularity — the L2 line size (128 B)."""
        return self.l2.line_bytes

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // self.word_bytes

    @staticmethod
    def table1(n_processors: int = 4, **overrides) -> "SystemConfig":
        """The paper's Table 1 configuration at ``n_processors`` CPUs.

        ``overrides`` replace top-level fields (e.g. ``amu=...`` for
        ablations).
        """
        return SystemConfig(n_processors=n_processors, **overrides)

    def replace(self, **changes) -> "SystemConfig":
        """Functional update (dataclasses.replace passthrough)."""
        return dataclasses.replace(self, **changes)
