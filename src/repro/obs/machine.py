"""Wiring a :class:`~repro.core.machine.Machine` into a metrics registry.

:meth:`MachineMetrics.attach` is the single switch that turns a machine
observable.  It costs nothing it does not use:

* **Pull collectors** read the plain integer counters the components
  already maintain (kernel events, cache hits/misses, home-engine
  transaction counts, AMU/MAO ops, link occupancy) — zero per-event
  overhead, evaluated only at snapshot time.
* **Gauges** expose point-in-time state (event-queue depth, AMU input
  queue depth) for the :class:`~repro.obs.sampler.Sampler`.
* **Push histograms** capture distributions that cannot be pulled
  (invalidation/update fan-out per coherence write).  Component hot
  paths guard these behind one ``machine.obs is None`` attribute check,
  so an unobserved machine runs the exact seed-code path.
* **Pulled histograms**: the per-packet hop and byte distributions
  (``network.msg_hops`` / ``network.msg_bytes``) are rebuilt at
  snapshot time from the fabric's own traffic counters.  Attaching
  metrics subscribes no send hook, so a metered machine runs the same
  send path — compiled on ``accel`` — as an unmetered one.

``snapshot()`` additionally folds in the network's per-kind traffic
counters (``network.msgs.<kind>`` / ``.bytes.<kind>`` /
``.hop_bytes.<kind>``), the sampler's time-series, and — when a
critical-path summary was recorded by the workload driver — the
``critical_path`` section.  :meth:`MachineMetrics.detach` unhooks the
metrics from the machine, so a pooled machine carries no observer into
its next run.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.sampler import Sampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine


class MachineMetrics:
    """One machine's registry plus its push-instrument handles."""

    def __init__(self, machine: "Machine",
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.machine = machine
        self.registry = registry or MetricsRegistry()
        self.sampler: Optional[Sampler] = None
        #: critical-path summary injected by the workload driver
        self.critical_path: Optional[dict] = None
        # push instruments referenced (guarded) from component hot paths
        self.inval_fanout = self.registry.histogram(
            "coherence.inval_fanout")
        self.update_fanout = self.registry.histogram(
            "coherence.update_fanout")
        self._register_collectors()

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, machine: "Machine", sample_interval: int = 0,
               ) -> "MachineMetrics":
        """Make ``machine`` observable; returns the metrics object.

        ``sample_interval`` > 0 additionally creates a gauge
        :class:`Sampler` with that simulated-cycle period (call
        ``obs.sampler.start()`` before each measurement window, as the
        workload drivers do).
        """
        obs = cls(machine)
        machine.obs = obs
        if sample_interval:
            obs.sampler = Sampler(machine.sim, obs.registry,
                                  sample_interval)
        return obs

    def detach(self) -> None:
        """Unhook from the machine; :meth:`snapshot` stays readable.

        Drivers call this when a run ends, so a pooled machine keeps no
        observer (and no ``machine.obs`` <-> metrics reference cycle)
        into its next run."""
        if self.machine.obs is self:
            self.machine.obs = None

    # ------------------------------------------------------------------
    def _register_collectors(self) -> None:
        m = self.machine
        reg = self.registry
        sim = m.sim

        # kernel -------------------------------------------------------
        reg.register_collector("kernel.events_dispatched",
                               lambda: sim.events_dispatched)
        reg.gauge("kernel.queue_depth", sim.pending_events)
        reg.gauge("kernel.active_processes",
                  lambda: len(sim.active_processes))
        reg.gauge("kernel.now", lambda: sim.now)

        # caches (summed over CPUs, per level) -------------------------
        def cache_sum(level: str, attr: str):
            def collect() -> int:
                return sum(getattr(getattr(p.controller, level), attr)
                           for p in m.cpus)
            return collect
        for attr in ("hits", "misses", "evictions"):
            reg.register_collector(f"cache.l1.{attr}",
                                   cache_sum("l1", attr))
        for attr in ("hits", "misses", "evictions", "invalidations",
                     "word_updates"):
            reg.register_collector(f"cache.l2.{attr}",
                                   cache_sum("l2", attr))

        # cpu-side protocol events -------------------------------------
        def cpu_sum(attr: str, obj: str = "controller"):
            def collect() -> int:
                return sum(getattr(p if obj == "cpu"
                                   else getattr(p, obj), attr)
                           for p in m.cpus)
            return collect
        reg.register_collector("cpu.sc_successes", cpu_sum("sc_successes"))
        reg.register_collector("cpu.sc_failures", cpu_sum("sc_failures"))
        reg.register_collector("cpu.spin_wakeups", cpu_sum("spin_wakeups"))
        reg.register_collector("cpu.wb_race_interventions",
                               cpu_sum("wb_race_interventions"))
        reg.register_collector("cpu.amo_ops", cpu_sum("amo_ops", "cpu"))
        reg.register_collector("mao.ops_issued",
                               cpu_sum("ops_issued", "mao_port"))

        # home engines / directory -------------------------------------
        def home_sum(attr: str):
            def collect() -> int:
                return sum(getattr(h.home_engine, attr) for h in m.hubs)
            return collect
        for attr in ("transactions", "get_s_served", "get_x_served",
                     "writebacks_served", "invalidations_sent",
                     "interventions_sent", "word_updates_pushed"):
            reg.register_collector(f"coherence.{attr}", home_sum(attr))
        reg.register_collector(
            "coherence.directory.entries",
            lambda: sum(len(h.home_engine.directory.known_entries())
                        for h in m.hubs))
        reg.register_collector(
            "coherence.directory.state_changes",
            lambda: sum(ent.version
                        for h in m.hubs
                        for ent in h.home_engine.directory.known_entries()))

        # AMU / MAO function units -------------------------------------
        def amu_sum(attr: str):
            def collect() -> int:
                return sum(getattr(h.amu, attr) for h in m.hubs)
            return collect
        for attr in ("ops_executed", "puts_issued", "test_matches",
                     "puts_deferred"):
            reg.register_collector(f"amu.{attr}", amu_sum(attr))
        reg.register_collector(
            "amu.queue_puts",
            lambda: sum(h.amu.queue.puts for h in m.hubs))
        reg.gauge("amu.queue_depth",
                  lambda: sum(len(h.amu.queue) for h in m.hubs))
        reg.gauge("amu.queue_max_depth",
                  lambda: max(h.amu.queue.max_depth for h in m.hubs))

        # network ------------------------------------------------------
        reg.register_collector("network.messages",
                               lambda: m.net.stats.total_messages)
        reg.register_collector("network.local_messages",
                               lambda: m.net.stats.total_local_messages)
        reg.register_collector("network.bytes",
                               lambda: m.net.stats.total_bytes)
        reg.register_collector("network.hop_bytes",
                               lambda: m.net.stats.total_hop_bytes)
        reg.register_collector("network.retransmits",
                               lambda: m.net.stats.retransmits)
        reg.register_collector("network.link_busy_cycles",
                               lambda: m.net.link_busy_cycles)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Full snapshot: registry + per-kind traffic + series + CP."""
        snap = self.registry.snapshot()
        counters = snap["counters"]
        stats = self.machine.net.stats
        size, hop_bytes = stats.bytes, stats.hop_bytes
        for kind, n in sorted(stats.messages.items(),
                              key=lambda kv: kv[0].value):
            counters[f"network.msgs.{kind.value}"] = n
            counters[f"network.bytes.{kind.value}"] = size[kind]
            counters[f"network.hop_bytes.{kind.value}"] = hop_bytes[kind]
        for kind, n in sorted(stats.local_messages.items(),
                              key=lambda kv: kv[0].value):
            counters[f"network.local_msgs.{kind.value}"] = n
        snap["histograms"] = dict(sorted({
            **snap["histograms"], **self._traffic_histograms(stats),
        }.items()))
        if self.sampler is not None and self.sampler.series:
            snap["series"] = list(self.sampler.series)
        if self.critical_path is not None:
            snap["critical_path"] = self.critical_path
        return snap

    @staticmethod
    def _traffic_histograms(stats) -> dict:
        """Per-packet hop and byte histograms of every packet sent.

        One pass over the ``(kind, hops)`` table: local packets are the
        hops-0 bucket, and a packet's size is its kind's
        ``packet_bytes``, so the table gives both distributions
        exactly."""
        hops = Histogram("network.msg_hops")
        sizes = Histogram("network.msg_bytes")
        for (kind, n_hops), n in stats.counts.items():
            hops.observe_many(n_hops, n)
            sizes.observe_many(kind.packet_bytes, n)
        return {h.name: h.as_dict() for h in (hops, sizes)}
