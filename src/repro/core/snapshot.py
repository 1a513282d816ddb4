"""Machine snapshot/restore: checkpoint a quiescent machine, replay later.

Every sweep point would otherwise build a fresh
:class:`~repro.core.machine.Machine`.  :class:`MachineSnapshot`
checkpoints *all* mutable simulation state of a machine at quiescence —
kernel clock and event counter, backing memory, caches and their LRU
clocks, directory entries, AMU/MAO state, active-message dedup tables,
per-CPU RNG streams (``None`` for a CPU that never retried an LL/SC,
whose RNG is not yet created), every resource's utilization counters —
so the machine can be rewound and re-run any number of times.  A
restored run is **cycle-for-cycle identical** to a fresh build+run of
the same configuration; the determinism-parity suite pins this with
golden fingerprints at 32 and 512 CPUs.

Why in-place restore instead of a copyable machine: model code is
coroutines, and live generators cannot be copied.  At quiescence the only
live processes are the per-node AMU dispatchers, parked on their empty
input queues with no loop-carried state (their locals are re-derived
per request), so *data* state is the whole state.  Both :func:`capture`
and :meth:`MachineSnapshot.restore` therefore require the event queue to
be fully drained and refuse to run otherwise.

:class:`MachinePool` adds memoized machine construction keyed by the
(frozen, hashable) :class:`~repro.config.parameters.SystemConfig`: the
first acquire builds the machine and checkpoints its pristine state; every
later acquire for an equal config rewinds instead of reconstructing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.amu.cache import AmuCacheEntry
from repro.cache.line import CacheLine
from repro.coherence.client import backoff_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine
    from repro.sim.primitives import FifoQueue, Resource


class SnapshotError(RuntimeError):
    """Snapshot/restore attempted on a machine not at quiescence."""


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def _resource_state(res: "Resource", where: str) -> tuple[int, int]:
    if res._busy or res._queue:
        raise SnapshotError(
            f"{where}: resource {res.name!r} busy at snapshot "
            f"(queue depth {len(res._queue)})")
    return (res.grants, res.busy_cycles)


def _restore_resource(res: "Resource", state: tuple[int, int]) -> None:
    res.grants, res.busy_cycles = state
    res._busy = False
    res._queue.clear()


def _queue_state(queue: "FifoQueue", where: str) -> tuple[int, int]:
    if queue._items:
        raise SnapshotError(
            f"{where}: queue {queue.name!r} holds {len(queue._items)} "
            f"items at snapshot")
    return (queue.puts, queue.max_depth)


def _cache_state(cache) -> tuple:
    # one flat record per resident line, grouped by set in the cache's
    # set order: (set_idx, line_addr, state, words_items, dirty, last_use).
    # Much smaller than a dict of per-line dicts; empty sets leave none.
    lines = tuple(
        (idx, addr, ln.state, tuple(ln.words.items()), ln.dirty,
         ln.last_use)
        for idx, entry in cache._sets.items() for addr, ln in entry.items())
    return (lines, cache._stamp, cache.hits, cache.misses, cache.evictions,
            cache.invalidations, cache.word_updates)


def _restore_cache(cache, state: tuple) -> None:
    (lines, cache._stamp, cache.hits, cache.misses, cache.evictions,
     cache.invalidations, cache.word_updates) = state
    sets = cache._sets
    sets.clear()
    for idx, addr, st, words, dirty, last_use in lines:
        sets[idx][addr] = CacheLine(addr, st, dict(words), dirty, last_use)


# ----------------------------------------------------------------------
class MachineSnapshot:
    """Checkpoint of one machine's complete mutable simulation state.

    Build with :meth:`Machine.snapshot`; apply with
    :meth:`Machine.restore`.  A snapshot is bound to the machine instance
    it was captured from (restore is in-place: the live AMU dispatcher
    coroutines cannot be copied into another machine).
    """

    __slots__ = ("machine", "sim", "backing", "address_space", "net",
                 "stats", "hubs", "cpus", "last_completion_time")

    def __init__(self, machine: "Machine") -> None:
        sim = machine.sim
        # pending_events() is backend-neutral (compiled kernels do not
        # expose the reference's _ring/_times/_buckets internals)
        if sim.pending_events():
            raise SnapshotError(
                f"snapshot requires a drained event queue "
                f"({sim.pending_events()} events pending at t={sim.now})")
        if machine.sanitizer is not None:
            raise SnapshotError(
                "detach the coherence sanitizer before snapshotting "
                "(its oracle holds run-specific state); re-attach after "
                "restore")
        self.machine = machine
        self.sim = (sim.now, sim.events_dispatched)
        backing = machine.backing
        self.backing = (dict(backing._words), backing.reads, backing.writes)
        space = machine.address_space
        self.address_space = (dict(space._next_free), dict(space.symbols))

        net = machine.net
        self.net = (list(net._uplink_free_at), list(net._downlink_free_at),
                    net.link_busy_cycles, dict(net._link_free_at),
                    dict(net._last_delivery), list(net._inj_seq))
        self.stats = (dict(net.stats.counts), net.stats.retransmits)

        self.hubs = [self._capture_hub(hub) for hub in machine.hubs]
        self.cpus = [self._capture_cpu(proc) for proc in machine.cpus]
        self.last_completion_time = machine.last_completion_time

    # ------------------------------------------------------------------
    @staticmethod
    def _capture_hub(hub) -> tuple:
        where = f"hub[{hub.node}]"
        home = hub.home_engine
        directory = {}
        for line, ent in home.directory._entries.items():
            directory[line] = (
                ent.state, ent.sharer_mask, ent.owner, ent.amu_sharer,
                ent.version, _resource_state(ent.busy, where))
        home_state = (
            directory, home.transactions, home.get_s_served,
            home.get_x_served, home.writebacks_served,
            home.invalidations_sent, home.interventions_sent,
            home.word_updates_pushed)
        amu = hub.amu
        amu_state = (
            {w: (e.value, e.last_use) for w, e in amu.cache._entries.items()},
            amu.cache._stamp, amu.cache.hits, amu.cache.misses,
            amu.cache.evictions, _queue_state(amu.queue, where),
            amu.ops_executed, amu.puts_issued, amu.test_matches,
            amu.puts_deferred)
        actmsg = hub.actmsg
        # _PendingCall records are write-once after completion and every
        # pre-snapshot call has completed at quiescence, so sharing the
        # record objects (shallow dict copy) is sound; rolling the dict
        # itself back is what matters — the replayed run reuses the same
        # (requester, seq) keys and must not hit stale dedup entries.
        actmsg_state = (
            dict(actmsg._calls), actmsg.invocations,
            actmsg.duplicates_dropped, actmsg.replies_resent,
            _resource_state(actmsg.handler_cpu, where))
        return (
            _resource_state(hub.dram._channel, where),
            hub.dram.line_accesses, hub.dram.word_accesses,
            _resource_state(hub._egress, where),
            home_state, amu_state, actmsg_state)

    @staticmethod
    def _capture_cpu(proc) -> tuple:
        ctrl = proc.controller
        where = f"cpu{proc.cpu_id}"
        if ctrl._inflight:
            raise SnapshotError(f"{where}: fills in flight at snapshot")
        if ctrl._pending_writebacks:
            raise SnapshotError(f"{where}: writebacks in flight at snapshot")
        if ctrl._rmw_locks:
            raise SnapshotError(f"{where}: RMW window open at snapshot")
        meta = {}
        for line, m in ctrl._meta.items():
            if m.gate._waiters:
                raise SnapshotError(
                    f"{where}: spinner parked on {line:#x} at snapshot")
            meta[line] = m.version
        return (
            proc._am_seq, proc.amo_ops, proc.mao_port.ops_issued,
            _cache_state(ctrl.l1), _cache_state(ctrl.l2),
            ctrl._reservation, meta,
            ctrl.sc_failures, ctrl.sc_successes, ctrl.spin_wakeups,
            ctrl.wb_race_interventions,
            None if ctrl._backoff_rng is None
            else ctrl._backoff_rng.getstate())

    # ------------------------------------------------------------------
    def restore(self) -> None:
        """Rewind the bound machine to this checkpoint (in place)."""
        machine = self.machine
        sim = machine.sim
        if sim.pending_events():
            raise SnapshotError(
                f"restore requires a drained event queue "
                f"({sim.pending_events()} events pending at t={sim.now})")
        if machine.sanitizer is not None:
            raise SnapshotError(
                "detach the coherence sanitizer before restore; re-attach "
                "afterwards so its oracle snapshots the restored memory")
        sim.now, sim.events_dispatched = self.sim

        backing = machine.backing
        words, backing.reads, backing.writes = self.backing
        backing._words = dict(words)
        space = machine.address_space
        next_free, symbols = self.address_space
        space._next_free = dict(next_free)
        space.symbols = dict(symbols)

        net = machine.net
        (uplink, downlink, net.link_busy_cycles, link_free,
         last_delivery, inj_seq) = self.net
        net._uplink_free_at = list(uplink)
        net._downlink_free_at = list(downlink)
        net._link_free_at = dict(link_free)
        net._last_delivery = dict(last_delivery)
        net._inj_seq = list(inj_seq)
        counts, net.stats.retransmits = self.stats
        net.stats.counts = dict(counts)

        for hub, state in zip(machine.hubs, self.hubs):
            self._restore_hub(hub, state)
        for proc, state in zip(machine.cpus, self.cpus):
            self._restore_cpu(proc, state)
        machine.last_completion_time = self.last_completion_time

    # ------------------------------------------------------------------
    @staticmethod
    def _restore_hub(hub, state: tuple) -> None:
        (dram_channel, line_accesses, word_accesses, egress,
         home_state, amu_state, actmsg_state) = state
        _restore_resource(hub.dram._channel, dram_channel)
        hub.dram.line_accesses = line_accesses
        hub.dram.word_accesses = word_accesses
        _restore_resource(hub._egress, egress)

        home = hub.home_engine
        (directory, home.transactions, home.get_s_served, home.get_x_served,
         home.writebacks_served, home.invalidations_sent,
         home.interventions_sent, home.word_updates_pushed) = home_state
        entries = home.directory._entries
        # entries born after the checkpoint are dropped; surviving ones
        # keep their identity (and their busy Resource) and are rewound.
        # Entries in the checkpoint but absent now are re-created: a
        # pooled machine may have run a different workload (other lines)
        # since this snapshot was taken.  A dropped entry's busy
        # Resource and its cached Acquire point at each other; unlinking
        # them lets refcounting free the pair instead of the cyclic GC.
        for line in [ln for ln in entries if ln not in directory]:
            entries.pop(line).busy._acquire = None
        for line, (dstate, mask, owner, amu_sharer, version,
                   busy) in directory.items():
            ent = home.directory.entry(line)
            ent.state = dstate
            ent.sharer_mask = mask
            ent.owner = owner
            ent.amu_sharer = amu_sharer
            ent.version = version
            _restore_resource(ent.busy, busy)

        amu = hub.amu
        (entries_state, amu.cache._stamp, amu.cache.hits, amu.cache.misses,
         amu.cache.evictions, (amu.queue.puts, amu.queue.max_depth),
         amu.ops_executed, amu.puts_issued, amu.test_matches,
         amu.puts_deferred) = amu_state
        amu.cache._entries.clear()
        for word, (value, last_use) in entries_state.items():
            amu.cache._entries[word] = AmuCacheEntry(
                word_addr=word, value=value, last_use=last_use)
        amu.queue._items.clear()

        actmsg = hub.actmsg
        (calls, actmsg.invocations, actmsg.duplicates_dropped,
         actmsg.replies_resent, handler_cpu) = actmsg_state
        actmsg._calls = dict(calls)
        _restore_resource(actmsg.handler_cpu, handler_cpu)

    @staticmethod
    def _restore_cpu(proc, state: tuple) -> None:
        ctrl = proc.controller
        (proc._am_seq, proc.amo_ops, proc.mao_port.ops_issued,
         l1, l2, ctrl._reservation, meta,
         ctrl.sc_failures, ctrl.sc_successes, ctrl.spin_wakeups,
         ctrl.wb_race_interventions, rng_state) = state
        _restore_cache(ctrl.l1, l1)
        _restore_cache(ctrl.l2, l2)
        ctrl._inflight.clear()
        ctrl._pending_writebacks.clear()
        ctrl._rmw_locks.clear()
        for line in [ln for ln in ctrl._meta if ln not in meta]:
            del ctrl._meta[line]
        for line, version in meta.items():
            # get-or-create: a pooled machine restored across workloads
            # may lack meta for lines only this snapshot's run spins on
            ctrl._line_meta(line).version = version
        if rng_state is None:
            ctrl._backoff_rng = None
        else:
            rng = ctrl._backoff_rng
            if rng is None:
                rng = ctrl._backoff_rng = backoff_rng(proc.cpu_id)
            rng.setstate(rng_state)


# ----------------------------------------------------------------------
class MachinePool:
    """Memoized machine construction keyed by configuration.

    ``acquire(config)`` returns a machine in its *pristine* post-build
    state: built fresh on the first call, rewound from the pristine
    checkpoint on every later call with an equal config.  Rewinding rolls
    the address space back too, so successive workloads re-allocate the
    same addresses a fresh machine would hand out — behaviourally
    indistinguishable from reconstruction, minus the construction cost.
    A machine whose last run raised mid-simulation is replaced by a
    fresh build.
    """

    def __init__(self) -> None:
        self._entries: dict["SystemConfig",
                            tuple["Machine", MachineSnapshot]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def acquire(self, config: "SystemConfig") -> "Machine":
        from repro.core.machine import Machine

        entry = self._entries.get(config)
        if entry is not None and entry[0].sim.pending_events():
            # a run that raised mid-simulation left events pending, so
            # the machine can never be rewound: discard it, build afresh
            del self._entries[config]
            entry = None
        if entry is None:
            machine = Machine(config)
            # park the AMU dispatcher processes (their startup events are
            # still queued right after construction); a fresh machine
            # dispatches these same events inside its first run_threads,
            # so the restored event count lines up with a fresh build
            machine.sim.run()
            self._entries[config] = (machine, machine.snapshot())
            return machine
        machine, pristine = entry
        machine.restore(pristine)
        return machine
