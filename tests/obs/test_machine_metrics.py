"""MachineMetrics end-to-end: collectors wired to a real machine."""

import pytest

from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.machine import Machine
from repro.core.snapshot import MachinePool
from repro.obs import MachineMetrics, validate_snapshot
from repro.obs.registry import Histogram
from repro.sim.backends.model import model_core
from repro.sync.barrier import CentralizedBarrier
from repro.sync.ticket_lock import TicketLock
from repro.workloads.barrier import run_barrier_workload
from repro.workloads.locks import run_lock_workload


def run_counter_workload(machine):
    var = machine.alloc("ctr", home_node=1)

    def thread(proc):
        yield from proc.llsc_rmw(var.addr, lambda v: v + 1)
        yield from proc.amo_fetchadd(var.addr, 1)

    machine.run_threads(thread)
    return var


def test_attach_sets_machine_obs(machine4):
    assert machine4.obs is None
    obs = MachineMetrics.attach(machine4)
    assert machine4.obs is obs
    assert obs.sampler is None          # no interval requested


def test_snapshot_covers_all_layers(machine4):
    obs = MachineMetrics.attach(machine4)
    run_counter_workload(machine4)
    snap = obs.snapshot()
    c = snap["counters"]
    # kernel -> cache -> coherence -> amu -> network: every layer reports
    assert c["kernel.events_dispatched"] > 0
    assert c["cache.l2.misses"] > 0
    assert c["coherence.transactions"] > 0
    assert c["cpu.amo_ops"] == 4        # one amo per CPU
    assert c["amu.ops_executed"] == 4
    assert c["network.messages"] > 0
    # per-kind network counters exist for whatever kinds flowed
    assert any(name.startswith("network.msgs.") for name in c)


def test_snapshot_is_schema_valid(machine4):
    obs = MachineMetrics.attach(machine4, sample_interval=500)
    obs.sampler.start()
    run_counter_workload(machine4)
    snap = obs.snapshot()
    assert validate_snapshot(snap) == []


def test_fanout_histograms_populate_on_sharing(machine8):
    obs = MachineMetrics.attach(machine8)
    var = machine8.alloc("shared", home_node=0)

    def thread(proc):
        # everyone caches the line, then CPU 0 writes: invalidation wave
        yield from proc.load(var.addr)
        yield from proc.delay(2_000)
        if proc.cpu_id == 0:
            yield from proc.store(var.addr, 1)

    machine8.run_threads(thread)
    snap = obs.snapshot()
    inval = snap["histograms"]["coherence.inval_fanout"]
    assert inval["count"] >= 1
    assert inval["max"] >= 1


def test_gauges_read_live_kernel_state(machine4):
    obs = MachineMetrics.attach(machine4)
    run_counter_workload(machine4)
    snap = obs.snapshot()
    assert snap["gauges"]["kernel.now"] == machine4.sim.now
    assert snap["gauges"]["kernel.queue_depth"] == 0   # quiescent


def test_metrics_do_not_change_timing():
    """Observer-effect check: attaching metrics leaves cycles identical."""
    def run(with_metrics):
        machine = Machine(SystemConfig.table1(4))
        if with_metrics:
            MachineMetrics.attach(machine)
        run_counter_workload(machine)
        return machine.last_completion_time

    assert run(False) == run(True)


def test_unattached_machine_pays_nothing(machine4):
    run_counter_workload(machine4)
    assert machine4.obs is None


# ---------------------------------------------------------------------------
# pulled traffic histograms
# ---------------------------------------------------------------------------

class PushTrafficHistograms:
    """Reference coding of ``network.msg_hops`` / ``network.msg_bytes``:
    a send hook that observes every injected packet.  The snapshot
    derives both histograms from the fabric's traffic counters instead;
    the two must agree exactly."""

    def __init__(self) -> None:
        self.hops = Histogram("network.msg_hops")
        self.sizes = Histogram("network.msg_bytes")

    def __call__(self, msg, hops: int) -> None:
        self.hops.observe(hops)
        self.sizes.observe(msg.size_bytes)


def run_sync_workload(machine, workload: str, mechanism) -> None:
    if workload == "barrier":
        barrier = CentralizedBarrier(machine, mechanism)

        def thread(proc):
            for _ in range(3):
                yield from barrier.wait(proc)
    else:
        lock = TicketLock(machine, mechanism)

        def thread(proc):
            for _ in range(2):
                yield from lock.acquire(proc)
                yield from proc.delay(50)
                yield from lock.release(proc)
    machine.run_threads(thread)


@pytest.mark.parametrize("mechanism", list(Mechanism),
                         ids=lambda m: m.value)
@pytest.mark.parametrize("workload", ["barrier", "lock"])
def test_derived_traffic_histograms_match_the_push_reference(workload,
                                                             mechanism):
    machine = Machine(SystemConfig.table1(16))
    obs = MachineMetrics.attach(machine)
    push = PushTrafficHistograms()
    machine.net.subscribe_send(push)
    run_sync_workload(machine, workload, mechanism)
    hists = obs.snapshot()["histograms"]
    assert push.hops.max > 0 and push.hops.buckets.get(0)   # remote + local
    assert hists["network.msg_hops"] == push.hops.as_dict()
    assert hists["network.msg_bytes"] == push.sizes.as_dict()


def test_attach_subscribes_no_send_hook(machine4):
    MachineMetrics.attach(machine4)
    assert machine4.net._send_hooks == []


def test_detach_unhooks_the_machine(machine4):
    obs = MachineMetrics.attach(machine4)
    run_counter_workload(machine4)
    obs.detach()
    assert machine4.obs is None
    assert obs.snapshot()["counters"]["network.messages"] > 0


METERED_POINTS = {
    "barrier": lambda mech, **kw: run_barrier_workload(
        16, mech, episodes=2, warmup_episodes=1, metrics=True,
        metrics_interval=500, **kw),
    "lock": lambda mech, **kw: run_lock_workload(
        16, mech, acquisitions_per_cpu=2, warmup_per_cpu=1, metrics=True,
        metrics_interval=500, **kw),
}


@pytest.mark.parametrize("mechanism", list(Mechanism),
                         ids=lambda m: m.value)
@pytest.mark.parametrize("workload", sorted(METERED_POINTS))
def test_pooled_metered_point_equals_a_fresh_one(workload, mechanism):
    point = METERED_POINTS[workload]
    fresh = point(mechanism)
    pool = MachinePool()
    pooled = point(mechanism, pool=pool)
    assert len(pool) == 1                  # the machine came from the pool
    # an unmetered point on the same machine, then metered again
    if workload == "barrier":
        run_barrier_workload(16, mechanism, episodes=2, pool=pool)
    else:
        run_lock_workload(16, mechanism, acquisitions_per_cpu=2, pool=pool)
    again = point(mechanism, pool=pool)
    assert len(pool) == 1
    for res in (pooled, again):
        assert res.metrics == fresh.metrics
        assert (res.total_cycles, res.events_dispatched) == \
            (fresh.total_cycles, fresh.events_dispatched)


@pytest.mark.skipif(model_core() is None,
                    reason="compiled accel model paths not armed")
@pytest.mark.parametrize("mechanism", list(Mechanism),
                         ids=lambda m: m.value)
@pytest.mark.parametrize("workload", sorted(METERED_POINTS))
def test_metered_accel_keeps_the_compiled_send(workload, mechanism):
    """Metrics subscribe no send hook, so a metered accel machine keeps
    the compiled send path, and its snapshot equals the reference one."""
    machine = Machine(SystemConfig.table1(4, kernel_backend="accel"))
    assert type(machine.net).__name__ == "AccelNetwork"
    MachineMetrics.attach(machine)
    assert machine.net._send_hooks == []
    point = METERED_POINTS[workload]
    accel = point(mechanism, backend="accel")
    reference = point(mechanism, backend="reference")
    assert accel.metrics == reference.metrics
