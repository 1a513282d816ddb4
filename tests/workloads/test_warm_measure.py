"""The measured-run bracket every workload driver shares."""

import gc
import weakref

import pytest

from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.snapshot import MachinePool
from repro.sync.barrier import CentralizedBarrier
from repro.sync.ticket_lock import TicketLock
from repro.workloads.warm import measure, point_config


class _Boom(RuntimeError):
    pass


def _barrier_thread(fail_measured=False):
    def make_thread(barrier, count, mark):
        def thread(proc):
            for _ in range(count):
                t0 = proc.sim.now
                yield from barrier.wait(proc)
                if mark is not None:
                    if fail_measured:
                        raise _Boom("thread failed")
                    mark(proc, t0)
        return thread
    return make_thread


def test_point_config_resizes_and_selects_backend():
    cfg = point_config(8, SystemConfig.table1(4), "reference")
    assert cfg.n_processors == 8
    assert cfg.kernel_backend == "reference"
    assert point_config(4, None, None) == SystemConfig.table1(4)


@pytest.mark.parametrize("where", ["verify", "thread"])
def test_failed_metered_run_leaves_its_pooled_machine_unobserved(where):
    pool = MachinePool()
    cfg = point_config(4, None, None)
    machines = []

    def build(machine):
        machines.append(machine)
        return CentralizedBarrier(machine, Mechanism.AMO)

    def verify():
        raise _Boom("verify failed")

    with pytest.raises(_Boom):
        measure(cfg, pool, True, 0, build,
                _barrier_thread(fail_measured=where == "thread"), 1, 2,
                verify=verify)
    (machine,) = machines
    assert machine.obs is None
    assert machine.tracer is None
    # a finished run is rewound; one that raised mid-simulation left
    # events pending, so the pool replaces its machine
    again = pool.acquire(cfg)
    assert (again is machine) == (where == "verify")
    assert not again.sim.pending_events()
    # and the replacement measures what a fresh build measures
    fresh = measure(cfg, None, False, 0, build, _barrier_thread(), 1, 2)
    pooled = measure(cfg, pool, False, 0, build, _barrier_thread(), 1, 2)
    assert pooled.machine is again
    assert pooled.total_cycles == fresh.total_cycles
    assert (pooled.machine.sim.events_dispatched
            == fresh.machine.sim.events_dispatched)


def test_mark_is_none_only_in_the_warm_up():
    marks = []

    def make_thread(barrier, count, mark):
        marks.append(mark)
        return _barrier_thread()(barrier, count, mark)

    run = measure(point_config(4, None, None), None, True, 0,
                  lambda m: CentralizedBarrier(m, Mechanism.AMO),
                  make_thread, 1, 2)
    warm_mark, measured_mark = marks
    assert warm_mark is None and callable(measured_mark)
    assert run.metrics["critical_path"]["episodes"] == 2


def _lock_thread(lock, count, mark):
    def thread(proc):
        for _ in range(count):
            yield from lock.acquire(proc)
            yield from lock.release(proc)
    return thread


@pytest.mark.parametrize("mechanism", [Mechanism.AMO, Mechanism.LLSC],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("sync", ["barrier", "lock"])
def test_nothing_outlives_a_pooled_point(sync, mechanism):
    """Once a plain pooled point returns, its sync object is gone: the
    pool keeps only the machine and its pristine checkpoint."""
    pool = MachinePool()
    cfg = point_config(8, None, None)
    refs = []

    def build(machine):
        obj = (CentralizedBarrier if sync == "barrier"
               else TicketLock)(machine, mechanism)
        refs.append(weakref.ref(obj))
        return obj

    make_thread = _barrier_thread() if sync == "barrier" else _lock_thread
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            measure(cfg, pool, False, 0, build, make_thread, 1, 2)
    finally:
        if enabled:
            gc.enable()
    assert len(refs) == 2
    assert [ref() for ref in refs] == [None, None]
    assert len(pool) == 1
