"""The measured-run bracket every workload driver shares."""

import pytest

from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.sync.barrier import CentralizedBarrier
from repro.workloads.warm import WarmCache, measure, point_config


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
    cache = WarmCache()
    cfg = point_config(4, None, None)
    machines = []

    def build(machine):
        machines.append(machine)
        return CentralizedBarrier(machine, Mechanism.AMO)

    def verify():
        raise _Boom("verify failed")

    with pytest.raises(_Boom):
        measure(cfg, "key", cache, True, 0, build,
                _barrier_thread(fail_measured=where == "thread"), 1, 2,
                verify=verify)
    (machine,) = machines
    assert machine.obs is None
    assert machine.tracer is None
    # a finished run is rewound; one that raised mid-simulation left
    # events pending, so the pool replaces its machine
    again = cache.pool.acquire(cfg)
    assert (again is machine) == (where == "verify")
    assert not again.sim.pending_events()
    # and the replacement measures what a fresh build measures
    fresh = measure(cfg, "key", None, False, 0, build, _barrier_thread(),
                    1, 2)
    pooled = measure(cfg, "key", cache, False, 0, build, _barrier_thread(),
                     1, 2)
    assert pooled.machine is again
    assert pooled.total_cycles == fresh.total_cycles
    assert (pooled.machine.sim.events_dispatched
            == fresh.machine.sim.events_dispatched)


def test_failed_run_drops_the_warm_contexts_of_its_machine():
    cache = WarmCache()
    cfg = point_config(4, None, None)

    def build(machine):
        return CentralizedBarrier(machine, Mechanism.AMO)

    def run(key, fail=False):
        return measure(cfg, key, cache, False, 0, build,
                       _barrier_thread(fail_measured=fail), 1, 2)

    first = run("a")
    with pytest.raises(_Boom):
        run("b", fail=True)       # stores context "b", then fails
    assert len(cache) == 2
    # both contexts are bound to the stranded machine: the next lookup
    # drops them, and the run rebuilds on a fresh pooled machine
    replay = run("a")
    assert replay.machine is not first.machine
    assert replay.total_cycles == first.total_cycles
    assert cache.hits == 0 and cache.misses == 3
    assert len(cache) == 1
    assert run("a").total_cycles == first.total_cycles
    assert cache.hits == 1


def test_mark_is_none_only_in_the_warm_up():
    marks = []

    def make_thread(barrier, count, mark):
        marks.append(mark)
        return _barrier_thread()(barrier, count, mark)

    run = measure(point_config(4, None, None), "key", None, True, 0,
                  lambda m: CentralizedBarrier(m, Mechanism.AMO),
                  make_thread, 1, 2)
    warm_mark, measured_mark = marks
    assert warm_mark is None and callable(measured_mark)
    assert run.metrics["critical_path"]["episodes"] == 2


def test_metered_runs_store_no_warm_context():
    cache = WarmCache()
    cfg = point_config(4, None, None)

    def build(machine):
        return CentralizedBarrier(machine, Mechanism.AMO)

    measure(cfg, "key", cache, True, 0, build, _barrier_thread(), 1, 2)
    assert len(cache) == 0 and cache.misses == 0
    measure(cfg, "key", cache, False, 0, build, _barrier_thread(), 1, 2)
    assert len(cache) == 1 and cache.misses == 1
