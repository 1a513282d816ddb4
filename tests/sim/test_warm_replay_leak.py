"""Repeated points on a pooled machine reclaim everything by refcount.

A pooled point rewinds its machine to the pristine snapshot, warms up
and measures.  With the cyclic collector off, any reference cycle a
point leaves behind accumulates, so the live object count and the
traced heap would climb point after point (by ~500 objects and ~50 KB
per 16-CPU barrier replay before the event path was made acyclic).
After the first repeat — which may still create lazily built state —
both must stay flat within a small constant; the slack covers the
interpreter's free lists, which keep a few freed blocks traced.

Metered points draw their machine from the same pool, so the observers
are detached when the run ends (a machine left holding its
``MachineMetrics``, which points back at the machine, would be a cycle).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.config.mechanism import Mechanism
from repro.core.snapshot import MachinePool
from repro.workloads.barrier import run_barrier_workload
from repro.workloads.locks import run_lock_workload

from tests.sim.test_garbage_free import BACKENDS

REPLAYS = 5
#: growth allowed over all replays after the first
OBJECT_SLACK = 16
BYTES_SLACK = 16 * 1024


def barrier_point(pool, backend):
    run_barrier_workload(16, Mechanism.AMO, episodes=2, warmup_episodes=1,
                         pool=pool, backend=backend)


def lock_point(pool, backend):
    run_lock_workload(16, Mechanism.LLSC, acquisitions_per_cpu=2,
                      warmup_per_cpu=1, pool=pool, backend=backend)


def metered_barrier_point(pool, backend):
    run_barrier_workload(16, Mechanism.AMO, episodes=2, warmup_episodes=1,
                         metrics=True, metrics_interval=500,
                         pool=pool, backend=backend)


def metered_lock_point(pool, backend):
    run_lock_workload(16, Mechanism.LLSC, acquisitions_per_cpu=2,
                      warmup_per_cpu=1, metrics=True, metrics_interval=500,
                      pool=pool, backend=backend)


def heap_growth(point, pool, backend) -> list[tuple[int, int]]:
    """(objects, traced bytes) growth after each of ``REPLAYS`` calls of
    ``point`` past the first, with the cyclic collector off."""
    point(pool, backend)                 # build the pooled machine
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        point(pool, backend)             # first replay
        objects0 = len(gc.get_objects())
        bytes0 = tracemalloc.get_traced_memory()[0]
        samples = []
        for _ in range(REPLAYS):
            point(pool, backend)
            samples.append((len(gc.get_objects()) - objects0,
                            tracemalloc.get_traced_memory()[0] - bytes0))
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return samples


@pytest.mark.parametrize("point", [barrier_point, lock_point],
                         ids=["barrier", "lock"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_replays_do_not_grow_the_heap(backend, point):
    pool = MachinePool()
    samples = heap_growth(point, pool, backend)
    assert len(pool) == 1
    assert max(n for n, _ in samples) <= OBJECT_SLACK, samples
    assert max(b for _, b in samples) <= BYTES_SLACK, samples


@pytest.mark.parametrize("point", [metered_barrier_point,
                                   metered_lock_point],
                         ids=["barrier", "lock"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_metered_points_do_not_grow_the_heap(backend, point):
    pool = MachinePool()
    samples = heap_growth(point, pool, backend)
    assert len(pool) == 1
    (machine, _pristine), = pool._entries.values()
    assert machine.obs is None and machine.tracer is None
    assert max(n for n, _ in samples) <= OBJECT_SLACK, samples
    assert max(b for _, b in samples) <= BYTES_SLACK, samples
