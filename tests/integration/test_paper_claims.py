"""The paper's claims beyond its tables, at fixed CI-friendly sizes.

* ablations of the design choices DESIGN.md §7 calls out (P=32): the
  AMU cache, spin-variable coding, proportional backoff, the word-update
  push, multicast updates, and link/router contention;
* calibration robustness: AMO's barrier win over LL/SC survives a sweep
  of every free parameter (16 CPUs);
* application level: AMO speeds up all three kernels of
  :mod:`repro.apps` (16 CPUs);
* programming model: flat AMO beats every barrier algorithm built on
  conventional primitives (32 CPUs).

The table and figure shape checks live in
``tests/harness/test_experiments.py``.
"""

import pytest

from repro.apps.histogram import run_histogram
from repro.apps.jacobi import run_jacobi
from repro.apps.task_farm import run_task_farm
from repro.config.mechanism import Mechanism
from repro.config.parameters import AmuConfig, NetworkConfig, SystemConfig
from repro.core.machine import Machine
from repro.harness.sensitivity import KNOBS, sensitivity_report
from repro.sync.barrier import CentralizedBarrier
from repro.sync.dissemination import DisseminationBarrier
from repro.sync.sense_barrier import SenseReversingBarrier
from repro.sync.ticket_lock import TicketLock
from repro.sync.tree_barrier import CombiningTreeBarrier
from repro.workloads.barrier import run_barrier_workload

P = 32
EPISODES = 2


@pytest.fixture(scope="module")
def amo32():
    return run_barrier_workload(P, Mechanism.AMO, episodes=EPISODES)


# ---------------------------------------------------------------------------
# ablations (DESIGN.md §7)
# ---------------------------------------------------------------------------

def test_amu_cache_pays_for_itself(amo32):
    """§3.1: without the AMU cache every AMO reads and writes DRAM."""
    without = run_barrier_workload(
        P, Mechanism.AMO, episodes=EPISODES,
        config=SystemConfig.table1(P, amu=AmuConfig(cache_enabled=False)))
    ratio = without.cycles_per_episode / amo32.cycles_per_episode
    assert ratio > 1.1, ratio


def test_spin_variable_beats_naive_coding():
    """Figure 3(a) vs 3(b) for the LL/SC barrier: the spin variable pays
    off once spinner reload storms interfere with the increments (the
    paper cites 25% at 64 CPUs; our crossover sits near 32)."""
    optimized = run_barrier_workload(P, Mechanism.LLSC, episodes=EPISODES)
    naive = run_barrier_workload(P, Mechanism.LLSC, episodes=EPISODES,
                                 naive=True)
    ratio = naive.cycles_per_episode / optimized.cycles_per_episode
    assert ratio > 1.0, ratio


def test_proportional_backoff_changes_little():
    """§3.3.2: backoff helps little on a cache-coherent machine; it must
    not transform performance the way it did on the Symmetry."""
    def run_with_backoff(backoff):
        machine = Machine(SystemConfig.table1(16))
        lock = TicketLock(machine, Mechanism.LLSC,
                          proportional_backoff_cycles=backoff)

        def thread(proc):
            for _ in range(2):
                yield from lock.acquire(proc)
                yield from proc.delay(100)
                yield from lock.release(proc)
                yield from proc.delay(200)

        machine.run_threads(thread, max_events=6_000_000)
        return machine.last_completion_time

    ratio = run_with_backoff(40) / run_with_backoff(0)
    assert 0.5 < ratio < 2.0, ratio


def test_update_push_pays_for_itself():
    """An AMO barrier whose release is a plain coherent store (no put)
    wakes spinners by invalidate + reload: isolates the fine-grained
    update's contribution."""
    machine = Machine(SystemConfig.table1(P))
    count = machine.alloc("count", home_node=0)
    flag = machine.alloc("flag", home_node=0)

    def thread(proc):
        old = yield from proc.amo_inc(count.addr)
        if old == P - 1:
            yield from proc.store(flag.addr, 1)
        else:
            yield from proc.spin_until(flag.addr, lambda v: v >= 1)

    machine.run_threads(thread, max_events=6_000_000)
    pushed = run_barrier_workload(P, Mechanism.AMO, episodes=1,
                                  warmup_episodes=0)
    ratio = machine.last_completion_time / pushed.cycles_per_episode
    assert ratio > 1.0, ratio


def test_multicast_updates_never_hurt(amo32):
    """Footnote 2: hardware multicast would make AMOs even faster."""
    multicast = run_barrier_workload(
        P, Mechanism.AMO, episodes=EPISODES,
        config=SystemConfig.table1(
            P, network=NetworkConfig(multicast_updates=True)))
    speedup = amo32.cycles_per_episode / multicast.cycles_per_episode
    assert speedup >= 1.0, speedup


@pytest.mark.parametrize("contention", ["model_link_contention",
                                        "model_router_contention"])
def test_amo_keeps_winning_under_contention(contention):
    """The optional link (uplink/downlink) and router (full-path)
    serialization fidelities shift absolute cycles but keep AMO's win."""
    cfg = SystemConfig.table1(P, network=NetworkConfig(**{contention: True}))
    amo = run_barrier_workload(P, Mechanism.AMO, episodes=EPISODES,
                               config=cfg)
    llsc = run_barrier_workload(P, Mechanism.LLSC, episodes=EPISODES,
                                config=cfg)
    speedup = llsc.cycles_per_episode / amo.cycles_per_episode
    assert speedup > 4, speedup


# ---------------------------------------------------------------------------
# calibration robustness
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sensitivity():
    return sensitivity_report(tuple(sorted(KNOBS)), 16, 1)


@pytest.mark.parametrize("knob_key", sorted(KNOBS))
def test_amo_speedup_survives_knob_sweep(sensitivity, knob_key):
    table, _robust = sensitivity
    name = KNOBS[knob_key].name
    points = [(value, speedup) for knob, value, speedup in table.rows
              if knob == name]
    assert len(points) == len(KNOBS[knob_key].values)
    assert all(s > 2.0 for _v, s in points), points


def test_sensitivity_report_robust(sensitivity):
    table, robust = sensitivity
    assert robust, table.to_text()


# ---------------------------------------------------------------------------
# application level
# ---------------------------------------------------------------------------

APPS = {
    "jacobi": (run_jacobi, dict(n_points=128, sweeps=4)),
    "histogram": (run_histogram, dict(samples_per_cpu=24)),
    "task-farm": (run_task_farm, dict(n_tasks=96)),
}


@pytest.mark.parametrize("app", list(APPS))
def test_amo_speeds_up_application(app):
    """The intro's motivation: synchronization cost throttles whole
    applications, so AMO's win must show at application level."""
    runner, kwargs = APPS[app]
    base = runner(16, Mechanism.LLSC, **kwargs)
    amo = runner(16, Mechanism.AMO, **kwargs)
    assert base.verified and amo.verified
    assert amo.speedup_over(base) > 1.0, (base.total_cycles,
                                          amo.total_cycles)


# ---------------------------------------------------------------------------
# programming model
# ---------------------------------------------------------------------------

ALGORITHMS = {
    "centralized": lambda m, mech: CentralizedBarrier(m, mech),
    "sense-reversing": lambda m, mech: SenseReversingBarrier(m, mech),
    "combining-tree": lambda m, mech: CombiningTreeBarrier(m, mech,
                                                           branching=8),
    "dissemination": lambda m, mech: DisseminationBarrier(m, mech),
}


def _cycles_per_episode(algorithm, mech):
    machine = Machine(SystemConfig.table1(P))
    barrier = ALGORITHMS[algorithm](machine, mech)

    def thread(proc):
        for _ in range(EPISODES + 1):     # +1 warm-up
            yield from barrier.wait(proc)

    machine.run_threads(thread, max_events=10_000_000)
    return machine.last_completion_time / (EPISODES + 1)


def test_flat_amo_beats_every_conventional_algorithm():
    """'AMO-based barriers do not require extra spin variables or
    complicated tree structures': flat AMO beats the best algorithm
    built on LL/SC."""
    amo_flat = _cycles_per_episode("centralized", Mechanism.AMO)
    conventional = {name: _cycles_per_episode(name, Mechanism.LLSC)
                    for name in ALGORITHMS}
    assert amo_flat < min(conventional.values()), (amo_flat, conventional)
