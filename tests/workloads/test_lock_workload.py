"""Tests for the lock workload driver."""

import statistics

import pytest

from repro.config.mechanism import Mechanism
from repro.workloads.locks import run_lock_workload


def test_metrics_consistent():
    r = run_lock_workload(4, Mechanism.AMO, "ticket",
                          acquisitions_per_cpu=2)
    assert r.acquisitions == 8
    assert r.total_cycles > 0
    assert r.cycles_per_acquisition == pytest.approx(r.total_cycles / 8)
    assert r.bytes_per_acquisition > 0


def test_both_lock_types_run():
    for lt in ("ticket", "array"):
        r = run_lock_workload(4, Mechanism.LLSC, lt,
                              acquisitions_per_cpu=1)
        assert r.lock_type == lt


def test_unknown_lock_type_rejected():
    with pytest.raises(ValueError, match="lock type"):
        run_lock_workload(4, Mechanism.LLSC, "queue-of-doom")


def test_traffic_normalization_helper():
    base = run_lock_workload(4, Mechanism.LLSC, "ticket",
                             acquisitions_per_cpu=2)
    amo = run_lock_workload(4, Mechanism.AMO, "ticket",
                            acquisitions_per_cpu=2)
    rel = amo.traffic_relative_to(base)
    assert 0 < rel < 1.0, "AMO must use less traffic than LL/SC"


def test_think_and_cs_time_floor():
    # with long critical sections the serial bound dominates:
    # total >= acquisitions * cs
    r = run_lock_workload(4, Mechanism.AMO, "ticket",
                          acquisitions_per_cpu=2, cs_cycles=5_000,
                          think_cycles=0)
    assert r.total_cycles >= 8 * 5_000


def test_deterministic_repetition():
    a = run_lock_workload(4, Mechanism.MAO, "array",
                          acquisitions_per_cpu=2)
    b = run_lock_workload(4, Mechanism.MAO, "array",
                          acquisitions_per_cpu=2)
    assert a.total_cycles == b.total_cycles


def test_acquire_latency_distribution_collected():
    r = run_lock_workload(8, Mechanism.AMO, "ticket",
                          acquisitions_per_cpu=2)
    lat = r.acquire_latency
    assert len(lat) == 16
    assert all(isinstance(cycles, int) for cycles in lat)
    assert max(lat) >= statistics.median(lat) >= 0


def test_fifo_lock_latency_spread_is_bounded():
    """A FIFO lock's max/median acquire-latency ratio stays moderate —
    tickets are served in order, so nobody starves."""
    r = run_lock_workload(8, Mechanism.AMO, "ticket",
                          acquisitions_per_cpu=3)
    lat = r.acquire_latency
    assert max(lat) <= max(20 * statistics.median(lat), 20_000)
