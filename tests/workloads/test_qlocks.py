"""Tests for the queue-lock workload driver."""

import pytest

from repro.config.mechanism import Mechanism
from repro.sync.rw_lock import UnsupportedMechanismError
from repro.workloads.qlocks import (
    QLOCK_SUPPORT,
    QLOCK_TYPES,
    qlock_supported,
    run_qlock_workload,
)

ALL = list(Mechanism)


@pytest.mark.parametrize("lock_type", QLOCK_TYPES)
def test_driver_runs_and_counts(lock_type):
    r = run_qlock_workload(8, Mechanism.AMO, lock_type,
                           acquisitions_per_cpu=2)
    assert r.lock_type == lock_type
    assert r.acquisitions == 16
    assert r.cycles_per_acquisition > 0
    assert r.traffic.total_bytes > 0
    assert len(r.acquire_latency) == 16


@pytest.mark.parametrize("mech", ALL, ids=[m.value for m in ALL])
def test_mcs_all_mechanisms(mech):
    r = run_qlock_workload(4, mech, "mcs", acquisitions_per_cpu=2)
    assert r.acquisitions == 8


@pytest.mark.parametrize("mech", ALL, ids=[m.value for m in ALL])
def test_cna_all_mechanisms(mech):
    r = run_qlock_workload(8, mech, "cna", acquisitions_per_cpu=2,
                           batch_threshold=2)
    assert r.acquisitions == 16


def test_rw_mao_refused_loudly():
    assert not qlock_supported("rw", Mechanism.MAO)
    with pytest.raises(UnsupportedMechanismError, match="rw"):
        run_qlock_workload(8, Mechanism.MAO, "rw")


def test_support_matrix_shape():
    assert set(QLOCK_SUPPORT) == set(QLOCK_TYPES)
    for lock_type in ("mcs", "cna"):
        assert QLOCK_SUPPORT[lock_type] == frozenset(Mechanism)
    assert QLOCK_SUPPORT["rw"] == frozenset(
        m for m in Mechanism if m is not Mechanism.MAO)


def test_unknown_lock_type_rejected():
    with pytest.raises(ValueError, match="unknown queue lock type"):
        run_qlock_workload(4, Mechanism.AMO, "ticket")


def test_deterministic_across_repeats():
    a = run_qlock_workload(8, Mechanism.LLSC, "cna", acquisitions_per_cpu=2)
    b = run_qlock_workload(8, Mechanism.LLSC, "cna", acquisitions_per_cpu=2)
    assert a.total_cycles == b.total_cycles
    assert a.traffic.total_bytes == b.traffic.total_bytes
    assert a.acquire_latency == b.acquire_latency


def test_warm_start_is_fingerprint_identical():
    """Points on a pooled machine equal a fresh build."""
    from repro.core.snapshot import MachinePool
    fresh = run_qlock_workload(8, Mechanism.AMO, "cna",
                               acquisitions_per_cpu=2)
    pool = MachinePool()
    first = run_qlock_workload(8, Mechanism.AMO, "cna",
                               acquisitions_per_cpu=2, pool=pool)
    again = run_qlock_workload(8, Mechanism.AMO, "cna",
                               acquisitions_per_cpu=2, pool=pool)
    assert first.total_cycles == fresh.total_cycles
    assert again.total_cycles == fresh.total_cycles
    assert again.traffic.total_bytes == fresh.traffic.total_bytes
    assert again.acquire_latency == fresh.acquire_latency


def test_metrics_capture():
    r = run_qlock_workload(4, Mechanism.ATOMIC, "mcs",
                           acquisitions_per_cpu=2, metrics=True)
    assert r.metrics is not None
    assert r.metrics["counters"]


def test_history_violation_raises():
    """A lock that grants out of FIFO order must fail the offline check."""
    from repro.workloads import qlocks

    class BargingMcs(qlocks.McsLock):
        # lie about the predecessor linkage: claim an empty queue on
        # every acquire, so recorded pred handles contradict grant order
        def acquire(self, proc):
            handle, pred = yield from super().acquire(proc)
            return handle, (77777 if pred != 0 else pred)

    orig = qlocks.McsLock
    qlocks.McsLock = BargingMcs
    try:
        with pytest.raises(qlocks.QlockHistoryViolation):
            run_qlock_workload(8, Mechanism.ATOMIC, "mcs",
                               acquisitions_per_cpu=2)
    finally:
        qlocks.McsLock = orig


def test_runspec_qlock_roundtrip():
    from repro.runner.spec import RunSpec, execute_spec
    spec = RunSpec.qlock(4, Mechanism.AMO, "mcs", acquisitions_per_cpu=2)
    assert spec.kind == "qlock"
    assert "batch_threshold" not in dict(spec.params)
    record = execute_spec(spec)
    assert record.result.acquisitions == 8
    # canonical key is stable and threshold-free for non-CNA sweeps
    assert "batch_threshold" not in spec.canonical()
    spec_cna = RunSpec.qlock(4, Mechanism.AMO, "cna", batch_threshold=4)
    assert "batch_threshold" in spec_cna.canonical()


def test_runspec_label_mentions_lock_type():
    from repro.runner.spec import RunSpec
    spec = RunSpec.qlock(8, Mechanism.LLSC, "rw")
    assert "rw" in spec.label()
