"""Determinism-parity gate for the event-queue kernel.

Three layers of protection for the invariant that kernel/protocol
*performance* work must never change simulated *behaviour*:

1. **Golden parity** — every mechanism's barrier and lock fingerprints
   (total cycles, per-kind message counts, kernel events dispatched) at
   32 CPUs must match ``golden/parity_32.json``, captured from the seed
   (sequence-numbered-heap) kernel.  Any reordering introduced by the
   two-tier dispatch queue, the bitmask directory, or the resume
   trampoline shows up here as a cycle or message-count drift.
2. **Run-twice identity** — the same configuration run twice in one
   process produces byte-identical fingerprints *and* identical trace
   spans, so there is no hidden dependence on iteration order of sets,
   object ids, or allocation timing.
3. **Snapshot-restored parity** — the same fingerprints produced on a
   pooled machine (rewound from its pristine
   :class:`repro.core.snapshot.MachineSnapshot` instead of built fresh)
   must match the goldens byte-for-byte.  Each configuration runs twice
   through one module-wide :class:`~repro.core.snapshot.MachinePool`,
   so the second run always restores a machine another point used.
4. **Large-machine parity** (``slow``) — the full golden suite repeated
   at 512 CPUs against ``golden/parity_512.json`` (beyond the paper's
   256), plus a 256-CPU barrier smoke per mechanism.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.core.machine import Machine
from repro.core.snapshot import MachinePool
from repro.harness.parity import (barrier_fingerprint, lock_fingerprint,
                                  qlock_fingerprint)
from repro.sync.barrier import CentralizedBarrier
from repro.trace.recorder import TraceRecorder
from repro.workloads.barrier import run_barrier_workload
from repro.workloads.qlocks import QLOCK_TYPES, qlock_supported

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "parity_32.json").read_text())
GOLDEN_512 = json.loads(
    (Path(__file__).parent / "golden" / "parity_512.json").read_text())

MECHS = list(Mechanism)


def _diff(golden: dict, got: dict) -> str:
    lines = [f"  {k}: golden={golden[k]!r} got={got.get(k)!r}"
             for k in golden if golden[k] != got.get(k)]
    return "\n".join(lines)


@pytest.mark.parametrize("mech", MECHS, ids=[m.value for m in MECHS])
def test_barrier_matches_golden(mech):
    golden = GOLDEN["fingerprints"][mech.value]["barrier"]
    got = barrier_fingerprint(mech, GOLDEN["n_processors"])
    assert got == golden, (
        f"{mech.value} barrier fingerprint drifted from the seed kernel:\n"
        + _diff(golden, got))


@pytest.mark.parametrize("mech", MECHS, ids=[m.value for m in MECHS])
def test_lock_matches_golden(mech):
    golden = GOLDEN["fingerprints"][mech.value]["lock"]
    got = lock_fingerprint(mech, GOLDEN["n_processors"])
    assert got == golden, (
        f"{mech.value} lock fingerprint drifted from the seed kernel:\n"
        + _diff(golden, got))


QLOCK_CELLS = [(m, lt) for m in MECHS for lt in QLOCK_TYPES
               if qlock_supported(lt, m)]
QLOCK_IDS = [f"{m.value}-{lt}" for m, lt in QLOCK_CELLS]


@pytest.mark.parametrize("mech,lock_type", QLOCK_CELLS, ids=QLOCK_IDS)
def test_qlock_matches_golden(mech, lock_type):
    golden = GOLDEN["fingerprints"][mech.value][f"qlock_{lock_type}"]
    got = qlock_fingerprint(mech, GOLDEN["n_processors"], lock_type)
    assert got == golden, (
        f"{mech.value} qlock_{lock_type} fingerprint drifted:\n"
        + _diff(golden, got))


def test_golden_omits_unsupported_qlock_cells():
    # rw over MAO is refused by construction — the golden must not
    # record a fingerprint for it (and must record every supported cell)
    for m in MECHS:
        recorded = {k for k in GOLDEN["fingerprints"][m.value]
                    if k.startswith("qlock_")}
        expected = {f"qlock_{lt}" for lt in QLOCK_TYPES
                    if qlock_supported(lt, m)}
        assert recorded == expected, m.value


def _traced_run(mech: Mechanism) -> tuple[dict, list]:
    """One traced barrier run: (result fingerprint, full span list)."""
    machine = Machine(SystemConfig.table1(32))
    tracer = TraceRecorder.attach(machine, capture_messages=True)
    barrier = CentralizedBarrier(machine, mech)

    def thread(proc):
        for _ in range(2):
            yield from barrier.wait(proc)

    machine.run_threads(thread)
    spans = [(s.track, s.name, s.start, s.end, s.args)
             for s in tracer.spans]
    instants = [(i.track, i.name, i.time) for i in tracer.instants]
    fp = {
        "cycles": machine.last_completion_time,
        "events": machine.sim.events_dispatched,
        "messages": {k.value: v
                     for k, v in machine.net.stats.messages.items()},
        "local": {k.value: v
                  for k, v in machine.net.stats.local_messages.items()},
    }
    return fp, (spans, instants)


@pytest.mark.parametrize("mech", [Mechanism.AMO, Mechanism.LLSC],
                         ids=["amo", "llsc"])
def test_run_twice_is_identical_including_trace(mech):
    fp1, spans1 = _traced_run(mech)
    fp2, spans2 = _traced_run(mech)
    assert fp1 == fp2
    assert spans1 == spans2


@pytest.fixture(scope="module")
def pool():
    """One machine pool for the whole module: the pooled machine is
    built once per config and every later run goes through restore."""
    return MachinePool()


@pytest.mark.parametrize("mech", MECHS, ids=[m.value for m in MECHS])
def test_snapshot_restored_barrier_matches_golden(mech, pool):
    golden = GOLDEN["fingerprints"][mech.value]["barrier"]
    # both runs must land exactly on the fresh-built golden
    first = barrier_fingerprint(mech, GOLDEN["n_processors"],
                                pool=pool)
    restored = barrier_fingerprint(mech, GOLDEN["n_processors"],
                                   pool=pool)
    assert first == golden, (
        f"{mech.value} first pooled run drifted:\n"
        + _diff(golden, first))
    assert restored == golden, (
        f"{mech.value} snapshot-restored run drifted from golden:\n"
        + _diff(golden, restored))


@pytest.mark.parametrize("mech", MECHS, ids=[m.value for m in MECHS])
def test_snapshot_restored_lock_matches_golden(mech, pool):
    golden = GOLDEN["fingerprints"][mech.value]["lock"]
    first = lock_fingerprint(mech, GOLDEN["n_processors"],
                             pool=pool)
    restored = lock_fingerprint(mech, GOLDEN["n_processors"],
                                pool=pool)
    assert first == golden, (
        f"{mech.value} first pooled run drifted:\n"
        + _diff(golden, first))
    assert restored == golden, (
        f"{mech.value} snapshot-restored run drifted from golden:\n"
        + _diff(golden, restored))


@pytest.mark.parametrize("mech,lock_type",
                         [(Mechanism.AMO, "cna"), (Mechanism.LLSC, "mcs")],
                         ids=["amo-cna", "llsc-mcs"])
def test_snapshot_restored_qlock_matches_golden(mech, lock_type, pool):
    golden = GOLDEN["fingerprints"][mech.value][f"qlock_{lock_type}"]
    first = qlock_fingerprint(mech, GOLDEN["n_processors"], lock_type,
                              pool=pool)
    restored = qlock_fingerprint(mech, GOLDEN["n_processors"], lock_type,
                                 pool=pool)
    assert first == golden, (
        f"{mech.value} qlock_{lock_type} first pooled run drifted:\n"
        + _diff(golden, first))
    assert restored == golden, (
        f"{mech.value} qlock_{lock_type} snapshot-restored run drifted:\n"
        + _diff(golden, restored))


@pytest.mark.slow
@pytest.mark.parametrize("mech", MECHS, ids=[m.value for m in MECHS])
def test_paper_scale_smoke_256(mech):
    """One barrier episode per mechanism at the paper's 256 CPUs."""
    res = run_barrier_workload(256, mech, episodes=1, warmup_episodes=0)
    assert res.episodes == 1
    assert res.total_cycles > 0
    assert res.events_dispatched > 0


@pytest.mark.slow
@pytest.mark.parametrize("mech", MECHS, ids=[m.value for m in MECHS])
def test_barrier_matches_golden_512(mech):
    golden = GOLDEN_512["fingerprints"][mech.value]["barrier"]
    got = barrier_fingerprint(mech, GOLDEN_512["n_processors"])
    assert got == golden, (
        f"{mech.value} barrier fingerprint drifted at 512 CPUs:\n"
        + _diff(golden, got))


@pytest.mark.slow
@pytest.mark.parametrize("mech", MECHS, ids=[m.value for m in MECHS])
def test_lock_matches_golden_512(mech):
    golden = GOLDEN_512["fingerprints"][mech.value]["lock"]
    got = lock_fingerprint(mech, GOLDEN_512["n_processors"])
    assert got == golden, (
        f"{mech.value} lock fingerprint drifted at 512 CPUs:\n"
        + _diff(golden, got))


@pytest.mark.slow
def test_snapshot_restored_matches_golden_512(pool):
    """Snapshot-restored parity at 512 CPUs (one mechanism bounds time:
    the full pooled sweep is covered by ``capture_parity --verify
    --pooled`` in CI's perf-smoke job)."""
    golden = GOLDEN_512["fingerprints"][Mechanism.AMO.value]["barrier"]
    first = barrier_fingerprint(Mechanism.AMO, GOLDEN_512["n_processors"],
                                pool=pool)
    restored = barrier_fingerprint(Mechanism.AMO, GOLDEN_512["n_processors"],
                                   pool=pool)
    assert first == golden, _diff(golden, first)
    assert restored == golden, _diff(golden, restored)
