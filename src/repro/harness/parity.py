"""Determinism-parity fingerprints.

A *fingerprint* reduces one workload run to the quantities that must be
bit-exact across kernel implementations and across repeated runs:
simulated cycle counts, per-kind message counts, and the number of
kernel events dispatched.  The golden files under
``tests/integration/golden/`` were captured from the seed (pre-two-tier)
kernel; :mod:`tests.integration.test_determinism_parity` re-runs every
mechanism and asserts equality, which is the gate any event-queue or
protocol data-structure change must pass.

Regenerate goldens (only when the *simulated behaviour* legitimately
changes, never to paper over a kernel bug)::

    PYTHONPATH=src python tools/capture_parity.py
"""

from __future__ import annotations

from typing import Optional

from repro.config.mechanism import Mechanism
from repro.core.snapshot import MachinePool
from repro.network.stats import TrafficStats
from repro.workloads.barrier import run_barrier_workload
from repro.workloads.locks import run_lock_workload
from repro.workloads.qlocks import (QLOCK_TYPES, qlock_supported,
                                    run_qlock_workload)

#: workload shapes fingerprinted per mechanism (kept small: the goal is
#: protocol coverage, not statistical significance)
BARRIER_EPISODES = 2
LOCK_ACQUISITIONS = 2
QLOCK_ACQUISITIONS = 2


def _traffic_dict(traffic: TrafficStats) -> dict:
    return {
        "messages": {k.value: v for k, v in sorted(
            traffic.messages.items(), key=lambda kv: kv[0].value) if v},
        "local_messages": {k.value: v for k, v in sorted(
            traffic.local_messages.items(), key=lambda kv: kv[0].value) if v},
        "total_messages": traffic.total_messages,
        "total_bytes": traffic.total_bytes,
    }


def barrier_fingerprint(mechanism: Mechanism, n_processors: int,
                        episodes: int = BARRIER_EPISODES,
                        pool: Optional[MachinePool] = None,
                        metrics: bool = False,
                        backend: Optional[str] = None) -> dict:
    """Run one barrier configuration and reduce it to its fingerprint.

    Passing a :class:`repro.core.snapshot.MachinePool` runs the point on
    a pooled machine rewound from its pristine checkpoint; the
    fingerprint must come out identical either way — that equivalence
    *is* the parity claim the snapshot layer makes, and the golden suite
    pins it.  ``metrics``
    runs with the observability layer attached — it is timing-neutral
    by contract, so the fingerprint must still match the golden (this is
    how ``capture_parity.py --verify --metrics`` pins that contract).
    ``backend`` selects the event-kernel backend
    (:mod:`repro.sim.backends`) — the fingerprint must be byte-identical
    for every backend, which is the parity gate
    ``capture_parity.py --verify --backend accel`` enforces.
    """
    res = run_barrier_workload(n_processors, mechanism, episodes=episodes,
                               warmup_episodes=1, pool=pool,
                               metrics=metrics, backend=backend)
    return {
        "workload": "barrier",
        "mechanism": mechanism.value,
        "n_processors": n_processors,
        "total_cycles": res.total_cycles,
        "events_dispatched": res.events_dispatched,
        **_traffic_dict(res.traffic),
    }


def lock_fingerprint(mechanism: Mechanism, n_processors: int,
                     acquisitions: int = LOCK_ACQUISITIONS,
                     pool: Optional[MachinePool] = None,
                     metrics: bool = False,
                     backend: Optional[str] = None) -> dict:
    """Run one ticket-lock configuration and reduce it to a fingerprint."""
    res = run_lock_workload(n_processors, mechanism,
                            acquisitions_per_cpu=acquisitions,
                            warmup_per_cpu=1, pool=pool,
                            metrics=metrics, backend=backend)
    return {
        "workload": "lock",
        "mechanism": mechanism.value,
        "n_processors": n_processors,
        "total_cycles": res.total_cycles,
        "events_dispatched": res.events_dispatched,
        **_traffic_dict(res.traffic),
    }


def qlock_fingerprint(mechanism: Mechanism, n_processors: int,
                      lock_type: str,
                      acquisitions: int = QLOCK_ACQUISITIONS,
                      pool: Optional[MachinePool] = None,
                      metrics: bool = False,
                      backend: Optional[str] = None) -> dict:
    """Run one queue-lock configuration and reduce it to a fingerprint.

    ``lock_type`` is one of :data:`repro.workloads.qlocks.QLOCK_TYPES`;
    unsupported (lock, mechanism) cells are the caller's problem —
    :func:`capture_all` consults ``qlock_supported`` so e.g. the rw
    lock is simply absent from the MAO fingerprints rather than refused
    mid-capture.
    """
    res = run_qlock_workload(n_processors, mechanism, lock_type=lock_type,
                             acquisitions_per_cpu=acquisitions,
                             warmup_per_cpu=1, pool=pool,
                             metrics=metrics, backend=backend)
    return {
        "workload": f"qlock_{lock_type}",
        "mechanism": mechanism.value,
        "n_processors": n_processors,
        "total_cycles": res.total_cycles,
        "events_dispatched": res.events_dispatched,
        **_traffic_dict(res.traffic),
    }


def capture_all(n_processors: int = 32,
                mechanisms: Optional[list[Mechanism]] = None,
                pool: Optional[MachinePool] = None,
                barrier_only: bool = False,
                metrics: bool = False,
                backend: Optional[str] = None) -> dict:
    """Fingerprint every mechanism (barrier + locks) at one machine size.

    With a ``pool`` every run takes its machine from that one
    :class:`~repro.core.snapshot.MachinePool`; the document must be
    byte-identical to a fresh capture (verified by
    ``tools/capture_parity.py --verify --pooled``).  ``barrier_only``
    skips the lock fingerprints — on very large machines lock runs
    serialize P acquisitions and dominate capture time.  ``metrics``
    attaches the observability layer to every run (timing-neutral by
    contract: the fingerprints must not move).  ``backend`` runs every fingerprint on
    the named event-kernel backend; the document must stay byte-identical
    to the ``reference`` golden (``events_dispatched`` included).

    Besides barrier and ticket lock, every supported queue lock
    (``qlock_mcs``/``qlock_cna``/``qlock_rw``) is fingerprinted per
    mechanism; unsupported cells (rw over MAO) are simply absent, and
    :func:`diff_documents` derives the workload list from the documents
    so older goldens without queue locks still verify cleanly.
    """
    mechs = mechanisms or list(Mechanism)
    fingerprints = {}
    for m in mechs:
        fp = {"barrier": barrier_fingerprint(m, n_processors,
                                             pool=pool,
                                             metrics=metrics,
                                             backend=backend)}
        if not barrier_only:
            fp["lock"] = lock_fingerprint(m, n_processors,
                                          pool=pool,
                                          metrics=metrics,
                                          backend=backend)
            for lt in QLOCK_TYPES:
                if qlock_supported(lt, m):
                    fp[f"qlock_{lt}"] = qlock_fingerprint(
                        m, n_processors, lt, pool=pool,
                        metrics=metrics, backend=backend)
        fingerprints[m.value] = fp
    doc = {
        "n_processors": n_processors,
        "barrier_episodes": BARRIER_EPISODES,
        "lock_acquisitions": LOCK_ACQUISITIONS,
        "fingerprints": fingerprints,
    }
    if barrier_only:
        doc["barrier_only"] = True
    else:
        doc["qlock_acquisitions"] = QLOCK_ACQUISITIONS
    return doc


def diff_documents(golden: dict, got: dict) -> list[str]:
    """Human-readable drift report between two parity documents."""
    lines = []
    gf = golden.get("fingerprints", {})
    of = got.get("fingerprints", {})
    # a barrier-only capture legitimately lacks lock fingerprints, and a
    # golden predating a workload legitimately lacks its fingerprints —
    # but a capture missing a workload the golden records *is* drift, so
    # the workload list comes from each side's recorded keys, not a
    # hardcoded tuple
    barrier_only = golden.get("barrier_only") or got.get("barrier_only")
    for mech in sorted(set(gf) | set(of)):
        g_mech, o_mech = gf.get(mech, {}), of.get(mech, {})
        if barrier_only:
            workloads = ("barrier",)
        elif not g_mech or not o_mech:
            workloads = sorted(set(g_mech) | set(o_mech)) or ("barrier",)
        else:
            workloads = sorted(set(g_mech))
        for workload in workloads:
            g = g_mech.get(workload)
            o = o_mech.get(workload)
            if g == o:
                continue
            if g is None or o is None:
                lines.append(f"{mech}/{workload}: present in only one side")
                continue
            for key in sorted(set(g) | set(o)):
                if g.get(key) != o.get(key):
                    lines.append(f"{mech}/{workload}.{key}: "
                                 f"golden={g.get(key)!r} got={o.get(key)!r}")
    return lines
