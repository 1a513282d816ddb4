"""Microbenchmark workloads (substrate S14): the paper's measurements.

* :mod:`repro.workloads.barrier` — repeated barrier episodes over all
  CPUs (Tables 2-3, Figures 5-6);
* :mod:`repro.workloads.locks` — contended acquire/release streams over
  ticket and array locks (Table 4, Figure 7);
* :mod:`repro.workloads.qlocks` — the modern queue locks (MCS, compact
  NUMA-aware, reader-writer) with offline grant-history verification
  (extension; ROADMAP item 3).

Each driver runs its point through :func:`repro.workloads.warm.measure`:
an unmeasured warm-up pass (cold-miss epoch, as an execution-driven
simulator's measured region would exclude) on a fresh or pooled
:class:`~repro.core.machine.Machine`, then the measured
steady-state cycles and traffic.  A driver supplies only its sync
object and its per-CPU thread.
"""

from repro.workloads.barrier import BarrierResult, run_barrier_workload
from repro.workloads.locks import LockResult, run_lock_workload
from repro.workloads.qlocks import (
    QLOCK_SUPPORT,
    QLOCK_TYPES,
    qlock_supported,
    run_qlock_workload,
)

__all__ = [
    "BarrierResult",
    "run_barrier_workload",
    "LockResult",
    "run_lock_workload",
    "QLOCK_SUPPORT",
    "QLOCK_TYPES",
    "qlock_supported",
    "run_qlock_workload",
]
