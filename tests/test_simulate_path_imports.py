"""The simulate path imports neither numpy, networkx nor scipy.

A fresh interpreter blocks the three packages (``sys.modules[m] =
None`` makes any import of them raise), then imports the CLI and the
runner and simulates a barrier, a metered ticket lock, a queue lock and
one runner point.  numpy stays for :mod:`repro.apps` and
:func:`~repro.harness.report.fit_linear`, networkx
for :meth:`~repro.network.topology.FatTreeTopology.as_graph`; both are
imported inside the code that needs them, so start-up and every worker
stay free of them (docs/performance.md, "Start-up and footprint").
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.sim.backends import accel_implementation

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BLOCKED = ("numpy", "networkx", "scipy")

_SNIPPET = """\
import sys
for name in {blocked!r}:
    sys.modules[name] = None

import repro.harness.cli
import repro.runner
from repro.config.mechanism import Mechanism
from repro.runner import ParallelRunner, RunSpec
from repro.sim.backends import accel_implementation
from repro.workloads.barrier import run_barrier_workload
from repro.workloads.locks import run_lock_workload
from repro.workloads.qlocks import run_qlock_workload

backend = {backend!r}
if backend == "accel":
    assert accel_implementation() == "compiled", accel_implementation()

barrier = run_barrier_workload(4, Mechanism.AMO, episodes=2,
                               backend=backend)
assert barrier.total_cycles > 0
lock = run_lock_workload(4, Mechanism.LLSC, acquisitions_per_cpu=2,
                         metrics=True, backend=backend)
assert lock.total_cycles > 0 and lock.metrics is not None
qlock = run_qlock_workload(4, Mechanism.AMO, lock_type="mcs",
                           acquisitions_per_cpu=2, backend=backend)
assert qlock.total_cycles > 0
[point] = ParallelRunner(jobs=1).run(
    [RunSpec.barrier(4, Mechanism.AMO, episodes=1, backend=backend)])
assert point.total_cycles > 0

loaded = [name for name in {blocked!r} if sys.modules[name] is not None]
assert not loaded, loaded
print("simulated without", ", ".join({blocked!r}))
"""


@pytest.mark.parametrize("backend", [
    "reference",
    pytest.param("accel", marks=pytest.mark.skipif(
        accel_implementation() != "compiled",
        reason="compiled accel core not built")),
])
def test_simulate_path_needs_no_numpy_networkx_or_scipy(backend):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    code = _SNIPPET.format(blocked=BLOCKED, backend=backend)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, cwd=REPO)
    assert out.returncode == 0, out.stderr
    assert "simulated without" in out.stdout
