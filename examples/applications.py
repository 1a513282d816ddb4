#!/usr/bin/env python
"""Application-level impact of AMOs: three verified parallel kernels.

Runs the kernels from ``repro.apps`` — Jacobi relaxation (barrier-bound),
a parallel histogram (atomic-bound), and a self-scheduling task farm
(claim-counter-bound) — under every synchronization mechanism, verifying
each numerical result, and reports end-to-end runtime plus the fraction
of time lost to synchronization (the paper intro's "MFLOPS per barrier"
concern).

Run:  python examples/applications.py [--cpus 8]
"""

import argparse

from repro.apps import run_histogram, run_jacobi, run_task_farm
from repro.config import Mechanism
from repro.harness.report import TableFormatter

MECHS = [Mechanism.LLSC, Mechanism.ACTMSG, Mechanism.ATOMIC,
         Mechanism.MAO, Mechanism.AMO]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpus", type=int, default=8)
    args = parser.parse_args()
    p = args.cpus

    kernels = [
        ("jacobi", lambda m: run_jacobi(p, m, n_points=16 * p, sweeps=3)),
        ("histogram", lambda m: run_histogram(p, m, samples_per_cpu=16)),
        ("task-farm", lambda m: run_task_farm(p, m, n_tasks=8 * p)),
    ]
    for name, runner in kernels:
        table = TableFormatter(
            ["mechanism", "cycles", "sync %", "speedup vs LL/SC",
             "verified"],
            title=f"{name} on {p} CPUs")
        base = None
        for mech in MECHS:
            result = runner(mech)
            if base is None:
                base = result
            table.add_row([mech.label, result.total_cycles,
                           100.0 * result.sync_fraction,
                           result.speedup_over(base),
                           "yes" if result.verified else "NO"])
            assert result.verified, (name, mech)
        print(table.to_text())
        print()
    print("Every cell computed its result through the simulated coherent "
          "memory and matched the sequential reference.")


if __name__ == "__main__":
    main()
