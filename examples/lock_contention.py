#!/usr/bin/env python
"""Ticket lock vs Anderson array lock under contention (paper Table 4).

Shows the two lock-algorithm regimes the paper identifies:

* at small machine sizes the ticket lock wins — the array lock pays a
  sequencer RMW *plus* a flag reset store per acquisition;
* at large sizes the array lock wins — a ticket-lock release invalidates
  every spinner (O(P) reload storm at the home node), while an array
  release touches exactly one waiter's line;
* with AMOs the difference collapses: both locks ride the update-push
  wake-up, so "we can use the simpler ticket locks instead of more
  complicated array locks without losing any performance" (§4.2.3).

Run:  python examples/lock_contention.py [--cpus 4 16 64] [--acq 3]
"""

import argparse

from repro.config import Mechanism
from repro.harness.report import TableFormatter
from repro.workloads import run_lock_workload

MECHS = [Mechanism.LLSC, Mechanism.ACTMSG, Mechanism.ATOMIC,
         Mechanism.MAO, Mechanism.AMO]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpus", type=int, nargs="+", default=[4, 16, 64])
    parser.add_argument("--acq", type=int, default=3,
                        help="acquisitions per CPU")
    args = parser.parse_args()

    cols = ["CPUs"]
    for m in MECHS:
        cols += [f"{m.label} tkt", f"{m.label} arr"]
    table = TableFormatter(cols, title="Lock speedup over LL/SC ticket "
                                       "(cycles per acquisition)")
    for p in args.cpus:
        base = run_lock_workload(p, Mechanism.LLSC, "ticket",
                                 acquisitions_per_cpu=args.acq)
        row = [p]
        for m in MECHS:
            for lt in ("ticket", "array"):
                r = run_lock_workload(p, m, lt,
                                      acquisitions_per_cpu=args.acq)
                row.append(r.speedup_over(base))
        table.add_row(row)
    print(table.to_text())
    print()
    print("Read the AMO columns: ticket ~ array — the simple algorithm "
          "suffices once the hardware pushes updates.")


if __name__ == "__main__":
    main()
