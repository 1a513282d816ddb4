#!/usr/bin/env python
"""An OpenMP-style parallel sum reduction, the intro's motivating shape.

The paper's benchmarks are OpenMP programs; the canonical pattern that
stresses synchronization is a parallel reduction followed by a barrier:

    #pragma omp parallel for reduction(+:sum)
    for (...) ...
    // implicit barrier

This example runs that pattern with the accumulation and the barrier
implemented by each mechanism, and reports how much of the total runtime
is synchronization — the paper's "MFLOPS per barrier" concern in
miniature.

Run:  python examples/openmp_reduction.py [--cpus 16]
"""

import argparse

from repro import Machine, SystemConfig
from repro.config import Mechanism
from repro.harness.report import TableFormatter
from repro.sync import CentralizedBarrier, fetch_add

WORK_ITEMS_PER_CPU = 32
CYCLES_PER_ITEM = 20


def run(mech: Mechanism, n_procs: int) -> tuple[int, int]:
    machine = Machine(SystemConfig.table1(n_procs))
    total = machine.alloc("sum", home_node=0)
    barrier = CentralizedBarrier(machine, mech)

    def thread(proc):
        local = 0
        for i in range(WORK_ITEMS_PER_CPU):
            local += proc.cpu_id * WORK_ITEMS_PER_CPU + i
            yield from proc.delay(CYCLES_PER_ITEM)
        # reduction(+:sum): one atomic add of the private partial sum
        yield from fetch_add(proc, mech, total.addr, local)
        # the parallel region's implicit barrier
        yield from barrier.wait(proc)

    machine.run_threads(thread)
    expected = sum(range(n_procs * WORK_ITEMS_PER_CPU))
    measured = machine.peek(total.addr)
    assert measured == expected, (measured, expected)
    return machine.last_completion_time, machine.net.stats.total_messages


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpus", type=int, default=16)
    args = parser.parse_args()

    compute_only = WORK_ITEMS_PER_CPU * CYCLES_PER_ITEM
    table = TableFormatter(
        ["mechanism", "total cycles", "sync cycles", "sync %", "messages"],
        title=f"Parallel sum reduction on {args.cpus} CPUs "
              f"(compute = {compute_only} cycles/CPU)")
    for mech in [Mechanism.LLSC, Mechanism.ACTMSG, Mechanism.ATOMIC,
                 Mechanism.MAO, Mechanism.AMO]:
        cycles, msgs = run(mech, args.cpus)
        sync = cycles - compute_only
        table.add_row([mech.label, cycles, sync,
                       100.0 * sync / cycles, msgs])
    print(table.to_text())
    print()
    print("Everything beyond the fixed compute time is synchronization "
          "overhead; AMOs shrink it to the network round trip plus the "
          "update push.")


if __name__ == "__main__":
    main()
