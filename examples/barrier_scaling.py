#!/usr/bin/env python
"""Barrier scaling across all five synchronization mechanisms.

Reproduces a reduced version of the paper's Table 2 / Figure 5: for each
machine size, time a centralized barrier implemented with LL/SC,
processor-side atomics, active messages, memory-side atomics (MAO), and
active memory operations (AMO), then print speedups over LL/SC and
cycles-per-processor.

Run:  python examples/barrier_scaling.py [--cpus 4 8 16 32] [--episodes 3]
"""

import argparse

from repro.config import Mechanism
from repro.harness.report import TableFormatter, fit_linear
from repro.workloads import run_barrier_workload

MECHS = [Mechanism.LLSC, Mechanism.ACTMSG, Mechanism.ATOMIC,
         Mechanism.MAO, Mechanism.AMO]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpus", type=int, nargs="+",
                        default=[4, 8, 16, 32])
    parser.add_argument("--episodes", type=int, default=3)
    args = parser.parse_args()

    speed = TableFormatter(["CPUs"] + [m.label for m in MECHS],
                           title="Barrier speedup over LL/SC")
    perproc = TableFormatter(["CPUs"] + [m.label for m in MECHS],
                             float_format="{:.0f}",
                             title="Barrier cycles per processor")
    amo_cycles = []
    for p in args.cpus:
        results = {m: run_barrier_workload(p, m, episodes=args.episodes)
                   for m in MECHS}
        base = results[Mechanism.LLSC]
        speed.add_row([p] + [results[m].speedup_over(base) for m in MECHS])
        perproc.add_row([p] + [results[m].cycles_per_processor
                               for m in MECHS])
        amo_cycles.append(results[Mechanism.AMO].cycles_per_episode)

    print(speed.to_text())
    print()
    print(perproc.to_text())
    if len(args.cpus) >= 3:
        t_o, t_p, r2 = fit_linear(args.cpus, amo_cycles)
        print()
        print(f"AMO barrier fits t_o + t_p*P: t_o={t_o:.0f} cycles, "
              f"t_p={t_p:.1f} cycles/CPU (R^2={r2:.4f}) — the paper's "
              f"Section 4.2.1 linear-cost claim")


if __name__ == "__main__":
    main()
