#!/usr/bin/env python
"""Trace a barrier episode and export a Chrome-trace timeline.

Attaches a :class:`repro.trace.TraceRecorder` to two machines running
the same 8-CPU barrier — once over LL/SC, once over AMO — then prints
per-CPU time accounting and writes ``trace_llsc.json`` /
``trace_amo.json``.  Open either file in ``chrome://tracing`` or
https://ui.perfetto.dev to *see* the paper's mechanisms: the LL/SC
retry churn and invalidation storms versus the AMO timeline's two
packets per CPU and a flat wake-up.

Run:  python examples/trace_a_barrier.py [--out-dir .]
"""

import argparse
import os
import statistics

from repro import Machine, SystemConfig
from repro.config import Mechanism
from repro.sync import CentralizedBarrier
from repro.trace import TraceRecorder


def run_traced(mech: Mechanism, out_path: str) -> None:
    machine = Machine(SystemConfig.table1(8))
    tracer = TraceRecorder.attach(machine)
    barrier = CentralizedBarrier(machine, mech)

    def thread(proc):
        for _ in range(2):
            yield from barrier.wait(proc)

    machine.run_threads(thread)
    tracer.save(out_path)

    print(f"--- {mech.label} barrier, 8 CPUs, 2 episodes ---")
    print(tracer.summary())
    spins = [span.duration for span in tracer.spans_named("spin_until")]
    if spins:
        print(f"spin spans: n={len(spins)} "
              f"mean={statistics.mean(spins):.0f} "
              f"median={statistics.median(spins):.0f} max={max(spins)}")
    print(f"total simulated time: {machine.last_completion_time} cycles")
    print(f"timeline written to {out_path}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()
    run_traced(Mechanism.LLSC,
               os.path.join(args.out_dir, "trace_llsc.json"))
    run_traced(Mechanism.AMO,
               os.path.join(args.out_dir, "trace_amo.json"))
    print("Compare the two timelines: the LL/SC one is dominated by "
          "llsc_rmw spans and invalidation-driven reload messages; the "
          "AMO one is two packets per CPU and a burst of word updates.")


if __name__ == "__main__":
    main()
