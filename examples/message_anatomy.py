#!/usr/bin/env python
"""Message anatomy of a three-processor barrier round (paper Figure 1).

Places three processors on three distinct nodes, homes the barrier
variable on a fourth, lets each processor perform one atomic increment,
and prints every packet that crosses the interconnect — first with
conventional LL/SC (Figure 1a: ownership requests, interventions,
invalidations, retries — the paper counts 18 one-way messages), then
with an AMO (Figure 1b: one command and one reply per processor = 6).

Run:  python examples/message_anatomy.py
"""

from repro import Machine, SystemConfig
from repro.config import Mechanism
from repro.trace import TraceRecorder


def run(mech: Mechanism) -> None:
    machine = Machine(SystemConfig.table1(8))
    tracer = TraceRecorder.attach(machine)
    var = machine.alloc("counter", home_node=3)
    participants = [0, 2, 4]        # CPU 0 of nodes 0, 1, 2

    def thread(proc):
        if mech is Mechanism.AMO:
            yield from proc.amo_inc(var.addr)
        else:
            yield from proc.llsc_rmw(var.addr, lambda v: v + 1)

    machine.run_threads(thread, cpus=participants)
    assert machine.peek(var.addr) == 3

    print(f"--- {mech.label}: one increment from each of 3 processors ---")
    for inst in tracer.instants:
        a = inst.args
        addr = f" a={a['addr']}" if a["addr"] is not None else ""
        print(f"  [{inst.time:>8}] {inst.name:<22} "
              f"{a['src']}->{a['dst']}{addr}")
    print(f"  => {machine.net.stats.total_messages} one-way network "
          f"messages (paper Figure 1: "
          f"{6 if mech is Mechanism.AMO else 18})")
    print()


def main() -> None:
    run(Mechanism.LLSC)
    run(Mechanism.AMO)
    print("The AMO round is exactly request + reply per processor; the")
    print("conventional round bounces exclusive ownership between caches,")
    print("with interventions, invalidations and failed-SC retries.")


if __name__ == "__main__":
    main()
