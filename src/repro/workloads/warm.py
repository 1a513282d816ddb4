"""Warm-start cache: amortize machine construction and warm-up.

A sweep point measures steady state, so every run pays for work that is
identical across repeats and across points sharing a machine shape:
building the :class:`~repro.core.machine.Machine` and simulating the
warm-up episodes.  :class:`WarmCache` removes both costs:

* a :class:`~repro.core.snapshot.MachinePool` memoizes machine
  construction per configuration;
* each distinct *(workload shape, mechanism)* keeps a **warm context** —
  the machine's post-warm-up :class:`~repro.core.snapshot.MachineSnapshot`
  plus the sync object's saved Python-level state — so a repeat restores
  the checkpoint and replays only the measured phase.

A warm-started run is cycle-for-cycle and event-count identical to a
fresh build+warm+measure of the same point; the scale benchmark asserts
this on every repeat and the parity suite pins it against golden
fingerprints.  Workload drivers take ``warm_cache=None`` and build a
fresh machine only when it is absent.  Metered runs skip the warm
contexts, since metrics must observe the warm-up too, but still take
their machine from the pool and detach their observers when the run
ends.  Sync objects without ``save_state``/``load_state`` likewise run
their warm-up on a pooled machine each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.core.machine import Machine
from repro.core.snapshot import MachinePool, MachineSnapshot


@dataclass
class WarmContext:
    """One warmed machine checkpoint plus its sync object's state."""

    machine: Machine
    sync: Any
    snapshot: MachineSnapshot
    sync_state: dict


class WarmCache:
    """Keyed warm contexts over a shared machine pool.

    Contexts for different mechanisms on the same configuration share
    one pooled machine: each miss rewinds it to pristine, builds and
    warms its own sync object, and checkpoints; each hit rewinds to its
    own checkpoint.  Snapshots are independent data copies, so contexts
    never interfere.
    """

    def __init__(self, pool: Optional[MachinePool] = None) -> None:
        self.pool = pool if pool is not None else MachinePool()
        self._contexts: dict[Hashable, WarmContext] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._contexts)

    def lookup(self, key: Hashable) -> Optional[WarmContext]:
        ctx = self._contexts.get(key)
        if ctx is None:
            self.misses += 1
        else:
            self.hits += 1
        return ctx

    def store(self, key: Hashable, machine: Machine, sync: Any,
              snapshot: MachineSnapshot, sync_state: dict) -> None:
        self._contexts[key] = WarmContext(machine, sync, snapshot,
                                          sync_state)

    def clear(self) -> None:
        self._contexts.clear()
        self.pool.clear()
