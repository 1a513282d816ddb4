"""The benchmark's workloads, built on the public suite functions.

A workload is a list of *suite calls* (``run_barrier_suite``,
``run_tree_suite``, ``run_lock_suite`` through one
``ParallelRunner(jobs=1)``) followed by the ``experiment_*`` tables
built from their results.  The seed only permutes the order in which
the calls are submitted; every point's simulated result is
order-independent, so one recorded oracle serves every seed.

Tree barriers are submitted one branching per call, so that every
point's fingerprint is visible; the best branching per (P, mechanism) is
then picked exactly as ``run_tree_suite`` picks it (strictly fewer
cycles wins, branchings in ascending order).

Suite sizes follow the paper (Tables 2-4, Figures 5-7), capped as noted
at the size constants below.  Paper-table points use two measured
episodes / acquisitions after one warm-up, the shape of the committed
golden parity fingerprints, so the 32-CPU flat barrier and ticket-lock
points are cross-checked against
``tests/integration/golden/parity_32.json`` directly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

EPISODES = 2
ACQUISITIONS = 2
BRANCHINGS = (4, 8, 16, 32)

#: sizes of each paper table.  Barriers go up to 128 CPUs; locks stop at
#: 64, because on a 2-core host the five 128-CPU ticket-lock points alone
#: take ~19 s, more than a whole run of this workload may.
TABLE2_CPUS = (4, 8, 16, 32, 64, 128)
TABLE3_CPUS = (16, 32, 64, 128)
TABLE4_CPUS = (4, 8, 16, 32, 64)
FIG7_CPUS = (64,)

#: the scale workload: flat barriers and the widest tree at 1024 CPUs,
#: one measured episode after the warm-up (each 1024-CPU point takes
#: 0.5-3 s per episode on a 2-core host)
SCALE_CPUS = 1024
SCALE_EPISODES = 1
SCALE_BRANCHINGS = (32,)

#: message kinds reported per layer by a traced run
COUNTED_KINDS = ("get_s", "get_x", "invalidate", "word_update", "am_request")


@dataclass(frozen=True)
class Workload:
    name: str
    #: "paper" (Tables 2-4) or "scale" (1024-CPU barriers)
    kind: str
    backend: str = "reference"
    metrics: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("paper_tables", "paper"),
    Workload("barrier_scale", "scale"),
    Workload("paper_tables_accel", "paper", backend="accel"),
    Workload("paper_tables_metered", "paper", metrics=True),
)}


def point_key(suite: str, p: int, mech: str, extra=None) -> str:
    """Stable oracle key of one point (backend and metering excluded)."""
    return f"{suite}/P={p}/{mech}/{extra if extra is not None else '-'}"


def fingerprint(res) -> dict:
    """Simulated totals that must be identical on every backend."""
    traffic = res.traffic

    def by_kind(counter) -> dict:
        return {k.value: v for k, v in sorted(
            counter.items(), key=lambda kv: kv[0].value) if v}

    return {
        "total_cycles": res.total_cycles,
        "events_dispatched": res.events_dispatched,
        "messages": by_kind(traffic.messages),
        "local_messages": by_kind(traffic.local_messages),
        "bytes": by_kind(traffic.bytes),
    }


def calls_of(workload: Workload) -> list[tuple[str, int, object]]:
    """``(suite, P, branching)`` calls of one pass, in canonical order."""
    if workload.kind == "paper":
        return ([("flat", p, None) for p in TABLE2_CPUS]
                + [("tree", p, b) for p in TABLE3_CPUS
                   for b in BRANCHINGS if b < p]
                + [("lock", p, None) for p in TABLE4_CPUS])
    return ([("flat", SCALE_CPUS, None)]
            + [("tree", SCALE_CPUS, b) for b in SCALE_BRANCHINGS])


def run(workload: Workload, runner, seed: int) -> dict:
    """Run one pass.

    Returns ``points`` (:func:`point_key` -> result), ``checks``
    (``exp_id`` -> {check name: passed}), ``errors`` (one line per
    suite call that raised) and ``tables_s`` (host seconds spent
    building the tables).  A suite call that raises leaves its points
    out of ``points``; the caller counts them as failed.
    """
    from repro.harness import experiments as ex

    calls = calls_of(workload)
    random.Random(seed).shuffle(calls)
    kw = dict(runner=runner, metrics=workload.metrics,
              backend=workload.backend)
    episodes = EPISODES if workload.kind == "paper" else SCALE_EPISODES
    points: dict = {}
    flat: dict = {}
    locks: dict = {}
    trees: dict = {}                      # (P, mechanism, b) -> result
    errors: list[str] = []
    for suite, p, b in calls:
        try:
            if suite == "flat":
                got = ex.run_barrier_suite([p], episodes=episodes, **kw)
                flat.update(got)
            elif suite == "tree":
                got = ex.run_tree_suite([p], episodes=episodes,
                                        branchings=(b,), **kw)
                trees.update({(k[0], k[1], b): v for k, v in got.items()})
            else:
                got = ex.run_lock_suite(
                    [p], acquisitions_per_cpu=ACQUISITIONS, **kw)
                locks.update(got)
        except Exception as err:          # counted as failed points
            errors.append(f"{suite} P={p} b={b}: {err}")
            continue
        for key, res in got.items():
            extra = key[2] if suite == "lock" else b
            points[point_key(suite, key[0], key[1].value, extra)] = res

    t0 = time.perf_counter()
    tree: dict = {}
    for (p, mech, _b), res in sorted(trees.items(),
                                     key=lambda kv: kv[0][2]):
        best = tree.get((p, mech))
        if best is None or res.cycles_per_episode < best.cycles_per_episode:
            tree[(p, mech)] = res
    checks: dict = {}
    try:
        if workload.kind == "paper":
            flat3 = {k: v for k, v in flat.items() if k[0] in TABLE3_CPUS}
            tables = [ex.experiment_table2(flat), ex.experiment_fig5(flat),
                      ex.experiment_table3(tree, flat3),
                      ex.experiment_fig6(tree), ex.experiment_table4(locks),
                      ex.experiment_fig7(locks, cpu_counts=FIG7_CPUS)]
        else:
            # experiment_table2 needs a 256-CPU column once P >= 256
            tables = [ex.experiment_fig5(flat),
                      ex.experiment_table3(tree, flat),
                      ex.experiment_fig6(tree)]
        checks = {t.exp_id: {c.name: c.passed for c in t.checks}
                  for t in tables}
    except Exception as err:              # missing points: no tables
        errors.append(f"tables: {err!r}")
    return {"points": points, "checks": checks, "errors": errors,
            "tables_s": time.perf_counter() - t0}
