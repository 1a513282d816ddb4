#!/usr/bin/env python
"""Seeded schedule-exploration sweep with the coherence sanitizer armed.

Every point runs one fuzz workload (counter, barrier, lock, or the
queue locks qlock_mcs/qlock_cna/qlock_rw) under one timing universe —
seed x delay bound x mechanism, optionally relaxed-ordering via
``--reorder`` (a :class:`~repro.network.faults.ReorderInjector` window,
cycled across seeds like the delay bounds; 0 = strict FIFO) — with the
:class:`~repro.check.CoherenceSanitizer` checking SWMR,
directory/cache agreement, put delivery, and data-value integrity on
the fly, and the recorded synchronization history verified for
linearizability afterwards.  Unsupported cells (qlock_rw over mao, a
lock-level ``--inject-bug`` under a non-matching workload) are skipped,
not failed.  Points fan out through
:class:`~repro.runner.ParallelRunner` (``--jobs 0`` = all cores).

On failure, each failing point (up to ``--max-failures``) is shrunk
serially to a minimal reproducer — smallest failing delay bound, then
the smallest failing reorder window (or none), then delta-debugged
message-kind subsets — and written to ``--artifact-dir`` as a JSON
artifact whose ``command`` field is a one-line ``repro-experiments
fuzz`` invocation replaying it, naming the universe that failed.  Exit
status is nonzero iff any point failed.

CI smoke (PR gate)::

    PYTHONPATH=src python tools/fuzz_schedules.py --seeds 12 \\
        --mechanisms llsc amo --workloads lock barrier --jobs 0

Acceptance sweep (all five mechanisms, both universes)::

    PYTHONPATH=src python tools/fuzz_schedules.py --seeds 64 \\
        --workloads barrier lock qlock_mcs qlock_cna qlock_rw \\
        --reorder 0 60

Checker self-test (must exit nonzero)::

    PYTHONPATH=src python tools/fuzz_schedules.py --seeds 2 \\
        --mechanisms llsc --workloads lock --inject-bug skip_invalidation
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.check.fuzz import (  # noqa: E402
    FUZZ_WORKLOADS,
    INJECTABLE_BUGS,
    bug_compatible,
    repro_command,
    shrink_failure,
    write_artifact,
)
from repro.config.mechanism import Mechanism  # noqa: E402
from repro.runner import ParallelRunner  # noqa: E402
from repro.runner.executor import RunFailure  # noqa: E402
from repro.runner.spec import RunSpec  # noqa: E402
from repro.workloads.qlocks import qlock_supported  # noqa: E402

ALL_MECHANISMS = tuple(m.value for m in Mechanism)
DEFAULT_WORKLOADS = ("barrier", "lock")
DEFAULT_MAX_EXTRA = (100, 400)


def _cell_supported(workload: str, mech: Mechanism) -> bool:
    if workload.startswith("qlock_"):
        return qlock_supported(workload[len("qlock_") :], mech)
    return True


def build_grid(args) -> list[RunSpec]:
    specs = []
    for seed_index in range(args.seeds):
        seed = args.seed_base + seed_index
        max_extra = args.max_extra[seed_index % len(args.max_extra)]
        # stride by the delay-bound cycle so every (bound, window) pair
        # appears once the seed count covers the product
        reorder = args.reorder[
            (seed_index // len(args.max_extra)) % len(args.reorder)
        ]
        for mech in args.mechanisms:
            mechanism = Mechanism.from_name(mech)
            for workload in args.workloads:
                if not _cell_supported(workload, mechanism):
                    continue
                if not bug_compatible(args.inject_bug, workload):
                    continue
                specs.append(
                    RunSpec.fuzz(
                        n_processors=args.cpus,
                        mechanism=mechanism,
                        workload=workload,
                        seed=seed,
                        max_extra=max_extra,
                        reorder_window=reorder,
                        episodes=args.episodes,
                        ops_per_cpu=args.ops_per_cpu,
                        inject_bug=args.inject_bug,
                    )
                )
    return specs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fuzz message schedules with the coherence sanitizer armed."
    )
    parser.add_argument("--seeds", type=int, default=64, help="seeds per cell")
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument(
        "--mechanisms",
        nargs="+",
        default=list(ALL_MECHANISMS),
        choices=ALL_MECHANISMS,
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=list(DEFAULT_WORKLOADS),
        choices=FUZZ_WORKLOADS,
    )
    parser.add_argument("--cpus", type=int, default=8)
    parser.add_argument(
        "--max-extra",
        type=int,
        nargs="+",
        default=list(DEFAULT_MAX_EXTRA),
        metavar="CYCLES",
        help="delay bounds, cycled across seeds",
    )
    parser.add_argument(
        "--reorder",
        type=int,
        nargs="+",
        default=[0],
        metavar="CYCLES",
        help="relaxed-ordering windows, cycled across seeds (0 = strict "
        "FIFO delivery; nonzero installs a ReorderInjector)",
    )
    parser.add_argument("--episodes", type=int, default=2)
    parser.add_argument("--ops-per-cpu", type=int, default=3)
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes (0 = all cores)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="per-run wall limit (s)",
    )
    parser.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        default=True,
    )
    parser.add_argument("--artifact-dir", default="fuzz-artifacts")
    parser.add_argument(
        "--max-failures",
        type=int,
        default=3,
        help="failures to shrink before giving up",
    )
    parser.add_argument(
        "--inject-bug",
        choices=INJECTABLE_BUGS,
        help="checker self-test: the sweep should FAIL (lock-level bugs "
        "run only under their matching qlock workload)",
    )
    parser.add_argument("--progress", action="store_true")
    args = parser.parse_args(argv)

    specs = build_grid(args)
    if not specs:
        print(
            "# grid is empty: no workload/mechanism/bug-compatible cells",
            file=sys.stderr,
        )
        return 2
    print(
        f"# fuzzing {len(specs)} points: {args.seeds} seeds x "
        f"{args.mechanisms} x {args.workloads}, P={args.cpus}, "
        f"max_extra={args.max_extra}, reorder={args.reorder}",
        file=sys.stderr,
    )
    from repro.runner import stderr_progress

    runner = ParallelRunner(
        jobs=args.jobs,
        cache=None,
        timeout=args.timeout,
        progress=stderr_progress if args.progress else None,
    )
    t0 = time.time()
    outcomes = runner.run_outcomes(specs)

    failures = []
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, RunFailure):
            failures.append((spec, {"error": outcome.error, "violations": []}))
        elif not outcome.result["ok"]:
            failures.append((spec, outcome.result))
    elapsed = time.time() - t0
    print(
        f"# {len(specs)} points in {elapsed:.1f}s, "
        f"{len(failures)} failure(s)",
        file=sys.stderr,
    )
    if not failures:
        print(f"OK: {len(specs)} schedules clean")
        return 0

    os.makedirs(args.artifact_dir, exist_ok=True)
    for index, (spec, result) in enumerate(failures[: args.max_failures]):
        params = dict(spec.kwargs)
        params["mechanism"] = params["mechanism"].value
        print(f"FAIL: {spec.label()}", file=sys.stderr)
        for violation in result.get("violations", [])[:5]:
            print(f"  violation: {violation}", file=sys.stderr)
        if result.get("error"):
            print(f"  error: {result['error']}", file=sys.stderr)
        path = os.path.join(args.artifact_dir, f"failure-{index}.json")
        if args.shrink:
            try:
                shrunk, outcome = shrink_failure(
                    params,
                    log=lambda msg: print(f"  # {msg}", file=sys.stderr),
                )
            except ValueError:
                # flaky under the runner (e.g. wall-clock timeout): keep
                # the unshrunk point as the artifact
                shrunk, outcome = params, result
        else:
            shrunk, outcome = params, result
        write_artifact(path, params, shrunk, outcome)
        print(f"  artifact: {path}", file=sys.stderr)
        print(f"  repro: {repro_command(shrunk)}")
    skipped = len(failures) - min(len(failures), args.max_failures)
    if skipped:
        print(f"# {skipped} further failure(s) not shrunk", file=sys.stderr)
    print(f"FAILED: {len(failures)}/{len(specs)} schedules")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
