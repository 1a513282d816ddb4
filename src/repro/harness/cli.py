"""``repro-experiments`` — run the paper's experiments from the shell.

Examples::

    repro-experiments fig1
    repro-experiments table2 --cpus 4 16 64 --episodes 3
    repro-experiments all --quick
    repro-experiments all --full --jobs 4 --progress
    repro-experiments all --full --markdown > results.md

``--quick`` runs reduced sizes (up to 64 CPUs, fewer episodes) so the
whole suite completes in a couple of minutes; ``--full`` runs the paper's
complete 4-256 sweep (about 4.5 minutes serially on the ``reference``
backend and 2.2 on ``accel``, on a 2-core Intel Xeon host; the
256-processor runs are the slow part).

Sweeps go through :mod:`repro.runner`: ``--jobs N`` fans independent
simulations across N worker processes (0 = all cores), and results are
cached on disk keyed by configuration + code version, so re-running an
experiment — or another experiment sharing points, like ``fig5`` after
``table2`` — skips the simulation work entirely.  ``--no-cache``
disables the cache, ``--jobs 1`` (the default) runs serially in-process.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness import experiments as ex
from repro.harness.paper_data import TABLE2_CPUS, TABLE3_CPUS, TABLE4_CPUS
from repro.runner import (
    ParallelRunner, ResultCache, default_cache_dir, stderr_progress,
)

QUICK_BARRIER_CPUS = (4, 8, 16, 32, 64)
QUICK_TREE_CPUS = (16, 32, 64)
QUICK_LOCK_CPUS = (4, 8, 16, 32, 64)
QUICK_FIG7_CPUS = (32, 64)


def _sizes(args, full_default, quick_default):
    if args.cpus:
        return tuple(args.cpus)
    return tuple(full_default) if args.full else tuple(quick_default)


def _run_fuzz(args) -> int:
    """Replay one fuzz schedule with the sanitizer armed; 0 = clean."""
    from repro.check.fuzz import load_artifact, repro_command, run_fuzz_schedule

    if args.repro:
        params = load_artifact(args.repro)
    else:
        kinds = None
        if args.fuzz_kinds is not None:
            kinds = [k for k in args.fuzz_kinds.split(",")
                     if k and k != "none"]
        reorder_kinds = None
        if args.fuzz_reorder_kinds is not None:
            reorder_kinds = [k for k in args.fuzz_reorder_kinds.split(",")
                             if k and k != "none"]
        params = dict(
            n_processors=(args.cpus or [8])[0],
            mechanism=args.mechanism,
            workload=args.workload,
            seed=args.fuzz_seed,
            max_extra=args.fuzz_max_extra,
            kinds=kinds,
            reorder_window=args.fuzz_reorder,
            reorder_kinds=reorder_kinds,
            episodes=args.episodes,
            ops_per_cpu=args.ops_per_cpu,
            inject_bug=args.inject_bug,
        )
    print(f"# {repro_command(params)}", file=sys.stderr)
    out = run_fuzz_schedule(**params)
    verdict = "PASS" if out["ok"] else "FAIL"
    print(f"{verdict} {out['workload']}/{out['mechanism']} "
          f"P={out['n_processors']} seed={out['seed']} "
          f"max_extra={out['max_extra']} "
          f"({out['events_dispatched']} events, {out['cycles']} cycles)")
    if out["error"]:
        print(f"  error: {out['error']}")
    for violation in out["violations"]:
        print(f"  violation: {violation}")
    return 0 if out["ok"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables/figures of the AMO "
                    "synchronization paper (IPDPS 2004).")
    parser.add_argument("experiment",
                        choices=["table2", "fig5", "table3", "fig6",
                                 "table4", "fig7", "qlock", "fig1",
                                 "amo-model", "amo-tree", "fuzz", "all"])
    parser.add_argument("--cpus", type=int, nargs="+",
                        help="processor counts to evaluate")
    parser.add_argument("--episodes", type=int, default=3,
                        help="measured barrier episodes per configuration")
    parser.add_argument("--acquisitions", type=int, default=3,
                        help="lock acquisitions per CPU")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full 4-256 sweep")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (default)")
    parser.add_argument("--markdown", action="store_true",
                        help="emit Markdown tables")
    parser.add_argument("--json", metavar="PATH",
                        help="also write results as JSON to PATH")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the sweep (default 1 = "
                             "serial in-process; 0 = all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", metavar="PATH",
                        help="result-cache location (default "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-runner)")
    parser.add_argument("--timeout", type=float, metavar="SECONDS",
                        help="per-run wall-clock limit")
    parser.add_argument("--progress", action="store_true",
                        help="print one line per resolved sweep point")
    parser.add_argument("--metrics", action="store_true",
                        help="run sweeps with the repro.obs metrics layer "
                             "attached (separate cache entries)")
    parser.add_argument("--metrics-interval", type=int, default=0,
                        metavar="CYCLES",
                        help="with --metrics: sample gauges every N "
                             "simulated cycles (0 = no time-series)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the merged metrics export (JSON, "
                             "schema repro.obs.export/1) to PATH; "
                             "implies --metrics")
    parser.add_argument("--backend", metavar="NAME",
                        help="event-kernel backend (repro.sim.backends; "
                             "reference or accel).  Parity-gated: every "
                             "backend produces byte-identical results, "
                             "so this only changes wall-clock speed and "
                             "never the result cache key")
    fz = parser.add_argument_group(
        "fuzz", "options for the `fuzz` experiment (replay one schedule "
                "with the coherence sanitizer armed; see docs/checking.md)")
    fz.add_argument("--workload", default="counter",
                    help="fuzz workload: counter, barrier, lock, "
                         "qlock_mcs, qlock_cna, or qlock_rw")
    fz.add_argument("--mechanism", default="amo",
                    help="synchronization mechanism name (e.g. amo, llsc)")
    fz.add_argument("--fuzz-seed", type=int, default=0,
                    help="DelayInjector/ReorderInjector seed")
    fz.add_argument("--fuzz-max-extra", type=int, default=200,
                    metavar="CYCLES",
                    help="upper bound on injected per-message delay")
    fz.add_argument("--fuzz-kinds", metavar="KIND[,KIND...]",
                    help="restrict delay injection to these message kinds "
                         "('none' = no kinds, i.e. injector inert)")
    fz.add_argument("--fuzz-reorder", type=int, default=0,
                    metavar="CYCLES",
                    help="relaxed-ordering universe: weaken per-(src,dst) "
                         "FIFO delivery to per-cache-line order with up "
                         "to this many cycles of seeded jitter (0 = "
                         "strict FIFO, fabric untouched)")
    fz.add_argument("--fuzz-reorder-kinds", metavar="KIND[,KIND...]",
                    help="restrict reorder jitter to these message kinds "
                         "('none' = no kinds)")
    fz.add_argument("--ops-per-cpu", type=int, default=3,
                    help="counter/lock/qlock fuzz operations per CPU")
    fz.add_argument("--inject-bug", metavar="NAME",
                    help="deliberately break the protocol (checker "
                         "self-test): skip_invalidation, drop_word_update, "
                         "qlock_skip_wait, cna_skip_flush, rw_early_release")
    fz.add_argument("--repro", metavar="PATH",
                    help="replay the shrunk point from a fuzz artifact "
                         "(overrides the other fuzz options)")
    args = parser.parse_args(argv)
    if args.metrics_out:
        args.metrics = True
    if args.experiment == "fuzz":
        return _run_fuzz(args)

    cache = None
    if not args.no_cache:
        cache = ResultCache(root=args.cache_dir or default_cache_dir())
    runner = ParallelRunner(jobs=args.jobs, cache=cache,
                            timeout=args.timeout,
                            progress=stderr_progress if args.progress else None)

    want = args.experiment
    results: list[ex.ExperimentResult] = []
    t0 = time.time()

    if want in ("table2", "fig5", "amo-model", "all"):
        cpus = _sizes(args, TABLE2_CPUS, QUICK_BARRIER_CPUS)
        print(f"# running flat-barrier suite on CPUs={cpus} ...",
              file=sys.stderr)
        flat = ex.run_barrier_suite(cpus, episodes=args.episodes,
                                    runner=runner, metrics=args.metrics,
                                    metrics_interval=args.metrics_interval,
                                    backend=args.backend)
        if want in ("table2", "all"):
            results.append(ex.experiment_table2(flat))
        if want in ("fig5", "all"):
            results.append(ex.experiment_fig5(flat))
        if want in ("amo-model", "all"):
            results.append(ex.experiment_amo_model(flat))
    if want in ("table3", "fig6", "all"):
        cpus = _sizes(args, TABLE3_CPUS, QUICK_TREE_CPUS)
        print(f"# running tree-barrier suite on CPUs={cpus} ...",
              file=sys.stderr)
        tree = ex.run_tree_suite(cpus, episodes=args.episodes,
                                 runner=runner, metrics=args.metrics,
                                 metrics_interval=args.metrics_interval,
                                 backend=args.backend)
        flat3 = ex.run_barrier_suite(cpus, episodes=args.episodes,
                                     runner=runner, metrics=args.metrics,
                                     metrics_interval=args.metrics_interval,
                                     backend=args.backend)
        if want in ("table3", "all"):
            results.append(ex.experiment_table3(tree, flat3))
        if want in ("fig6", "all"):
            results.append(ex.experiment_fig6(tree))
    if want in ("table4", "fig7", "all"):
        cpus = _sizes(args, TABLE4_CPUS, QUICK_LOCK_CPUS)
        print(f"# running lock suite on CPUs={cpus} ...", file=sys.stderr)
        locks = ex.run_lock_suite(cpus,
                                  acquisitions_per_cpu=args.acquisitions,
                                  runner=runner, metrics=args.metrics,
                                  metrics_interval=args.metrics_interval,
                                  backend=args.backend)
        if want in ("table4", "all"):
            results.append(ex.experiment_table4(locks))
        if want in ("fig7", "all"):
            fig7_cpus = [p for p in (args.cpus or
                                     ((128, 256) if args.full
                                      else QUICK_FIG7_CPUS))
                         if p in cpus]
            results.append(ex.experiment_fig7(locks, cpu_counts=fig7_cpus))
    if want in ("qlock", "all"):
        cpus = _sizes(args, TABLE4_CPUS, QUICK_LOCK_CPUS)
        print(f"# running queue-lock suite on CPUs={cpus} ...",
              file=sys.stderr)
        qlocks = ex.run_qlock_suite(cpus,
                                    acquisitions_per_cpu=args.acquisitions,
                                    runner=runner, metrics=args.metrics,
                                    metrics_interval=args.metrics_interval,
                                    backend=args.backend)
        results.append(ex.experiment_qlock(qlocks))
    if want == "amo-tree":
        cpus = _sizes(args, (16, 32, 64, 128, 256), (16, 32, 64))
        print(f"# running AMO tree-crossover search on CPUs={cpus} ...",
              file=sys.stderr)
        results.append(ex.experiment_amo_tree_crossover(
            cpus, episodes=args.episodes, runner=runner,
            metrics=args.metrics, metrics_interval=args.metrics_interval,
            backend=args.backend))
    if want in ("fig1", "all"):
        results.append(ex.experiment_fig1())

    for res in results:
        print(res.format(markdown=args.markdown))
        print()
    if args.json:
        import json
        payload = [{
            "experiment": r.exp_id,
            "title": r.title,
            "columns": r.table.columns,
            "rows": r.table.rows,
            "paper_rows": r.paper.rows if r.paper else None,
            "checks": [{"name": c.name, "passed": c.passed,
                        "detail": c.detail} for c in r.checks],
            "notes": r.notes,
        } for r in results]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"# wrote {args.json}", file=sys.stderr)
    if args.metrics_out:
        import json
        from repro.obs import build_export, validate_export
        export = build_export(runner.metrics_points,
                              runner=runner.stats.snapshot()["counters"])
        errors = validate_export(export)
        if errors:
            for err in errors:
                print(f"# metrics export INVALID: {err}", file=sys.stderr)
            return 2
        with open(args.metrics_out, "w") as fh:
            json.dump(export, fh, indent=2)
        print(f"# wrote metrics export ({len(export['points'])} points) "
              f"to {args.metrics_out}", file=sys.stderr)
    if runner.stats.total_points:
        print(f"# runner: {runner.stats.summary()}", file=sys.stderr)
    failed = [c for r in results for c in r.checks if not c.passed]
    print(f"# {len(results)} experiment(s), "
          f"{sum(len(r.checks) for r in results)} shape checks, "
          f"{len(failed)} failed, {time.time() - t0:.1f}s", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
