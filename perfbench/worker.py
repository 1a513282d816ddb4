"""One fresh-interpreter step of the benchmark; run by ``run.py``.

Modes (the result is written as JSON to ``--out``):

``setup``  import the simulator, resolve the backend, arm the accel model
           port and open the result cache, then stop: the set-up time,
           and the yardstick time right after it.
``pass``   set up, then run one pass of a workload through the public
           suite functions, check every point against the oracle and
           report wall time, the mean yardstick time during the pass
           (``yardstick.py``), simulated cycles and peak memory.  With
           ``--trace`` the layer probes are installed and the pass also
           reports spans, counts, the barrier phase split and a cached
           re-run.
``unit``   measure the unit-cost cells of one backend.
``record`` write the oracle (``oracle.json``) from ``reference``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import accel  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

HERE = Path(__file__).resolve().parent
ORACLE = HERE / "oracle.json"
GOLDEN = Path("tests/integration/golden/parity_32.json")


def setup(backend: str, accel_lib, cache_dir, trace: bool) -> dict:
    """Everything up to the first point; returns the live objects."""
    import repro.sim.backends as backends
    from repro.harness import experiments  # noqa: F401
    from repro.runner import ParallelRunner
    from repro.runner.cache import ResultCache
    from repro.sim.backends.model import model_implementation

    provenance = None
    if backend == "accel":
        if accel_lib:
            accel.load(Path(accel_lib))
        provenance = {"kernel": backends.accel_implementation(),
                      "model": model_implementation()}
    backends.resolve_backend_name(backend)
    probes = None
    if trace:
        import probes as probes_mod
        probes = probes_mod.install()
    runner = (ParallelRunner(jobs=1, cache=ResultCache(cache_dir))
              if cache_dir else None)
    return {"runner": runner, "probes": probes, "provenance": provenance,
            "setup_s": time.perf_counter() - _T0}


def _accel_ran_compiled(provenance: dict) -> bool:
    """Both implementations compiled, and an accel machine uses them."""
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine

    machine = Machine(SystemConfig.table1(4).replace(kernel_backend="accel"))
    return (provenance == {"kernel": "compiled", "model": "compiled"}
            and type(machine.sim).__module__ == accel.MODULE
            and type(machine.net).__name__ == "AccelNetwork")


def verify(workload, out: dict) -> dict:
    """Compare a pass with the oracle and the golden parity file."""
    oracle = json.loads(ORACLE.read_text())[workload.kind]
    points = out["points"]
    got = {key: workloads.fingerprint(res) for key, res in points.items()}
    bad = {key for key, fp in oracle["points"].items() if got.get(key) != fp}
    bad |= set(got) - set(oracle["points"])
    golden_checked = 0
    if workload.kind == "paper":
        golden = json.loads(GOLDEN.read_text())["fingerprints"]
        for mech, entry in golden.items():
            for key, gold in ((workloads.point_key("flat", 32, mech),
                               entry["barrier"]),
                              (workloads.point_key("lock", 32, mech,
                                                   "ticket"),
                               entry["lock"])):
                golden_checked += 1
                fp = got.get(key)
                if fp is None or any((
                        fp["total_cycles"] != gold["total_cycles"],
                        fp["events_dispatched"] != gold["events_dispatched"],
                        fp["messages"] != gold["messages"],
                        fp["local_messages"] != gold["local_messages"],
                        sum(fp["bytes"].values()) != gold["total_bytes"])):
                    bad.add(key)
    changed = sorted(
        f"{exp}: {name}" for exp in oracle["checks"]
        for name, passed in oracle["checks"][exp].items()
        if out["checks"].get(exp, {}).get(name) != passed)
    return {"attempted": len(oracle["points"]), "failed_points": sorted(bad),
            "changed_checks": changed, "golden_checked": golden_checked}


def barrier_phases(probes) -> dict:
    """Mean simulated arrive/release/resume cycles per flat-barrier
    episode at the largest machine size, per mechanism."""
    if not probes.barrier_episodes:
        return {}
    largest = max(p for (p, _mech), _ in probes.barrier_episodes)
    sums: dict = defaultdict(lambda: [0, 0, 0, 0])
    for (p, mech), markers in probes.barrier_episodes:
        if p != largest:
            continue
        by_track: dict = defaultdict(list)
        for track, start, end in markers:
            by_track[track].append((start, end))
        for spans in by_track.values():
            spans.sort()
        for i in range(min(len(s) for s in by_track.values())):
            window = [spans[i] for spans in by_track.values()]
            last_arrival = max(s for s, _ in window)
            first_resume = min(e for _, e in window)
            acc = sums[mech]
            acc[0] += last_arrival - min(s for s, _ in window)
            acc[1] += first_resume - last_arrival
            acc[2] += max(e for _, e in window) - first_resume
            acc[3] += 1
    out = {}
    for mech, (arrive, release, resume, n) in sums.items():
        out[f"sync.barrier.arrive_cycles.{mech}"] = arrive / n
        out[f"sync.barrier.release_cycles.{mech}"] = release / n
        out[f"sync.barrier.resume_cycles.{mech}"] = resume / n
    return out


def trace_report(probes, out: dict) -> dict:
    """Per-layer spans and counts of the traced pass."""
    s, c = probes.seconds, probes.calls
    results = list(out["points"].values())
    messages: dict = defaultdict(int)
    for res in results:
        for kind, n in res.traffic.messages.items():
            messages[kind.value] += n
    layer = {
        "runner.overhead_s": s["runner.run"],
        "runner.cache_put_s": s["runner.cache_put"],
        "runner.driver_self_s": s["runner.driver"],
        "core.build_s": s["core.build"],
        "core.builds": c["core.build"],
        "core.restore_s": s["core.restore"],
        "core.restores": c["core.restore"],
        "workloads.warmup_s": s["workloads.warmup"],
        "workloads.measured_s": s["workloads.measured"],
        "coherence.check_s": s["coherence.check"],
        "harness.tables_s": out["tables_s"],
        "obs.attach_s": s["obs.attach"],
        "obs.snapshot_s": s["obs.snapshot"],
        "obs.critical_path_s": s["obs.critical_path"],
        "sim.events": sum(r.events_dispatched for r in results),
        "sim.us_per_event": ((s["workloads.warmup"]
                              + s["workloads.measured"])
                             / max(1, probes.run_events) * 1e6),
    }
    for kind in workloads.COUNTED_KINDS:
        layer[f"network.messages.{kind}"] = messages[kind]
    layer.update(barrier_phases(probes))
    return {"layer": layer,
            "run_counts": {"events": probes.run_events,
                           "messages": dict(probes.run_messages)}}


def do_pass(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    env = setup(workload.backend, args.accel_lib, args.cache, args.trace)
    runner, probes = env["runner"], env["probes"]
    # both passes of a traced run sample the host only before and after,
    # so that no sample lands inside a layer span
    yard = yardstick.Sampler(timer=not args.edge_samples_only)
    with yard:
        t0 = time.perf_counter()
        out = workloads.run(workload, runner, args.seed)
        wall = time.perf_counter() - t0 - yard.spent
    result = {
        "setup_s": env["setup_s"], "wall_s": wall,
        "yardstick_s": yard.mean(), "yardstick_samples": len(yard.samples),
        "sim_cycles": sum(r.total_cycles for r in out["points"].values()),
        "sim_events": sum(r.events_dispatched
                          for r in out["points"].values()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache": runner.cache.stats.as_dict(),
        "errors": out["errors"],
        **verify(workload, out),
    }
    if workload.backend == "accel":
        result["accel"] = dict(env["provenance"],
                               ran_compiled=_accel_ran_compiled(
                                   env["provenance"]))
    if probes is not None:
        result.update(trace_report(probes, out))
        hits = runner.cache.stats.hits
        t0 = time.perf_counter()
        workloads.run(workload, runner, args.seed)
        cached = time.perf_counter() - t0
        result["cached_rerun"] = {"seconds": cached,
                                  "hits": runner.cache.stats.hits - hits}
    return result


def do_unit(args) -> dict:
    import unitcost

    env = setup(args.backend, args.accel_lib, None, False)
    if args.backend == "accel" and not _accel_ran_compiled(
            env["provenance"]):
        raise SystemExit("accel unit costs refused: not running compiled")
    return unitcost.measure(args.backend, args.scratch)


def do_record(args) -> dict:
    """The oracle: every point's fingerprint and every shape-check
    verdict, from ``reference`` in canonical order."""
    env = setup("reference", None, args.cache, False)
    oracle = {}
    for name in ("paper_tables", "barrier_scale"):
        workload = workloads.WORKLOADS[name]
        t0 = time.perf_counter()
        out = workloads.run(workload, env["runner"], 0)
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        if out["errors"]:
            raise SystemExit(f"{name}: {out['errors']}")
        oracle[workload.kind] = {
            "points": {key: workloads.fingerprint(res)
                       for key, res in sorted(out["points"].items())},
            "checks": out["checks"]}
    return oracle


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "unit", "record"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--backend", default="reference")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache", help="empty result-cache directory")
    parser.add_argument("--scratch", help="directory for temporary files")
    parser.add_argument("--accel-lib", help="built _accel_core library")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--edge-samples-only", action="store_true",
                        help="take no yardstick samples during the pass")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        backend = workloads.WORKLOADS[args.workload].backend
        setup_s = setup(backend, args.accel_lib, args.cache,
                        False)["setup_s"]
        with yardstick.Sampler(timer=False) as yard:
            pass
        result = {"setup_s": setup_s, "yardstick_s": yard.mean()}
    elif args.mode == "pass":
        result = do_pass(args)
    elif args.mode == "unit":
        result = do_unit(args)
    else:
        result = do_record(args)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True)
                              + "\n")


if __name__ == "__main__":
    sys.exit(main())
