"""Benchmark entry point.

    python3 perfbench/run.py --workload paper_tables --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  Every step runs in a fresh child
interpreter (``worker.py``) with ``PYTHONPATH=src``, an empty result
cache under ``.bench_build/perfbench/`` and every ``REPRO_*`` variable
removed from the environment.  A run

* measures set-up ``SETUP_SAMPLES`` times in set-up-only interpreters,
  plus once in each pass, and reports the median;
* runs passes of the workload, each in its own interpreter with its own
  empty cache, until ``--seconds`` of passes have been measured (at
  least one), and reports the median pass;
* scales every host time to the host speed at which one yardstick
  sample (``yardstick.py``) takes ``YARDSTICK_REF_S``, using the
  samples taken in the same interpreter around and during the timed
  work, because the shared host's own speed drifts by up to 1.9x;
* with ``--trace 1`` runs one untraced pass, one traced pass, and the
  unit-cost cells of both backends, and reports the per-layer metrics
  and the closing check instead of the end-to-end metrics.

The last line of standard output is the JSON result; the line before it
records the host.  Diagnostics go to standard error.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import accel  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 8
#: the yardstick time that times are scaled to: about one sample on the
#: host the benchmark was tuned on (2 vCPUs, Xeon, when calm)
YARDSTICK_REF_S = 0.010
#: a whole run must end within 180 s; children are killed past this
RUN_BUDGET_S = 170
#: no further pass starts if it would likely end the run past this many
#: seconds, so a run stays near half a minute whatever the host speed
RUN_CAP_S = 32
MECHANISMS = ("llsc", "actmsg", "atomic", "mao", "amo")
BACKENDS = ("reference", "accel")
UNIT_CELLS = {
    "sim.ring_ns_per_event": "ns", "sim.heap_ns_per_event": "ns",
    "sim.resume_ns": "ns", "network.send_ns": "ns",
    "coherence.get_s_us": "us", "coherence.inval_ns_per_sharer": "ns",
    "amu.word_update_ns_per_sharer": "ns", "core.build_ms_1024": "ms",
    "core.restore_ms_1024": "ms", "runner.uncached_point_us": "us",
}
SPAN_UNITS = {
    "runner.overhead_s": "s", "runner.cache_put_s": "s",
    "runner.driver_self_s": "s", "core.build_s": "s", "core.builds": "count",
    "core.restore_s": "s", "core.restores": "count",
    "workloads.warmup_s": "s", "workloads.measured_s": "s",
    "coherence.check_s": "s", "harness.tables_s": "s",
    "obs.attach_s": "s", "obs.snapshot_s": "s", "obs.critical_path_s": "s",
    "sim.events": "count", "sim.us_per_event": "us",
    **{f"network.messages.{k}": "count" for k in workloads.COUNTED_KINDS},
}


def per_layer_units() -> dict:
    """Every per-layer metric with its unit (BENCHMARK.json order)."""
    units = dict(SPAN_UNITS)
    for backend in BACKENDS:
        units.update({f"{name}.{backend}": unit
                      for name, unit in UNIT_CELLS.items()})
    units["runner.cached_point_us"] = "us"
    for phase in ("arrive", "release", "resume"):
        for mech in MECHANISMS:
            units[f"sync.barrier.{phase}_cycles.{mech}"] = "cycles"
    units.update({"closing.predicted_s": "s", "closing.residual_pct": "%",
                  "trace.overhead_pct": "%"})
    return units


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s",
                    "sim_cycles_per_s": "1/s", "peak_rss_mb": "MB"}


class Child:
    """Runs worker steps in fresh interpreters under a scratch dir."""

    def __init__(self, scratch: Path, lib) -> None:
        self.scratch = scratch
        #: the built accel library, passed to every step when present
        self.lib = lib
        self.count = 0
        self.start = time.monotonic()
        self.deadline = self.start + RUN_BUDGET_S
        # bytecode is always cached, under .bench_build, so set-up time
        # does not depend on whether the caller's environment disables it
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")
                    and k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(
            PYTHONPATH="src", PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
            REPRO_CACHE_DIR=str(scratch / "default-cache"))

    def fresh_dir(self, prefix: str) -> Path:
        self.count += 1
        path = self.scratch / f"{prefix}-{self.count}"
        path.mkdir()
        return path

    def __call__(self, mode: str, *args: str) -> dict:
        out = self.scratch / f"{mode}-{self.count}.json"
        self.count += 1
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               "--out", str(out), "--scratch", str(self.scratch), *args]
        if self.lib:
            cmd += ["--accel-lib", str(self.lib)]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, self.left()))
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"worker {mode} failed:\n{proc.stderr[-3000:]}")
        return json.loads(out.read_text())

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def run_pass(self, name: str, seed: int, trace: bool = False,
                 edge_samples_only: bool = False) -> dict:
        args = ["--workload", name, "--seed", str(seed),
                "--cache", str(self.fresh_dir("cache"))]
        if trace:
            args.append("--trace")
        if edge_samples_only:
            args.append("--edge-samples-only")
        return self("pass", *args)


def scaled(result: dict, key: str) -> float:
    """``result[key]`` at the reference host speed."""
    return result[key] * YARDSTICK_REF_S / result["yardstick_s"]


def host_record(lib) -> dict:
    try:
        gcc = subprocess.run(["gcc", "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        gcc = "unavailable"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "gcc": gcc,
            "accel_source_sha256": accel.source_hash(ROOT),
            "accel_library": str(lib.relative_to(ROOT)) if lib else None}


def pass_failures(result: dict) -> int:
    """Failed points of one pass: oracle or golden mismatches, a changed
    shape-check verdict, a cold-pass cache hit, or an accel pass that did
    not run compiled (all of its points)."""
    if result.get("accel", {}).get("ran_compiled") is False:
        return result["attempted"]
    failed = (len(result["failed_points"]) + len(result["changed_checks"])
              + result["cache"]["hits"])
    return min(result["attempted"], failed)


def closing_check(layer: dict, counts: dict, cells: dict) -> dict:
    """Predict the simulated phases' host time from unit costs.

    GET_S misses, invalidated sharers and word-update pushes are charged
    at their measured per-operation cost, which already covers the kernel
    events and messages they cause; every other message is charged at
    the fabric rate (send plus one delivery event) and every remaining
    event at the process-resume rate.
    """
    msgs = counts["messages"]
    footprint = cells["footprint"]
    ops = {"get_s": cells["coherence.get_s_us"] * 1e-6,
           "invalidate": cells["coherence.inval_ns_per_sharer"] * 1e-9,
           "word_update": cells["amu.word_update_ns_per_sharer"] * 1e-9}
    predicted = sum(msgs.get(kind, 0) * cost for kind, cost in ops.items())
    covered_events = sum(msgs.get(k, 0) * footprint[k][0] for k in ops)
    covered_msgs = sum(msgs.get(k, 0) * footprint[k][1] for k in ops)
    other_msgs = max(0.0, sum(msgs.values()) - covered_msgs)
    other_events = max(0.0, counts["events"] - covered_events - other_msgs)
    predicted += other_msgs * cells["network.send_ns"] * 1e-9
    predicted += other_events * cells["sim.resume_ns"] * 1e-9
    measured = layer["workloads.warmup_s"] + layer["workloads.measured_s"]
    return {"closing.predicted_s": predicted,
            "closing.residual_pct": (measured - predicted) / measured * 100}


def traced_metrics(child: Child, name: str, seed: int) -> tuple:
    plain = child.run_pass(name, seed, edge_samples_only=True)
    traced = child.run_pass(name, seed, trace=True, edge_samples_only=True)
    cells = {b: child("unit", "--backend", b) for b in BACKENDS}
    backend = workloads.WORKLOADS[name].backend
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    metrics.update(traced["layer"])
    for b in BACKENDS:
        metrics.update({f"{cell}.{b}": cells[b][cell] for cell in UNIT_CELLS})
    rerun = traced["cached_rerun"]
    metrics["runner.cached_point_us"] = (rerun["seconds"]
                                         / max(1, rerun["hits"]) * 1e6)
    metrics.update(closing_check(traced["layer"], traced["run_counts"],
                                 cells[backend]))
    metrics["trace.overhead_pct"] = ((scaled(traced, "wall_s")
                                      - scaled(plain, "wall_s"))
                                     / scaled(plain, "wall_s") * 100)
    if rerun["hits"] != traced["attempted"]:
        traced["changed_checks"].append("cached re-run missed the cache")
    return metrics, [plain, traced]


def end_to_end_metrics(child: Child, name: str, seed: int,
                       seconds: float) -> tuple:
    setups = [scaled(child("setup", "--workload", name,
                           "--cache", str(child.fresh_dir("cache"))),
                     "setup_s")
              for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    last = 0.0
    while not passes or (
            sum(p["wall_s"] for p in passes) < seconds
            and time.monotonic() - child.start + last <= RUN_CAP_S):
        t0 = time.monotonic()
        passes.append(child.run_pass(name, seed))
        last = time.monotonic() - t0
    setups += [scaled(p, "setup_s") for p in passes]
    metrics = {
        "wall_s": statistics.median(scaled(p, "wall_s") for p in passes),
        "setup_s": statistics.median(setups),
        "sim_cycles_per_s": statistics.median(
            p["sim_cycles"] / scaled(p, "wall_s") for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM unwind normally: subprocess.run kills and reaps the
    # running child, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ("src/repro/__init__.py", str(accel.SOURCE),
                           "tests/integration/golden/parity_32.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a repository checkout (missing {missing}); "
              "run from the root of one", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload]
        lib = None
        if workload.backend == "accel" or args.trace:
            lib = accel.ensure_built(ROOT)
        child = Child(scratch, lib)
        if args.trace:
            metrics, passes = traced_metrics(child, args.workload, args.seed)
            units = per_layer_units()
        else:
            metrics, passes = end_to_end_metrics(
                child, args.workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(pass_failures(p) for p in passes)
    for p in passes:
        print(json.dumps({
            "wall_s": round(p["wall_s"], 4),
            "yardstick_ms": round(p["yardstick_s"] * 1e3, 3),
            "events_per_s (diagnostic)": round(p["sim_events"]
                                               / p["wall_s"]),
            "failed_points": p["failed_points"],
            "changed_checks": p["changed_checks"], "errors": p["errors"],
            "cache": p["cache"], "accel": p.get("accel"),
            "golden_checked": p["golden_checked"]}), file=sys.stderr)
    print("# host " + json.dumps(host_record(lib)))
    print(json.dumps({
        "correct": failed == 0 and not any(p["errors"] for p in passes),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
