"""Host-time spans wrapped around the simulator's public entry points.

Every span is recorded from the benchmark's own files: :func:`install`
replaces a handful of methods with timing wrappers that call the
original unchanged, so the simulator runs exactly the code path it runs
untraced.  The wrapped boundaries are

* ``ParallelRunner.run`` and ``ResultCache.store`` (runner layer),
* the ``barrier``/``lock`` run kinds, re-registered with a wrapper
  around their drivers (one point each),
* ``Machine.__init__``, ``MachineSnapshot.restore`` and
  ``Machine.check_coherence_invariants`` (core layer),
* ``Machine.run_threads`` — the last call of a point is its measured
  phase, earlier calls are warm-up (workload layer),
* ``MachineMetrics.attach``/``TraceRecorder.attach``,
  ``MachineMetrics.snapshot`` and ``CriticalPathAnalyzer.analyze``/
  ``summarize`` (observability layer),
* ``TraceRecorder.add_span`` for the drivers' per-CPU episode markers,
  which give the simulated barrier phase split.

Each span is *self* time: its duration minus the spans nested inside
it, so layer totals add up without double counting.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class Probes:
    """Self time and call counts per span name, plus simulated counts."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: open spans, innermost last: [name, nested seconds, elapsed]
        self._stack: list[list] = []
        #: self seconds of each run_threads call of the current point
        self._phases: list[float] = []
        #: kernel events and messages (remote + node-local, by kind
        #: value) dispatched inside run_threads, over all points
        self.run_events = 0
        self.run_messages: Counter = Counter()
        #: episode markers of the current point: (track, start, end)
        self._episodes: list[tuple[str, int, int]] = []
        #: ((P, mechanism), markers) for every flat-barrier point
        self.barrier_episodes: list[tuple[tuple, list]] = []

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        t0 = _now()
        try:
            yield frame
        finally:
            frame[2] = elapsed = _now() - t0
            self._stack.pop()
            self.seconds[name] += elapsed - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += elapsed

    def wrap(self, owner: type, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a timed call of the original."""
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod,
                                             staticmethod)) else None
        fn = raw.__func__ if kind else raw
        probes = self

        def timed(*args, **kwargs):
            with probes.span(name):
                return fn(*args, **kwargs)

        setattr(owner, attr, kind(timed) if kind else timed)

    def wrap_driver(self, kind: str, fn):
        """A driver wrapper that files its run_threads calls by phase."""
        probes = self

        def driver(**kwargs):
            probes._phases = []
            probes._episodes = []
            with probes.span("runner.driver"):
                result = fn(**kwargs)
            *warmups, measured = probes._phases
            probes.seconds["workloads.warmup"] += sum(warmups)
            probes.seconds["workloads.measured"] += measured
            if (kind == "barrier" and kwargs.get("tree_branching") is None
                    and probes._episodes):
                probes.barrier_episodes.append((
                    (kwargs["n_processors"], kwargs["mechanism"].value),
                    probes._episodes))
            return result

        return driver

    def wrap_run_threads(self, machine_cls: type) -> None:
        fn = machine_cls.__dict__["run_threads"]
        probes = self

        def run_threads(machine, *args, **kwargs):
            stats = machine.net.stats
            events = machine.sim.events_dispatched
            remote, local = stats.messages.copy(), stats.local_messages.copy()
            try:
                with probes.span("workloads.run_threads") as frame:
                    return fn(machine, *args, **kwargs)
            finally:
                probes._phases.append(frame[2] - frame[1])
                probes.run_events += machine.sim.events_dispatched - events
                for kind, n in ((stats.messages - remote)
                                + (stats.local_messages - local)).items():
                    probes.run_messages[kind.value] += n

        machine_cls.run_threads = run_threads

    def wrap_add_span(self, recorder_cls: type, episode_name: str) -> None:
        fn = recorder_cls.__dict__["add_span"]
        probes = self

        def add_span(recorder, track, name, start, end, **args):
            if name == episode_name:
                probes._episodes.append((track, start, end))
            return fn(recorder, track, name, start, end, **args)

        recorder_cls.add_span = add_span


def install() -> Probes:
    """Wrap every boundary listed in the module docstring."""
    from repro.core.machine import Machine
    from repro.core.snapshot import MachineSnapshot
    from repro.obs import CriticalPathAnalyzer, MachineMetrics
    from repro.obs.critical_path import EPISODE_SPAN
    from repro.runner import ParallelRunner
    from repro.runner.cache import ResultCache
    from repro.runner.spec import register_kind
    from repro.trace.recorder import TraceRecorder
    from repro.workloads.barrier import run_barrier_workload
    from repro.workloads.locks import run_lock_workload

    probes = Probes()
    probes.wrap(ParallelRunner, "run", "runner.run")
    probes.wrap(ResultCache, "store", "runner.cache_put")
    probes.wrap(Machine, "__init__", "core.build")
    probes.wrap(MachineSnapshot, "restore", "core.restore")
    probes.wrap(Machine, "check_coherence_invariants", "coherence.check")
    probes.wrap(MachineMetrics, "attach", "obs.attach")
    probes.wrap(TraceRecorder, "attach", "obs.attach")
    probes.wrap(MachineMetrics, "snapshot", "obs.snapshot")
    probes.wrap(CriticalPathAnalyzer, "analyze", "obs.critical_path")
    probes.wrap(CriticalPathAnalyzer, "summarize", "obs.critical_path")
    probes.wrap_run_threads(Machine)
    probes.wrap_add_span(TraceRecorder, EPISODE_SPAN)
    register_kind("barrier", probes.wrap_driver("barrier",
                                                run_barrier_workload),
                  warmable=True)
    register_kind("lock", probes.wrap_driver("lock", run_lock_workload),
                  warmable=True)
    return probes
