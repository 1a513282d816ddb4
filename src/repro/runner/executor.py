"""Parallel sweep executor with caching, crash retry, and timeouts.

:class:`ParallelRunner` fans a batch of :class:`~repro.runner.spec.RunSpec`
points across a pool of worker processes (each point builds its own
:class:`~repro.core.machine.Machine`, so points are fully independent)
and returns results in *input order* regardless of completion order —
the sweep output is deterministic for any ``--jobs`` value.

Failure model
-------------
* Driver exceptions and per-run timeouts are deterministic in this
  simulator, so they are **not** retried; they surface as
  :class:`RunFailure` (and :class:`RunnerError` from :meth:`run`).
* A worker-process *crash* (segfault, OOM kill, ``os._exit``) tears down
  the pool; the runner rebuilds it and resubmits every unfinished point,
  charging each one attempt, until ``retries`` extra attempts are spent.
* Per-run timeouts are enforced inside the worker with ``SIGALRM`` where
  available, backed by a parent-side *watchdog* on the pool's result
  wait: a task still running past ``timeout * 1.25 + 1`` seconds has its
  pool terminated and fails with a timeout (not retried — timeouts are
  deterministic here).  The watchdog is what enforces timeouts on
  platforms without ``SIGALRM`` (no POSIX signals, or spawn-started
  workers where the interpreter embedding masks signal delivery);
  before it existed such runs could hold a pool slot forever.

With ``jobs=1`` everything executes serially in the calling process —
no pool, no pickling — which is the determinism-test path and the
default for library callers.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from repro.runner.cache import ResultCache
from repro.runner.spec import RunRecord, RunSpec, execute_spec
from repro.runner.stats import PointRecord, ProgressHook, RunnerStats


class RunTimeoutError(Exception):
    """A single run exceeded the per-run timeout."""


class RunnerError(RuntimeError):
    """One or more sweep points failed; carries the failures."""

    def __init__(self, failures: list["RunFailure"]) -> None:
        preview = "; ".join(f"{f.spec.label()}: {f.error}"
                            for f in failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(f"{len(failures)} run(s) failed: {preview}{more}")
        self.failures = failures


@dataclass
class RunFailure:
    """Terminal failure of one spec after all attempts."""

    spec: RunSpec
    error: str
    attempts: int = 1


Outcome = Union[RunRecord, RunFailure]


def _execute_with_timeout(spec: RunSpec, timeout: Optional[float]) -> RunRecord:
    """Run one spec, bounding wall time with an interval timer.

    Without ``SIGALRM`` (or off the main thread) the run is unbounded
    here, and the pool watchdog is the only enforcement.
    """
    if not timeout:
        return execute_spec(spec)

    def _alarm(_signum, _frame):
        raise RunTimeoutError(f"run exceeded {timeout}s: {spec.label()}")

    try:
        previous = signal.signal(signal.SIGALRM, _alarm)
    except (ValueError, AttributeError):   # non-main thread / no SIGALRM
        return execute_spec(spec)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return execute_spec(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _pool_worker(item: tuple[int, RunSpec, Optional[float]]):
    """Top-level worker body; returns outcomes as values, never raises.

    Only an abrupt process death can make this task "fail" from the
    pool's point of view — which is exactly the signal the crash-retry
    logic keys on.
    """
    uid, spec, timeout = item
    try:
        return uid, "ok", _execute_with_timeout(spec, timeout)
    except RunTimeoutError as err:
        return uid, "timeout", str(err)
    except Exception as err:
        detail = traceback.format_exception_only(type(err), err)[-1].strip()
        return uid, "error", detail


class ParallelRunner:
    """Executes sweeps; one instance accumulates stats across calls.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs serially in-process;
        ``None`` or ``0`` uses every available core.
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely.
    timeout:
        Per-run wall-clock bound in seconds (enforced in the worker).
    retries:
        Extra attempts granted to points whose worker process crashed.
    progress:
        Optional hook called as each point resolves (completion order).
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[ResultCache] = None,
                 timeout: Optional[float] = None, retries: int = 2,
                 progress: Optional[ProgressHook] = None,
                 mp_context: Optional[str] = None) -> None:
        self.jobs = jobs or mp.cpu_count()
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self._mp_context = mp_context
        self.stats = RunnerStats()
        #: ``(label, snapshot)`` per resolved point whose driver ran with
        #: metrics enabled (cache hits included — snapshots ride inside
        #: the cached result), in resolution order; feeds --metrics-out
        self.metrics_points: list[tuple[str, dict]] = []

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> list[Any]:
        """Resolve every spec and return the driver results, in order.

        Raises :class:`RunnerError` if any point ultimately failed.
        """
        outcomes = self.run_outcomes(specs)
        failures = [o for o in outcomes if isinstance(o, RunFailure)]
        if failures:
            raise RunnerError(failures)
        return [o.result for o in outcomes]

    def run_outcomes(self, specs: Sequence[RunSpec]) -> list[Outcome]:
        """Like :meth:`run` but returns per-point outcomes, never raises."""
        t_start = time.perf_counter()
        specs = list(specs)
        outcomes: list[Optional[Outcome]] = [None] * len(specs)
        self._done = 0
        self._total = len(specs)

        # cache probe + within-batch dedupe (identical specs run once)
        index_groups: dict[str, list[int]] = {}
        order: list[str] = []
        for i, spec in enumerate(specs):
            if self.cache is not None:
                record = self.cache.load(spec)
                if record is not None:
                    outcomes[i] = record
                    self._note(spec, record=record, cached=True)
                    continue
            key = spec.canonical()
            if key not in index_groups:
                index_groups[key] = []
                order.append(key)
            index_groups[key].append(i)

        unique = [(key, specs[index_groups[key][0]]) for key in order]
        if unique:
            if self.jobs == 1:
                resolved = self._run_serial(unique)
            else:
                resolved = self._run_pool(unique)
            for key, (outcome, n_attempts) in resolved.items():
                if isinstance(outcome, RunRecord) and self.cache is not None:
                    self.cache.store(outcome)
                for j, i in enumerate(index_groups[key]):
                    outcomes[i] = outcome
                    if isinstance(outcome, RunFailure):
                        self._note(specs[i], failure=outcome)
                    else:
                        # duplicate indices share one execution
                        self._note(specs[i], record=outcome, cached=j > 0,
                                   attempts=n_attempts)

        self.stats.add_elapsed(time.perf_counter() - t_start)
        assert all(o is not None for o in outcomes)
        return outcomes          # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _note(self, spec: RunSpec, record: Optional[RunRecord] = None,
              cached: bool = False, failure: Optional[RunFailure] = None,
              attempts: int = 1) -> None:
        if failure is not None:
            point = PointRecord(label=spec.label(), cached=False,
                                wall_seconds=0.0, sim_events=0,
                                attempts=failure.attempts, failed=True)
        else:
            assert record is not None
            point = PointRecord(label=spec.label(), cached=cached,
                                wall_seconds=record.wall_seconds,
                                sim_events=record.sim_events,
                                attempts=attempts)
            snapshot = getattr(record.result, "metrics", None)
            if snapshot is not None:
                self.metrics_points.append((spec.label(), snapshot))
        self.stats.record(point)
        self._done += 1
        if self.progress is not None:
            self.progress(self._done, self._total, point)

    # ------------------------------------------------------------------
    def _run_serial(self, unique: list[tuple[str, RunSpec]],
                    ) -> dict[str, tuple[Outcome, int]]:
        resolved: dict[str, tuple[Outcome, int]] = {}
        for key, spec in unique:
            try:
                resolved[key] = (_execute_with_timeout(spec, self.timeout), 1)
            except Exception as err:
                detail = traceback.format_exception_only(
                    type(err), err)[-1].strip()
                resolved[key] = (RunFailure(spec=spec, error=detail), 1)
        return resolved

    def _run_pool(self, unique: list[tuple[str, RunSpec]],
                  ) -> dict[str, tuple[Outcome, int]]:
        method = self._mp_context or (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        ctx = mp.get_context(method)
        max_attempts = 1 + max(0, self.retries)
        attempts = {uid: 0 for uid in range(len(unique))}
        resolved: dict[int, Outcome] = {}

        while len(resolved) < len(unique):
            todo = [uid for uid in attempts
                    if uid not in resolved and attempts[uid] < max_attempts]
            for uid, n in attempts.items():
                if uid not in resolved and n >= max_attempts:
                    resolved[uid] = RunFailure(
                        spec=unique[uid][1], attempts=n,
                        error="worker process crashed repeatedly")
            if not todo:
                break
            for uid in todo:
                attempts[uid] += 1
            workers = min(self.jobs, len(todo))
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=ctx) as pool:
                futures = {}
                for uid in todo:
                    try:
                        fut = pool.submit(
                            _pool_worker, (uid, unique[uid][1], self.timeout))
                    except Exception:
                        # pool already broke; unsubmitted uids stay
                        # unresolved and go into the next rebuild round
                        break
                    futures[fut] = uid
                self._drain_pool(pool, futures, unique, attempts, resolved)

        out: dict[str, tuple[Outcome, int]] = {}
        for uid, (key, _spec) in enumerate(unique):
            outcome = resolved[uid]
            if isinstance(outcome, RunFailure):
                outcome.attempts = attempts[uid]
            out[key] = (outcome, attempts[uid])
        return out

    def _drain_pool(self, pool, futures: dict, unique, attempts: dict,
                    resolved: dict) -> None:
        """Collect pool results, enforcing the per-run timeout from the
        parent (the watchdog) as well.

        The in-worker ``SIGALRM`` timer normally fires first and returns
        a clean per-run timeout without disturbing the pool.  If it
        cannot (no ``SIGALRM`` on the platform, or a worker wedged in C
        code), any task observed *running* for longer than
        ``timeout * 1.25 + 1`` seconds is failed as a timeout here and
        the pool's processes are terminated; tasks that were merely
        queued behind it stay unresolved and are resubmitted by the
        rebuild loop.  Timeout failures are terminal — deterministic
        runs time out again — so they are never retried.
        """
        grace = None if not self.timeout else self.timeout * 1.25 + 1.0
        deadlines: dict = {}
        pending = set(futures)
        while pending:
            done, pending = wait(pending,
                                 timeout=None if grace is None else 0.05)
            for fut in done:
                try:
                    uid, status, payload = fut.result()
                except Exception:
                    # BrokenProcessPool: a worker died. Remaining
                    # futures fail the same way; rebuild and resubmit
                    # everything still unresolved.
                    continue
                if status == "ok":
                    resolved[uid] = payload
                else:
                    resolved[uid] = RunFailure(
                        spec=unique[uid][1], error=payload,
                        attempts=attempts[uid])
            if grace is None:
                continue
            now = time.monotonic()
            for fut in pending:
                if fut not in deadlines and fut.running():
                    deadlines[fut] = now + grace
            expired = [fut for fut in pending
                       if fut in deadlines and now >= deadlines[fut]]
            if expired:
                for fut in expired:
                    uid = futures[fut]
                    resolved[uid] = RunFailure(
                        spec=unique[uid][1],
                        error=(f"run exceeded {self.timeout}s "
                               "(pool watchdog): "
                               f"{unique[uid][1].label()}"),
                        attempts=attempts[uid])
                for proc in list(pool._processes.values()):
                    proc.terminate()
                return
