"""Executor semantics: ordering, parallel parity, crash retry, timeout."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.config.mechanism import Mechanism
from repro.runner import (
    ParallelRunner, ResultCache, RunFailure, RunnerError, RunSpec,
    register_kind,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="crash/custom-kind tests need the fork context")


# ---------------------------------------------------------------------------
# helper kinds (top-level so they survive pickling into workers)
# ---------------------------------------------------------------------------

def _echo(value):
    return value


def _boom(message):
    raise ValueError(message)


def _sleep(seconds):
    time.sleep(seconds)
    return "slept"


def _crash_until(path, attempts_before_success, value):
    """Dies abruptly (no exception) until the attempt counter reaches n."""
    with open(path, "a") as fh:
        fh.write("x")
    with open(path) as fh:
        seen = len(fh.read())
    if seen <= attempts_before_success:
        os._exit(17)         # simulated segfault: no teardown, no excepthook
    return value


@pytest.fixture(autouse=True)
def _kinds():
    register_kind("t-echo", _echo)
    register_kind("t-boom", _boom)
    register_kind("t-sleep", _sleep)
    register_kind("t-crash", _crash_until)
    yield
    from repro.runner import spec as spec_mod
    for kind in ("t-echo", "t-boom", "t-sleep", "t-crash"):
        spec_mod._KIND_REGISTRY.pop(kind, None)


# ---------------------------------------------------------------------------
# ordering & parity
# ---------------------------------------------------------------------------

def test_serial_results_in_input_order():
    runner = ParallelRunner(jobs=1)
    specs = [RunSpec.make("t-echo", value=i) for i in (3, 1, 4, 1, 5)]
    assert runner.run(specs) == [3, 1, 4, 1, 5]


@needs_fork
def test_parallel_results_in_input_order():
    runner = ParallelRunner(jobs=2)
    specs = [RunSpec.make("t-echo", value=i) for i in range(10)]
    assert runner.run(specs) == list(range(10))


@needs_fork
@pytest.mark.slow
def test_parallel_simulation_matches_serial_exactly():
    """The acceptance bar: any --jobs value gives identical measurements."""
    specs = [RunSpec.barrier(n_processors=p, mechanism=m, episodes=1)
             for p in (4, 8) for m in Mechanism]
    serial = ParallelRunner(jobs=1).run(specs)
    parallel = ParallelRunner(jobs=2).run(specs)
    for s, q in zip(serial, parallel):
        assert s.total_cycles == q.total_cycles
        assert s.traffic.total_bytes == q.traffic.total_bytes
        assert s.traffic.total_messages == q.traffic.total_messages


def test_within_batch_duplicates_execute_once():
    runner = ParallelRunner(jobs=1)
    spec = RunSpec.barrier(n_processors=4, mechanism=Mechanism.AMO,
                           episodes=1)
    a, b = runner.run([spec, spec])
    assert a.total_cycles == b.total_cycles
    assert runner.stats.executed == 1
    assert runner.stats.cache_hits == 1     # the duplicate shared the run


# ---------------------------------------------------------------------------
# failure handling
# ---------------------------------------------------------------------------

def test_driver_exception_surfaces_as_runner_error():
    runner = ParallelRunner(jobs=1)
    with pytest.raises(RunnerError, match="kaput"):
        runner.run([RunSpec.make("t-boom", message="kaput")])


def test_run_outcomes_isolates_failures_from_successes():
    runner = ParallelRunner(jobs=1)
    outcomes = runner.run_outcomes([
        RunSpec.make("t-echo", value=1),
        RunSpec.make("t-boom", message="dead"),
        RunSpec.make("t-echo", value=2),
    ])
    assert outcomes[0].result == 1
    assert isinstance(outcomes[1], RunFailure)
    assert "dead" in outcomes[1].error
    assert outcomes[2].result == 2
    assert runner.stats.failures == 1
    assert runner.stats.executed == 2


@needs_fork
def test_worker_crash_is_retried_until_success(tmp_path):
    counter = tmp_path / "attempts"
    runner = ParallelRunner(jobs=2, retries=2)
    specs = [RunSpec.make("t-crash", path=str(counter),
                          attempts_before_success=1, value=99),
             RunSpec.make("t-echo", value=7)]
    assert runner.run(specs) == [99, 7]
    assert runner.stats.retries >= 1


@needs_fork
def test_worker_crash_exhausts_retries_into_failure(tmp_path):
    counter = tmp_path / "attempts"
    runner = ParallelRunner(jobs=2, retries=1)
    outcomes = runner.run_outcomes(
        [RunSpec.make("t-crash", path=str(counter),
                      attempts_before_success=99, value=0)])
    assert isinstance(outcomes[0], RunFailure)
    assert "crashed" in outcomes[0].error
    assert outcomes[0].attempts == 2        # first try + one retry


@needs_fork
def test_per_run_timeout_enforced_in_worker():
    runner = ParallelRunner(jobs=2, timeout=0.3)
    outcomes = runner.run_outcomes([RunSpec.make("t-sleep", seconds=30),
                                    RunSpec.make("t-echo", value=5)])
    assert isinstance(outcomes[0], RunFailure)
    assert "exceeded" in outcomes[0].error
    assert outcomes[1].result == 5


def test_per_run_timeout_enforced_serially():
    runner = ParallelRunner(jobs=1, timeout=0.3)
    outcomes = runner.run_outcomes([RunSpec.make("t-sleep", seconds=30)])
    assert isinstance(outcomes[0], RunFailure)
    assert "exceeded" in outcomes[0].error


@needs_fork
def test_pool_watchdog_enforces_timeout_without_sigalrm(monkeypatch):
    """On platforms where SIGALRM doesn't fire inside pool workers the
    parent-side watchdog must still kill a runaway run.  Removing
    ``signal.SIGALRM`` (fork-started workers inherit the removal) forces
    that path so the watchdog is exercised on every host."""
    monkeypatch.delattr(signal, "SIGALRM")
    runner = ParallelRunner(jobs=2, timeout=0.3, retries=0)
    start = time.monotonic()
    outcomes = runner.run_outcomes([RunSpec.make("t-sleep", seconds=30)])
    elapsed = time.monotonic() - start
    assert isinstance(outcomes[0], RunFailure)
    assert "watchdog" in outcomes[0].error
    assert outcomes[0].attempts == 1        # timeouts are terminal
    assert elapsed < 10                     # killed, not waited out


@needs_fork
def test_pool_watchdog_leaves_fast_runs_alone(monkeypatch):
    monkeypatch.delattr(signal, "SIGALRM")
    runner = ParallelRunner(jobs=2, timeout=5.0)
    assert runner.run([RunSpec.make("t-echo", value=11)]) == [11]


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

def test_progress_hook_sees_every_point_with_totals():
    seen = []
    runner = ParallelRunner(
        jobs=1, progress=lambda done, total, pt: seen.append((done, total,
                                                              pt.cached)))
    specs = [RunSpec.make("t-echo", value=i) for i in range(3)]
    runner.run(specs)
    assert [s[0] for s in seen] == [1, 2, 3]
    assert all(s[1] == 3 for s in seen)


def test_stats_track_cache_and_execution_split(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f")
    spec = RunSpec.barrier(n_processors=4, mechanism=Mechanism.AMO,
                           episodes=1)
    runner = ParallelRunner(jobs=1, cache=cache)
    runner.run([spec])
    runner.run([spec])
    assert runner.stats.total_points == 2
    assert runner.stats.executed == 1
    assert runner.stats.cache_hits == 1
    assert runner.stats.sim_events > 0
    assert runner.stats.events_per_second > 0
    summary = runner.stats.summary()
    assert "1 cache hits" in summary and "1 executed" in summary


def test_jobs_zero_means_all_cores():
    assert ParallelRunner(jobs=0).jobs == multiprocessing.cpu_count()
    assert ParallelRunner(jobs=None).jobs == multiprocessing.cpu_count()
