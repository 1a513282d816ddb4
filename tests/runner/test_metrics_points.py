"""Runner integration with the metrics layer.

Covers: cache-key stability when metrics are off, metrics-point
collection across executed and cached points, and the registry-backed
``RunnerStats``.
"""

from repro.config.mechanism import Mechanism
from repro.obs import validate_export, build_export
from repro.runner import ParallelRunner, ResultCache
from repro.runner.spec import RunSpec
from repro.runner import PointRecord, RunnerStats


def barrier_spec(metrics=False, interval=0):
    return RunSpec.barrier(4, Mechanism.LLSC, episodes=1,
                           warmup_episodes=0, metrics=metrics,
                           metrics_interval=interval)


# ----------------------------------------------------------------- specs
def test_metrics_off_leaves_cache_key_unchanged():
    """Pre-existing cache entries must keep their keys."""
    spec = barrier_spec(metrics=False)
    assert "metrics" not in spec.kwargs
    assert "metrics" not in spec.canonical()


def test_metrics_on_is_a_distinct_cache_key():
    assert barrier_spec(True).canonical() != barrier_spec().canonical()
    assert barrier_spec(True, 500).canonical() != \
        barrier_spec(True).canonical()


# ---------------------------------------------------------------- runner
def test_runner_collects_metrics_points():
    runner = ParallelRunner(jobs=1)
    results = runner.run([barrier_spec(metrics=True)])
    assert results[0].metrics is not None
    assert len(runner.metrics_points) == 1
    label, snapshot = runner.metrics_points[0]
    assert label == barrier_spec(metrics=True).label()
    assert snapshot == results[0].metrics


def test_unmetered_runs_collect_nothing():
    runner = ParallelRunner(jobs=1)
    runner.run([barrier_spec()])
    assert runner.metrics_points == []


def test_cache_hits_still_surface_snapshots(tmp_path):
    """Snapshots ride inside cached results, so a fully-cached sweep
    still produces a complete metrics export."""
    cache = ResultCache(root=str(tmp_path))
    spec = barrier_spec(metrics=True)
    first = ParallelRunner(jobs=1, cache=cache)
    first.run([spec])
    second = ParallelRunner(jobs=1, cache=cache)
    second.run([spec])
    assert second.stats.cache_hits == 1
    assert len(second.metrics_points) == 1
    assert second.metrics_points[0][1] == first.metrics_points[0][1]


def test_export_from_runner_points_validates():
    runner = ParallelRunner(jobs=1)
    runner.run([barrier_spec(metrics=True),
                RunSpec.barrier(8, Mechanism.AMO, episodes=1,
                                warmup_episodes=0, metrics=True)])
    doc = build_export(runner.metrics_points,
                       runner=runner.stats.snapshot()["counters"])
    assert validate_export(doc) == []
    assert len(doc["points"]) == 2


# ----------------------------------------------------------------- stats
def test_runner_stats_properties_back_registry_counters():
    stats = RunnerStats()
    stats.record(PointRecord(label="a", cached=False, wall_seconds=0.25,
                             sim_events=1000))
    stats.record(PointRecord(label="b", cached=True, wall_seconds=0.0,
                             sim_events=0))
    stats.record(PointRecord(label="c", cached=False, wall_seconds=0.1,
                             sim_events=500, attempts=2))
    stats.record(PointRecord(label="d", cached=False, wall_seconds=0.0,
                             sim_events=0, failed=True))
    assert stats.total_points == 4
    assert stats.cache_hits == 1
    assert stats.executed == 2
    assert stats.failures == 1
    assert stats.retries == 1
    assert stats.sim_events == 1500
    assert stats.wall_seconds == 0.35
    snap = stats.snapshot()
    assert snap["counters"]["runner.points_total"] == 4
    assert snap["counters"]["runner.cache_hits"] == 1
    assert snap["histograms"]["runner.point_wall_ms"]["count"] == 2


def test_runner_stats_add_elapsed():
    stats = RunnerStats()
    stats.add_elapsed(1.5)
    stats.add_elapsed(0.5)
    assert stats.elapsed_seconds == 2.0
