"""Parallel sweep runner: executor, run specs, and the result cache.

Typical use (this is what the CLI and the benchmark drivers do)::

    from repro.runner import ParallelRunner, ResultCache, RunSpec

    runner = ParallelRunner(jobs=4, cache=ResultCache(root=".cache"))
    specs = [RunSpec.barrier(n_processors=p, mechanism=m, episodes=3)
             for p in (4, 8, 16) for m in Mechanism]
    results = runner.run(specs)        # input order, cache-aware
    print(runner.stats.summary())

See ``docs/runner.md`` for the execution model, cache-key scheme, and
determinism guarantees.
"""

from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.executor import (
    ParallelRunner, RunFailure, RunnerError, RunTimeoutError,
)
from repro.runner.fingerprint import code_fingerprint
from repro.runner.spec import (
    RunRecord, RunSpec, execute_spec, register_kind, registered_kinds,
)
from repro.runner.stats import (
    PointRecord, ProgressHook, RunnerStats, stderr_progress,
)

__all__ = [
    "ParallelRunner",
    "PointRecord",
    "ProgressHook",
    "ResultCache",
    "RunFailure",
    "RunRecord",
    "RunSpec",
    "RunnerError",
    "RunnerStats",
    "RunTimeoutError",
    "code_fingerprint",
    "default_cache_dir",
    "execute_spec",
    "register_kind",
    "registered_kinds",
    "stderr_progress",
]
