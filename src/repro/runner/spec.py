"""Run specifications — the unit of work the parallel runner schedules.

A :class:`RunSpec` is an immutable, picklable, *canonically serializable*
description of one simulator run: a registered ``kind`` (which names a
driver function such as :func:`repro.workloads.barrier.run_barrier_workload`)
plus its keyword arguments.  Canonical serialization is what makes the
content-addressed result cache sound: two specs with the same semantics
always produce the same JSON, regardless of keyword order or enum
identity.

New run kinds (e.g. application kernels) register a driver with
:func:`register_kind`; the executor workers resolve kinds through the
same registry, so a kind registered before the pool is forked is
runnable in every worker.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.config.mechanism import Mechanism

#: kind name -> driver callable taking the spec's kwargs
_KIND_REGISTRY: dict[str, Callable[..., Any]] = {}
#: kinds whose driver accepts ``pool`` (a machine pool)
_POOLED_KINDS: set[str] = set()


def register_kind(name: str, fn: Callable[..., Any],
                  warmable: bool = False) -> None:
    """Register (or replace) the driver function for a run kind.

    ``warmable`` marks drivers that accept a ``pool`` keyword and run
    their warm-up on the machine it supplies: :func:`execute_spec` then
    hands them the process-wide
    :class:`~repro.core.snapshot.MachinePool`, so a sweep revisiting a
    machine shape rewinds a pooled machine instead of rebuilding it.
    A pooled run is fingerprint-identical to a fresh one (pinned by the
    determinism-parity suite), so cached results are unaffected.
    """
    _KIND_REGISTRY[name] = fn
    if warmable:
        _POOLED_KINDS.add(name)
    else:
        _POOLED_KINDS.discard(name)


#: lazily-built machine pool, one per process (each executor worker)
_POOL: Any = None


def _process_pool():
    global _POOL
    if _POOL is None:
        from repro.core.snapshot import MachinePool
        _POOL = MachinePool()
    return _POOL


def registered_kinds() -> tuple[str, ...]:
    return tuple(sorted(_KIND_REGISTRY))


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation point: ``kind`` + frozen kwargs."""

    kind: str
    #: sorted ``(name, value)`` pairs — hashable and order-independent
    params: tuple[tuple[str, Any], ...]
    #: event-kernel backend (:mod:`repro.sim.backends`).  This is an
    #: execution detail, not semantics — every backend is parity-gated to
    #: byte-identical results — so it too stays out of equality and the
    #: cache key: a cached ``reference`` result answers an ``accel`` spec
    #: and vice versa.  ``None`` defers to $REPRO_KERNEL_BACKEND.
    backend: Optional[str] = field(default=None, compare=False)

    @classmethod
    def make(cls, kind: str, **params: Any) -> "RunSpec":
        return cls(kind=kind, params=tuple(sorted(params.items())))

    @classmethod
    def barrier(cls, n_processors: int, mechanism: Mechanism,
                episodes: int = 4, warmup_episodes: int = 1,
                tree_branching: Optional[int] = None, naive: bool = False,
                home_node: int = 0, metrics: bool = False,
                metrics_interval: int = 0,
                backend: Optional[str] = None) -> "RunSpec":
        """A :func:`~repro.workloads.barrier.run_barrier_workload` point.

        Metrics parameters enter the spec (and hence the cache key) only
        when enabled, so metered and unmetered sweeps cache separately
        and pre-existing cache entries keep their keys.
        """
        params = dict(n_processors=n_processors, mechanism=mechanism,
                      episodes=episodes, warmup_episodes=warmup_episodes,
                      tree_branching=tree_branching, naive=naive,
                      home_node=home_node)
        if metrics:
            params["metrics"] = True
            if metrics_interval:
                params["metrics_interval"] = metrics_interval
        spec = cls.make("barrier", **params)
        if backend is not None:
            spec = replace(spec, backend=backend)
        return spec

    @classmethod
    def lock(cls, n_processors: int, mechanism: Mechanism,
             lock_type: str = "ticket", acquisitions_per_cpu: int = 4,
             warmup_per_cpu: int = 1, home_node: int = 0,
             metrics: bool = False,
             metrics_interval: int = 0,
             backend: Optional[str] = None) -> "RunSpec":
        """A :func:`~repro.workloads.locks.run_lock_workload` point."""
        params = dict(n_processors=n_processors, mechanism=mechanism,
                      lock_type=lock_type,
                      acquisitions_per_cpu=acquisitions_per_cpu,
                      warmup_per_cpu=warmup_per_cpu, home_node=home_node)
        if metrics:
            params["metrics"] = True
            if metrics_interval:
                params["metrics_interval"] = metrics_interval
        spec = cls.make("lock", **params)
        if backend is not None:
            spec = replace(spec, backend=backend)
        return spec

    @classmethod
    def qlock(cls, n_processors: int, mechanism: Mechanism,
              lock_type: str = "mcs", acquisitions_per_cpu: int = 4,
              warmup_per_cpu: int = 1, batch_threshold: Optional[int] = None,
              home_node: int = 0, metrics: bool = False,
              metrics_interval: int = 0,
              backend: Optional[str] = None) -> "RunSpec":
        """A :func:`~repro.workloads.qlocks.run_qlock_workload` point.

        ``batch_threshold`` (CNA only) enters the spec — and hence the
        cache key — only when explicitly set, so MCS/rw sweeps keep
        threshold-free canonical keys.
        """
        params = dict(n_processors=n_processors, mechanism=mechanism,
                      lock_type=lock_type,
                      acquisitions_per_cpu=acquisitions_per_cpu,
                      warmup_per_cpu=warmup_per_cpu, home_node=home_node)
        if batch_threshold is not None:
            params["batch_threshold"] = batch_threshold
        if metrics:
            params["metrics"] = True
            if metrics_interval:
                params["metrics_interval"] = metrics_interval
        spec = cls.make("qlock", **params)
        if backend is not None:
            spec = replace(spec, backend=backend)
        return spec

    @classmethod
    def fuzz(cls, n_processors: int, mechanism: Mechanism, workload: str,
             seed: int, max_extra: int, kinds: Optional[tuple] = None,
             reorder_window: int = 0,
             reorder_kinds: Optional[tuple] = None,
             episodes: int = 2, ops_per_cpu: int = 3,
             inject_bug: Optional[str] = None,
             backend: Optional[str] = None) -> "RunSpec":
        """A :func:`~repro.check.fuzz.run_fuzz_schedule` point.

        The kind filter enters the spec only when restricted, the
        relaxed-ordering universe only when ``reorder_window > 0``, and
        the bug injection only when armed, so the common all-kinds
        strict-FIFO clean sweep keeps short canonical keys.
        """
        params = dict(n_processors=n_processors, mechanism=mechanism,
                      workload=workload, seed=seed, max_extra=max_extra,
                      episodes=episodes, ops_per_cpu=ops_per_cpu)
        if kinds is not None:
            params["kinds"] = tuple(sorted(kinds))
        if reorder_window:
            params["reorder_window"] = reorder_window
            if reorder_kinds is not None:
                params["reorder_kinds"] = tuple(sorted(reorder_kinds))
        if inject_bug is not None:
            params["inject_bug"] = inject_bug
        spec = cls.make("fuzz", **params)
        if backend is not None:
            spec = replace(spec, backend=backend)
        return spec

    # ------------------------------------------------------------------
    @property
    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)

    def canonical(self) -> str:
        """Stable JSON rendering — the cache-key input."""
        return json.dumps({"kind": self.kind, "params": self.kwargs},
                          sort_keys=True, default=_encode_value,
                          separators=(",", ":"))

    def label(self) -> str:
        """Short human label for progress lines."""
        kw = self.kwargs
        bits = [self.kind]
        if "n_processors" in kw:
            bits.append(f"P={kw['n_processors']}")
        mech = kw.get("mechanism")
        if isinstance(mech, Mechanism):
            bits.append(mech.value)
        if kw.get("lock_type"):
            bits.append(kw["lock_type"])
        if kw.get("tree_branching"):
            bits.append(f"b={kw['tree_branching']}")
        if kw.get("workload"):
            bits.append(kw["workload"])
        if "seed" in kw:
            bits.append(f"seed={kw['seed']}")
        return " ".join(bits)


def _encode_value(value: Any) -> Any:
    if isinstance(value, Mechanism):
        return {"__mechanism__": value.name}
    raise TypeError(
        f"RunSpec parameter {value!r} ({type(value).__name__}) is not "
        "canonically serializable; use int/float/str/bool/None/Mechanism")


@dataclass
class RunRecord:
    """What executing one spec produced, plus execution metadata."""

    spec: RunSpec
    result: Any
    #: simulator events the run dispatched (0 if the driver reports none)
    sim_events: int = 0
    #: wall-clock seconds the driver took, in whichever process ran it
    wall_seconds: float = 0.0
    schema: int = field(default=1)


def execute_spec(spec: RunSpec) -> RunRecord:
    """Execute ``spec`` in this process and wrap the outcome."""
    try:
        fn = _KIND_REGISTRY[spec.kind]
    except KeyError:
        raise KeyError(
            f"unknown run kind {spec.kind!r}; registered: "
            f"{registered_kinds()}") from None
    kwargs = spec.kwargs
    if spec.backend is not None:
        # execution detail: threaded to the driver but never into the
        # cache key
        kwargs["backend"] = spec.backend
    t0 = time.perf_counter()
    if spec.kind in _POOLED_KINDS:
        kwargs["pool"] = _process_pool()
    result = fn(**kwargs)
    wall = time.perf_counter() - t0
    if isinstance(result, dict):
        sim_events = result.get("events_dispatched", 0)
    else:
        sim_events = getattr(result, "events_dispatched", 0)
    return RunRecord(spec=spec, result=result,
                     sim_events=sim_events,
                     wall_seconds=wall)


def _register_builtin_kinds() -> None:
    from repro.check.fuzz import run_fuzz_schedule
    from repro.workloads.barrier import run_barrier_workload
    from repro.workloads.locks import run_lock_workload
    from repro.workloads.qlocks import run_qlock_workload
    register_kind("barrier", run_barrier_workload, warmable=True)
    register_kind("lock", run_lock_workload, warmable=True)
    register_kind("qlock", run_qlock_workload, warmable=True)
    register_kind("fuzz", run_fuzz_schedule)


_register_builtin_kinds()
