"""Unit costs of single layers, measured on one backend.

Each cell isolates one layer with a deterministic micro-workload and
reports host time per operation (median of several repeats):

``sim.ring_ns_per_event``      same-cycle callbacks through the dispatch ring
``sim.heap_ns_per_event``      future-cycle callbacks through the event heap
``sim.resume_ns``              one process resume (``yield Timeout(1)``)
``network.send_ns``            ``Network.send`` + delivery to a no-op handler
``coherence.get_s_us``         one clean GET_S miss (load of a remote line)
``coherence.inval_ns_per_sharer``  GET_X invalidating N sharers, per sharer
``amu.word_update_ns_per_sharer``  AMO test-match push to N sharers, per sharer
``core.build_ms_1024``         ``Machine`` construction at 1024 CPUs
``core.restore_ms_1024``       ``Machine.restore`` of a 1024-CPU machine
``runner.uncached_point_us``   ``ParallelRunner.run`` time per point beyond
                               the driver's own time (cache miss + store)

The coherence and AMU cells also report how many kernel events and
messages one operation costs, so the closing check can charge the rest
of a workload's events and messages at the kernel and network rates
without counting them twice.
"""

from __future__ import annotations

import statistics
import tempfile
import time

_now = time.perf_counter

REPEATS = 3
SCALE = 1024


def _median_time(fn, repeats: int = REPEATS) -> float:
    return statistics.median(fn() for _ in range(repeats))


def _noop(*_args) -> None:
    pass


def kernel_cells(backend: str) -> dict:
    from repro.sim.backends import create_simulator
    from repro.sim.primitives import Timeout

    n = 100_000

    def dispatch(delay) -> float:
        sim = create_simulator(backend)
        for i in range(n):
            sim.schedule(delay(i), _noop)
        t0 = _now()
        sim.run()
        return (_now() - t0) / n

    def resume() -> float:
        sim = create_simulator(backend)
        tick = Timeout(1)

        def worker():
            for _ in range(1000):
                yield tick

        for _ in range(100):
            sim.spawn(worker())
        t0 = _now()
        sim.run()
        return (_now() - t0) / 100_000

    return {
        "sim.ring_ns_per_event": _median_time(
            lambda: dispatch(lambda i: 0)) * 1e9,
        "sim.heap_ns_per_event": _median_time(
            lambda: dispatch(lambda i: 1 + i % 997)) * 1e9,
        "sim.resume_ns": _median_time(resume) * 1e9,
    }


def network_cells(backend: str) -> dict:
    from repro.config.parameters import SystemConfig
    from repro.network.message import Message, MessageKind
    from repro.sim.backends import create_simulator
    from repro.sim.backends.model import model_classes

    cfg = SystemConfig.table1(SCALE)
    net_cls, _hub_cls = model_classes(backend)
    n = 50_000
    pairs = [(i % 64, (i * 7 + 3) % cfg.n_nodes) for i in range(256)]

    def send() -> float:
        sim = create_simulator(backend)
        net = net_cls(sim, cfg.n_nodes, cfg.network)
        for node in range(cfg.n_nodes):
            net.attach(node, _noop)
        for src, dst in pairs:            # warm the route cache
            net.send(Message(MessageKind.GET_S, src, dst, addr=0))
        sim.run()
        msgs = [Message(MessageKind.GET_S, *pairs[i % len(pairs)], addr=0)
                for i in range(n)]
        t0 = _now()
        for msg in msgs:
            net.send(msg)
        sim.run()
        return (_now() - t0) / n

    return {"network.send_ns": _median_time(send) * 1e9}


def machine_cells(backend: str) -> dict:
    """Coherence, AMU and core cells on one 1024-CPU machine."""
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine

    cfg = SystemConfig.table1(SCALE).replace(kernel_backend=backend)
    builds = []
    for _ in range(3):
        t0 = _now()
        machine = Machine(cfg)
        builds.append(_now() - t0)
    machine.sim.run()                     # park the AMU dispatchers
    pristine = machine.snapshot()
    restores = []

    def restore() -> None:
        t0 = _now()
        machine.restore(pristine)
        restores.append(_now() - t0)

    def phase(thread, cpus=None) -> tuple[float, int, dict]:
        stats = machine.net.stats
        before = (machine.sim.events_dispatched, stats.messages.copy(),
                  stats.local_messages.copy())
        t0 = _now()
        machine.run_threads(thread, cpus=cpus)
        elapsed = _now() - t0
        msgs = (stats.messages - before[1]) + (stats.local_messages
                                               - before[2])
        return (elapsed, machine.sim.events_dispatched - before[0],
                {k.value: v for k, v in msgs.items()})

    def per_op(result, kind: str) -> tuple[float, float, float]:
        elapsed, events, msgs = result
        ops = msgs.get(kind, 0)
        assert ops > 0, f"micro-workload sent no {kind}"
        return elapsed / ops, events / ops, sum(msgs.values()) / ops

    def get_s():
        restore()
        lines = [machine.alloc(f"g{cpu}", home_node=(
            machine.node_of_cpu(cpu) + 1) % cfg.n_nodes).addr
            for cpu in range(SCALE)]

        def thread(proc):
            yield from proc.load(lines[proc.cpu_id])
        return per_op(phase(thread), "get_s")

    def inval():
        restore()
        x = machine.alloc("x", home_node=0).addr

        def reader(proc):
            yield from proc.load(x)

        def writer(proc):
            yield from proc.store(x, 1)
        phase(reader)
        return per_op(phase(writer, cpus=[0]), "invalidate")

    def word_update():
        restore()
        v = machine.alloc("v", home_node=0).addr

        def arm(proc):
            yield from proc.amo_inc(v)

        def reader(proc):
            yield from proc.load(v)

        def pusher(proc):
            yield from proc.amo_inc(v, test=2)
        phase(arm, cpus=[0])
        phase(reader)
        return per_op(phase(pusher, cpus=[0]), "word_update")

    cells = {}
    for kind, fn in (("get_s", get_s), ("invalidate", inval),
                     ("word_update", word_update)):
        samples = [fn() for _ in range(REPEATS)]
        cells[kind] = tuple(statistics.median(s[i] for s in samples)
                            for i in range(3))
    restore()
    return {
        "coherence.get_s_us": cells["get_s"][0] * 1e6,
        "coherence.inval_ns_per_sharer": cells["invalidate"][0] * 1e9,
        "amu.word_update_ns_per_sharer": cells["word_update"][0] * 1e9,
        "core.build_ms_1024": statistics.median(builds) * 1e3,
        "core.restore_ms_1024": statistics.median(restores) * 1e3,
        # (events, messages) one operation costs, for the closing check
        "footprint": {kind: cells[kind][1:] for kind in cells},
    }


def runner_cells(backend: str, scratch: str) -> dict:
    from repro.config.mechanism import Mechanism
    from repro.runner import ParallelRunner, RunSpec
    from repro.runner.cache import ResultCache

    specs = [RunSpec.barrier(4, mech, episodes=e, backend=backend)
             for mech in Mechanism for e in range(1, 9)]
    driver = []
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        runner = ParallelRunner(
            jobs=1, cache=ResultCache(tmp),
            progress=lambda _d, _t, point: driver.append(point.wall_seconds))
        t0 = _now()
        runner.run(specs)
        uncached = _now() - t0 - sum(driver)
    return {"runner.uncached_point_us": uncached / len(specs) * 1e6}


def measure(backend: str, scratch: str) -> dict:
    cells = {}
    for fn in (kernel_cells, network_cells, machine_cells):
        cells.update(fn(backend))
    cells.update(runner_cells(backend, scratch))
    return cells
