"""Tests for conventional memory-side atomic operations."""

from repro.network.message import MessageKind


def run(machine, thread, cpus=None):
    return machine.run_threads(thread, cpus=cpus, max_events=2_000_000)


def test_mao_fetchadd_atomic(machine8):
    var = machine8.alloc("ctr", home_node=0)

    def thread(proc):
        old = yield from proc.mao_rmw(var.addr, "fetchadd", 1)
        return old

    olds = run(machine8, thread)
    assert sorted(olds) == list(range(8))
    assert machine8.peek(var.addr) == 8


def test_mao_never_pushes_updates(machine4):
    var = machine4.alloc("v", home_node=0)

    def loader(proc):
        yield from proc.load(var.addr)        # become a sharer

    run(machine4, loader, cpus=[2])

    def mao_writer(proc):
        yield from proc.mao_rmw(var.addr, "fetchadd", 9)

    run(machine4, mao_writer, cpus=[0])
    # non-coherent: the sharer's cached copy is now stale and NO update
    # or invalidation was sent — software's problem (paper §2)
    assert machine4.net.stats.messages[MessageKind.WORD_UPDATE] == 0
    assert machine4.cpus[2].controller.peek(var.addr) == 0


def test_mao_value_lives_in_amu_cache(machine4):
    var = machine4.alloc("v", home_node=0)

    def thread(proc):
        yield from proc.mao_rmw(var.addr, "fetchadd", 5)
        value = yield from proc.uncached_read(var.addr)
        return value

    # uncached read consults the AMU cache => sees 5 immediately
    assert run(machine4, thread, cpus=[2]) == [5]
    assert machine4.hubs[0].amu.peek(var.addr) == 5


def test_mao_uses_shared_function_unit(machine4):
    var = machine4.alloc("v", home_node=0)

    def thread(proc):
        yield from proc.mao_rmw(var.addr, "fetchadd", 1)

    run(machine4, thread)
    assert machine4.hubs[0].amu.ops_executed == 4
