"""Tests for machine assembly and run helpers."""

import pytest

from repro.config.parameters import SystemConfig
from repro.core.machine import Machine
from repro.sim.kernel import SimulationError


def test_machine_structure(machine8):
    assert machine8.n_processors == 8
    assert len(machine8.hubs) == 4
    assert [p.cpu_id for p in machine8.cpus] == list(range(8))
    for cpu_id in range(8):
        assert machine8.node_of_cpu(cpu_id) == cpu_id // 2
        proc = machine8.cpus[cpu_id]
        assert proc.node == cpu_id // 2
        assert proc.controller is machine8.hubs[proc.node].controllers[cpu_id]


def test_alloc_places_variables(machine8):
    v = machine8.alloc("x", home_node=3)
    assert v.home_node == 3
    from repro.mem.address import home_of
    assert home_of(v.addr) == 3


def test_poke_peek_round_trip(machine4):
    v = machine4.alloc("x", home_node=1)
    machine4.poke(v.addr, 777)
    assert machine4.peek(v.addr) == 777


def test_peek_sees_dirty_cache_copy(machine4):
    v = machine4.alloc("x", home_node=0)

    def thread(proc):
        yield from proc.store(v.addr, 9)

    machine4.run_threads(thread, cpus=[2])
    # backing is stale, peek must still see 9 via the dirty line
    assert machine4.backing.read_word(v.addr) == 0
    assert machine4.peek(v.addr) == 9


def test_peek_sees_amu_cache_copy(machine4):
    v = machine4.alloc("x", home_node=0)

    def thread(proc):
        yield from proc.amo_fetchadd(v.addr, 3)

    machine4.run_threads(thread, cpus=[1])
    assert machine4.peek(v.addr) == 3


def test_run_threads_returns_in_cpu_order(machine4):
    def thread(proc):
        yield from proc.delay(100 - proc.cpu_id * 10)
        return proc.cpu_id

    assert machine4.run_threads(thread) == [0, 1, 2, 3]


def test_run_threads_detects_deadlock(machine4):
    v = machine4.alloc("flag", home_node=0)

    def thread(proc):
        # spin on a value nobody ever writes
        yield from proc.spin_until(v.addr, lambda val: val == 42)

    with pytest.raises(SimulationError, match="deadlock"):
        machine4.run_threads(thread, cpus=[0])


def test_sequential_run_threads_share_state(machine4):
    v = machine4.alloc("ctr", home_node=0)

    def bump(proc):
        yield from proc.atomic_rmw(v.addr, lambda x: x + 1)

    machine4.run_threads(bump)
    t1 = machine4.last_completion_time
    machine4.run_threads(bump)
    assert machine4.peek(v.addr) == 8
    assert machine4.last_completion_time > t1


def test_coherence_invariant_checker_catches_corruption(machine4):
    v = machine4.alloc("x", home_node=0)

    def thread(proc):
        yield from proc.store(v.addr, 1)

    machine4.run_threads(thread, cpus=[3])
    machine4.check_coherence_invariants()      # sane
    # corrupt: drop the owner's line behind the directory's back
    machine4.cpus[3].controller.l2.invalidate(v.addr)
    with pytest.raises(AssertionError):
        machine4.check_coherence_invariants()


def _line_of(machine, addr):
    """(directory entry, {cpu: L2 line}) for the line holding ``addr``."""
    from repro.mem.address import home_of, line_base
    ent = machine.hubs[home_of(addr)].home_engine.directory.entry(
        line_base(addr))
    copies = {p.cpu_id: ln for p in machine.cpus
              if (ln := p.controller.l2.probe(addr)) is not None}
    return ent, copies


def test_invariant_checker_catches_exclusive_copy_under_shared_entry(
        machine4):
    from repro.cache.state import LineState
    from repro.coherence.directory import DirState
    v = machine4.alloc("x", home_node=0)

    def thread(proc):
        yield from proc.load(v.addr)

    machine4.run_threads(thread, cpus=[1, 2])
    machine4.check_coherence_invariants()
    ent, copies = _line_of(machine4, v.addr)
    assert ent.state is DirState.SHARED and sorted(copies) == [1, 2]
    copies[2].state = LineState.EXCLUSIVE
    with pytest.raises(AssertionError,
                       match=r"unexpected exclusive copies \[2\]"):
        machine4.check_coherence_invariants()


def test_invariant_checker_catches_owner_mismatch(machine4):
    from repro.cache.state import LineState
    v = machine4.alloc("x", home_node=0)

    def thread(proc):
        yield from proc.store(v.addr, 1)

    machine4.run_threads(thread, cpus=[1])
    machine4.check_coherence_invariants()
    ent, copies = _line_of(machine4, v.addr)
    assert ent.owner == 1 and copies[1].state is LineState.EXCLUSIVE
    ent.owner = 3
    with pytest.raises(AssertionError, match=r"cache owners \[1\]"):
        machine4.check_coherence_invariants()


def test_invariant_checker_catches_two_exclusive_holders(machine4):
    from repro.cache.state import LineState
    v = machine4.alloc("x", home_node=0)

    def thread(proc):
        yield from proc.store(v.addr, 1)

    machine4.run_threads(thread, cpus=[2])
    machine4.check_coherence_invariants()
    machine4.cpus[0].controller.l2.install(v.addr, LineState.EXCLUSIVE,
                                           {v.addr: 1})
    with pytest.raises(AssertionError, match=r"cache owners \[0, 2\]"):
        machine4.check_coherence_invariants()


def test_default_config_is_table1_smallest():
    m = Machine()
    assert m.n_processors == 4
    assert m.config.n_nodes == 2


def test_describe_summarizes_configuration(machine8):
    text = machine8.describe()
    assert "8 CPUs on 4 nodes" in text
    assert "radix-8" in text
    assert "8-word cache" in text


@pytest.mark.parametrize("backend", ["reference", "accel"])
@pytest.mark.parametrize("kind", ["INVALIDATE", "INTERVENTION",
                                  "WORD_UPDATE"])
def test_cache_directed_delivery_without_controller_raises(backend, kind):
    """A cache-directed message with no ``dst_cpu``, or for a CPU on
    another node, raises on delivery and names the problem."""
    from repro.network.message import Message, MessageKind
    for dst_cpu, error in ((None, "has no dst_cpu"),
                           (3, "cpu3 is not on node 0")):
        machine = Machine(SystemConfig.table1(8, kernel_backend=backend))
        var = machine.alloc("x", home_node=0)
        machine.net.send(Message(MessageKind[kind], 1, 0, var.addr,
                                 value=1, dst_cpu=dst_cpu))
        with pytest.raises(RuntimeError, match=error):
            machine.sim.run()
