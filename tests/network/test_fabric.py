"""Unit tests for the network fabric (latency, delivery, accounting)."""

import pytest

from repro.config.parameters import NetworkConfig
from repro.network.fabric import Network
from repro.network.message import Message, MessageKind
from repro.sim.kernel import Simulator
from repro.sim.primitives import Signal


def make_net(n_nodes=4):
    sim = Simulator()
    net = Network(sim, n_nodes)
    return sim, net


def test_latency_local_vs_remote():
    sim, net = make_net(16)
    cfg = net.config
    assert net.latency(3, 3) == cfg.local_latency_cycles
    assert net.latency(0, 1) == 2 * cfg.hop_latency_cycles
    assert net.latency(0, 15) == 4 * cfg.hop_latency_cycles


def test_request_delivered_to_attached_handler():
    sim, net = make_net()
    seen = []
    net.attach(2, lambda msg: seen.append((sim.now, msg.addr)))
    net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=2,
                     addr=0xabc))
    sim.run()
    assert seen == [(200, 0xabc)]


def test_reply_fires_signal_directly():
    sim, net = make_net()
    sig = Signal()
    net.send(Message(kind=MessageKind.DATA_S, src_node=1, dst_node=0,
                     addr=0x10, reply_to=sig, payload={"w": 1}))
    sim.run()
    assert sig.fired
    assert sig.value.payload == {"w": 1}


def test_missing_handler_raises():
    sim, net = make_net()
    net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=3))
    with pytest.raises(RuntimeError, match="no handler"):
        sim.run()


def test_reply_helper_routes_back_with_signal():
    sim, net = make_net()
    sig = Signal()
    request = Message(kind=MessageKind.GET_S, src_node=0, dst_node=2,
                      addr=0x40, reply_to=sig, requester=5)
    net.attach(2, lambda msg: net.send(Message(
        kind=MessageKind.DATA_S, src_node=msg.dst_node,
        dst_node=msg.src_node, addr=msg.addr, payload={"x": 9},
        reply_to=msg.reply_to, requester=msg.requester)))
    net.send(request)
    sim.run()
    assert sig.fired
    reply = sig.value
    assert reply.src_node == 2 and reply.dst_node == 0
    assert reply.requester == 5
    assert reply.payload == {"x": 9}


def test_traffic_accounting_remote_vs_local():
    sim, net = make_net()
    net.attach(0, lambda msg: None)
    net.attach(1, lambda msg: None)
    net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=1))
    net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=0))
    sim.run()
    assert net.stats.total_messages == 1          # remote only
    assert net.stats.total_local_messages == 1
    assert net.stats.bytes[MessageKind.GET_S] == 32
    assert net.stats.hop_bytes[MessageKind.GET_S] == 64   # 2 hops x 32B


def test_late_duplicate_reply_dropped():
    sim, net = make_net()
    sig = Signal()
    for _ in range(2):
        net.send(Message(kind=MessageKind.AM_REPLY, src_node=1, dst_node=0,
                         reply_to=sig, value="v"))
    sim.run()        # second delivery must not raise
    assert sig.fired


def test_on_send_hook_sees_hops():
    sim, net = make_net(16)
    hooks = []
    net.subscribe_send(lambda msg, hops: hooks.append(hops))
    net.attach(15, lambda msg: None)
    net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=15))
    sim.run()
    assert hooks == [4]


def test_link_contention_serializes_converging_packets():
    from repro.config.parameters import NetworkConfig
    sim, net = make_net()
    net.config = NetworkConfig(model_link_contention=True,
                               link_bandwidth_bytes_per_cycle=1.0)
    arrivals = []
    net.attach(1, lambda msg: arrivals.append(sim.now))
    # 3 same-size packets from node 0 to node 1: uplink serializes them
    for _ in range(3):
        net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=1))
    sim.run()
    assert len(arrivals) == 3
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert all(g >= 32 for g in gaps)         # 32B at 1 B/cycle
    assert net.link_busy_cycles == 3 * 2 * 32


def test_link_contention_off_by_default_delivers_in_parallel():
    sim, net = make_net()
    arrivals = []
    net.attach(1, lambda msg: arrivals.append(sim.now))
    for _ in range(3):
        net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=1))
    sim.run()
    assert arrivals == [200, 200, 200]


def test_link_contention_local_messages_unaffected():
    from repro.config.parameters import NetworkConfig
    sim, net = make_net()
    net.config = NetworkConfig(model_link_contention=True)
    arrivals = []
    net.attach(0, lambda msg: arrivals.append(sim.now))
    net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=0))
    sim.run()
    assert arrivals == [net.config.local_latency_cycles]


def test_router_contention_serializes_at_shared_links():
    """Two flows converging on one destination serialize at its
    node-down link even though their sources differ."""
    from repro.config.parameters import NetworkConfig
    sim, net = make_net(16)
    net.config = NetworkConfig(model_router_contention=True,
                               link_bandwidth_bytes_per_cycle=1.0)
    arrivals = []
    net.attach(8, lambda msg: arrivals.append(sim.now))
    net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=8))
    net.send(Message(kind=MessageKind.GET_S, src_node=1, dst_node=8))
    sim.run()
    assert len(arrivals) == 2
    assert arrivals[1] - arrivals[0] >= 32    # serialized at the funnel


def test_router_contention_disjoint_paths_parallel():
    from repro.config.parameters import NetworkConfig
    sim, net = make_net(16)
    net.config = NetworkConfig(model_router_contention=True,
                               link_bandwidth_bytes_per_cycle=1.0)
    arrivals = []
    net.attach(1, lambda msg: arrivals.append(("a", sim.now)))
    net.attach(3, lambda msg: arrivals.append(("b", sim.now)))
    # 0->1 and 2->3 share no directed link (same leaf router, distinct
    # endpoint links)
    net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=1))
    net.send(Message(kind=MessageKind.GET_S, src_node=2, dst_node=3))
    sim.run()
    times = {tag: t for tag, t in arrivals}
    assert times["a"] == times["b"]


def test_router_contention_latency_floor_matches_hops():
    """An uncontended packet pays hops*hop_latency + serialization."""
    from repro.config.parameters import NetworkConfig
    sim, net = make_net(128)
    net.config = NetworkConfig(model_router_contention=True,
                               link_bandwidth_bytes_per_cycle=32.0)
    arrivals = []
    net.attach(127, lambda msg: arrivals.append(sim.now))
    net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=127))
    sim.run()
    hops = net.topology.hops(0, 127)
    assert arrivals[0] == hops * 100 + hops * 1   # 32B / 32Bpc = 1cy/link
