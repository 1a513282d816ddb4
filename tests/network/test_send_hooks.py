"""Multi-subscriber send hooks: tracer, sanitizer and metrics compose.

Regression for the single-slot ``net.on_send`` attribute the seed code
used: attaching a second observer silently replaced the first, so the
attach *order* of the observers decided which one saw traffic.
``subscribe_send`` keeps a hook list; the trace recorder and the
coherence sanitizer subscribe to it, metrics pull from the traffic
counters, and every observer's ``detach`` leaves the list empty.
"""

import pytest

from repro.check.sanitizer import CoherenceSanitizer
from repro.network.fabric import Network
from repro.network.message import Message, MessageKind
from repro.obs import MachineMetrics
from repro.sim.kernel import Simulator
from repro.trace import TraceRecorder


def make_net(n_nodes=4):
    sim = Simulator()
    net = Network(sim, n_nodes)
    net.attach(1, lambda msg: None)
    return sim, net


def ping(sim, net):
    net.send(Message(kind=MessageKind.GET_S, src_node=0, dst_node=1))
    sim.run()


def test_all_subscribers_see_every_send():
    sim, net = make_net()
    seen_a, seen_b, seen_c = [], [], []
    net.subscribe_send(lambda msg, hops: seen_a.append(hops))
    net.subscribe_send(lambda msg, hops: seen_b.append(hops))
    net.subscribe_send(lambda msg, hops: seen_c.append(hops))
    ping(sim, net)
    assert seen_a == seen_b == seen_c == [2]


def test_duplicate_subscribe_is_idempotent():
    sim, net = make_net()
    seen = []

    def hook(msg, hops):
        seen.append(hops)

    net.subscribe_send(hook)
    net.subscribe_send(hook)
    ping(sim, net)
    assert seen == [2]


def test_unsubscribe_removes_only_that_hook():
    sim, net = make_net()
    kept, dropped = [], []

    def keeper(msg, hops):
        kept.append(hops)

    def goner(msg, hops):
        dropped.append(hops)

    net.subscribe_send(keeper)
    net.subscribe_send(goner)
    net.unsubscribe_send(goner)
    net.unsubscribe_send(goner)          # second removal is a no-op
    ping(sim, net)
    assert kept == [2] and dropped == []


@pytest.mark.parametrize("order", ["tracer-first", "metrics-first"])
def test_tracer_profiler_metrics_compose_in_any_order(machine8, order):
    """The original bug: whichever observer attached last won."""
    if order == "tracer-first":
        tracer = TraceRecorder.attach(machine8)
        sanitizer = CoherenceSanitizer.attach(machine8)
        obs = MachineMetrics.attach(machine8)
    else:
        obs = MachineMetrics.attach(machine8)
        sanitizer = CoherenceSanitizer.attach(machine8)
        tracer = TraceRecorder.attach(machine8)
    var = machine8.alloc("v", home_node=1)

    def thread(proc):
        yield from proc.load(var.addr)
        yield from proc.amo_inc(var.addr)

    machine8.run_threads(thread)
    assert tracer.instants                         # tracer saw messages
    hops = obs.snapshot()["histograms"]["network.msg_hops"]
    assert hops["count"] > 0                       # metrics saw messages
    assert sanitizer.messages_checked > 0          # sanitizer saw messages
    assert sanitizer.ok
    tracer.detach()
    sanitizer.detach()
    obs.detach()
    assert machine8.net._send_hooks == []
