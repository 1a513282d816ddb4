"""Unit tests for traffic statistics."""

import random
from collections import Counter

from repro.network.message import Message, MessageKind
from repro.network.stats import TrafficStats


def _msg(kind=MessageKind.GET_S, retransmit=False):
    return Message(kind=kind, src_node=0, dst_node=1,
                   is_retransmit=retransmit)


def test_record_accumulates_by_kind():
    st = TrafficStats()
    st.record(_msg(), hops=2)
    st.record(_msg(), hops=4)
    st.record(_msg(MessageKind.DATA_S), hops=2)
    assert st.messages[MessageKind.GET_S] == 2
    assert st.bytes[MessageKind.GET_S] == 64
    assert st.hop_bytes[MessageKind.GET_S] == 32 * 2 + 32 * 4
    assert st.total_messages == 3
    assert st.total_bytes == 64 + 160


def test_local_messages_counted_separately():
    st = TrafficStats()
    st.record(_msg(), hops=0)
    assert st.total_messages == 0
    assert st.total_local_messages == 1
    assert st.total_bytes == 0


def test_retransmits_counted():
    st = TrafficStats()
    st.record(_msg(retransmit=True), hops=2)
    st.record(_msg(), hops=2)
    assert st.retransmits == 1


def test_snapshot_and_delta():
    st = TrafficStats()
    st.record(_msg(), hops=2)
    snap = st.snapshot()
    st.record(_msg(), hops=2)
    st.record(_msg(MessageKind.WORD_UPDATE), hops=2)
    delta = st.delta_since(snap)
    assert delta.messages[MessageKind.GET_S] == 1
    assert delta.messages[MessageKind.WORD_UPDATE] == 1
    assert delta.total_messages == 2
    # original untouched by snapshot
    assert st.total_messages == 3


def test_reset_clears_everything():
    st = TrafficStats()
    st.record(_msg(retransmit=True), hops=2)
    st.record(_msg(), hops=0)
    st.reset()
    assert st.total_messages == 0
    assert st.total_local_messages == 0
    assert st.hop_counts == {}
    assert st.retransmits == 0


def test_format_report_contains_totals():
    st = TrafficStats()
    st.record(_msg(), hops=2)
    report = st.format_report()
    assert "get_s" in report
    assert "TOTAL" in report


def test_messages_of_selector():
    st = TrafficStats()
    st.record(_msg(MessageKind.GET_S), hops=2)
    st.record(_msg(MessageKind.GET_X), hops=2)
    st.record(_msg(MessageKind.DATA_X), hops=2)
    assert st.messages_of(MessageKind.GET_S, MessageKind.GET_X) == 2


def _fold(records):
    """Per-view accounting of ``(kind, hops, retransmit)`` records, kept
    the long way: four per-kind Counters and a hop-count Counter."""
    views = {name: Counter() for name in ("messages", "bytes", "hop_bytes",
                                          "local_messages", "hop_counts")}
    for kind, hops, _ in records:
        if hops == 0:
            views["local_messages"][kind] += 1
        else:
            views["messages"][kind] += 1
            views["bytes"][kind] += kind.packet_bytes
            views["hop_bytes"][kind] += kind.packet_bytes * hops
            views["hop_counts"][hops] += 1
    return views, sum(retransmit for _, _, retransmit in records)


def _assert_agrees(st, records):
    views, retransmits = _fold(records)
    for name, expected in views.items():
        assert dict(getattr(st, name)) == dict(expected), name
    assert st.total_messages == sum(views["messages"].values())
    assert st.total_bytes == sum(views["bytes"].values())
    assert st.total_hop_bytes == sum(views["hop_bytes"].values())
    assert st.total_local_messages == sum(views["local_messages"].values())
    assert st.retransmits == retransmits
    requests = [k for k in MessageKind if k.is_request]
    assert st.messages_of(*requests) == sum(views["messages"][k]
                                            for k in requests)


def test_table_agrees_with_per_view_counters():
    rng = random.Random(21)
    kinds = list(MessageKind)
    records = [(rng.choice(kinds), rng.randint(0, 8), rng.random() < 0.1)
               for _ in range(3000)]
    head, tail = records[:1000], records[1000:]
    st = TrafficStats()
    for kind, hops, retransmit in head:
        st.record(_msg(kind, retransmit), hops)
    snap = st.snapshot()
    for kind, hops, retransmit in tail:
        st.record(_msg(kind, retransmit), hops)
    _assert_agrees(st, records)
    _assert_agrees(snap, head)
    _assert_agrees(st.delta_since(snap), tail)
    _assert_agrees(st.delta_since(st.snapshot()), [])
    st.reset()
    _assert_agrees(st, [])
    _assert_agrees(snap, head)
