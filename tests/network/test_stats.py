"""Unit tests for traffic statistics."""

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
