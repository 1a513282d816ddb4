"""Unit tests for message taxonomy and sizing."""

from repro.network.message import Message, MessageKind


def test_control_packet_is_minimum_size():
    msg = Message(kind=MessageKind.GET_S, src_node=0, dst_node=1, addr=0x100)
    assert msg.size_bytes == Message.MIN_PACKET == 32


def test_line_carrier_adds_line():
    msg = Message(kind=MessageKind.DATA_S, src_node=1, dst_node=0, addr=0x100)
    assert msg.size_bytes == 32 + 128


def test_word_carrier_adds_word():
    msg = Message(kind=MessageKind.WORD_UPDATE, src_node=1, dst_node=0,
                  addr=0x100, value=7)
    assert msg.size_bytes == 32 + 8


def test_size_is_a_function_of_kind():
    for kind in MessageKind:
        msg = Message(kind=kind, src_node=0, dst_node=1)
        assert msg.size_bytes == kind.packet_bytes, kind


def test_kind_classification_consistency():
    for kind in MessageKind:
        # nothing is both request and reply
        assert not (kind.is_request and kind.is_reply), kind
    # the Figure 1 arrow classes
    assert MessageKind.GET_X.is_request
    assert MessageKind.INTERVENTION.is_intervention
    assert MessageKind.INVALIDATE.is_intervention
    assert MessageKind.DATA_X.is_reply
    assert MessageKind.INV_ACK.is_reply
    assert MessageKind.AMO_REQUEST.is_request
    assert MessageKind.AMO_REPLY.is_reply


def test_message_ids_unique():
    msgs = [Message(kind=MessageKind.GET_S, src_node=0, dst_node=1)
            for _ in range(10)]
    ids = [m.msg_id for m in msgs]
    assert len(set(ids)) == 10
    assert ids == sorted(ids)
