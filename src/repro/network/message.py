"""Network message taxonomy.

Message kinds follow the SGI SN2-style protocol vocabulary the paper
assumes plus the extensions it introduces (fine-grained get/put, AMO
command/reply) and the mechanisms it compares against (MAO, active
messages).  Sizes: control packets are the 32-byte minimum; word-carrying
packets add one 8-byte word; line-carrying packets add a 128-byte line.

The solid/dashed/dotted arrows of the paper's Figure 1 map to
:attr:`MessageKind.is_request` / :attr:`is_intervention` /
:attr:`is_reply` respectively.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

from repro.sim.primitives import Signal


class MessageKind(enum.Enum):
    """Every message type that can cross the interconnect.

    Classification flags (``is_request``, ``is_reply``,
    ``is_intervention``, ``carries_line``, ``carries_word``) and the
    derived packet size (``packet_bytes``) are precomputed onto each
    member after class creation, so hot-path checks are plain attribute
    loads — no set membership, no property call.  ``__hash__`` is the
    identity slot so members key dicts/Counters at C speed (members are
    singletons, so identity hashing is consistent with equality).
    """

    __hash__ = object.__hash__

    # -- block-grained coherence (substrate S5) -------------------------
    GET_S = "get_s"                  # read request (load miss)
    GET_X = "get_x"                  # exclusive request (store/upgrade/LL-SC)
    DATA_S = "data_s"                # line reply, shared
    DATA_X = "data_x"                # line reply, exclusive
    INVALIDATE = "invalidate"        # directory -> sharer
    INV_ACK = "inv_ack"              # sharer -> requester/home
    INTERVENTION = "intervention"    # directory -> exclusive owner
    INTERVENTION_REPLY = "intervention_reply"  # owner -> requester (data)
    SHARING_WRITEBACK = "sharing_writeback"    # owner -> home (revision)
    WRITEBACK = "writeback"          # eviction of a dirty line
    WRITEBACK_ACK = "writeback_ack"
    UNCACHED_READ = "uncached_read"    # cache-bypassing load (MAO spin)
    UNCACHED_READ_REPLY = "uncached_read_reply"
    UNCACHED_WRITE = "uncached_write"
    UNCACHED_WRITE_ACK = "uncached_write_ack"

    # -- fine-grained update extension (S6) ------------------------------
    FG_GET = "fg_get"                # AMU word-grained coherent read
    FG_GET_REPLY = "fg_get_reply"
    FG_PUT = "fg_put"                # AMU word-grained coherent write
    WORD_UPDATE = "word_update"      # directory -> sharer caches (push)

    # -- active memory operations (S11) ----------------------------------
    AMO_REQUEST = "amo_request"      # processor -> home AMU command
    AMO_REPLY = "amo_reply"          # AMU -> processor (old value)

    # -- conventional memory-side atomics (S10) --------------------------
    MAO_REQUEST = "mao_request"      # uncached IO-space atomic trigger
    MAO_REPLY = "mao_reply"

    # -- active messages (S9) --------------------------------------------
    AM_REQUEST = "am_request"        # message carrying handler + args
    AM_REPLY = "am_reply"            # handler completion notification

_REQUESTS = {
    MessageKind.GET_S, MessageKind.GET_X, MessageKind.WRITEBACK,
    MessageKind.UNCACHED_READ, MessageKind.UNCACHED_WRITE,
    MessageKind.FG_GET, MessageKind.FG_PUT,
    MessageKind.AMO_REQUEST, MessageKind.MAO_REQUEST,
    MessageKind.AM_REQUEST,
}
_REPLIES = {
    MessageKind.DATA_S, MessageKind.DATA_X, MessageKind.INV_ACK,
    MessageKind.INTERVENTION_REPLY, MessageKind.SHARING_WRITEBACK,
    MessageKind.WRITEBACK_ACK, MessageKind.UNCACHED_READ_REPLY,
    MessageKind.UNCACHED_WRITE_ACK, MessageKind.FG_GET_REPLY,
    MessageKind.WORD_UPDATE, MessageKind.AMO_REPLY, MessageKind.MAO_REPLY,
    MessageKind.AM_REPLY,
}
_INTERVENTIONS = {MessageKind.INTERVENTION, MessageKind.INVALIDATE}
_LINE_CARRIERS = {
    MessageKind.DATA_S, MessageKind.DATA_X, MessageKind.INTERVENTION_REPLY,
    MessageKind.SHARING_WRITEBACK, MessageKind.WRITEBACK,
}
_WORD_CARRIERS = {
    MessageKind.WORD_UPDATE, MessageKind.FG_GET_REPLY, MessageKind.FG_PUT,
    MessageKind.AMO_REQUEST, MessageKind.AMO_REPLY,
    MessageKind.MAO_REQUEST, MessageKind.MAO_REPLY,
    MessageKind.UNCACHED_READ_REPLY, MessageKind.UNCACHED_WRITE,
    MessageKind.AM_REQUEST, MessageKind.AM_REPLY,
}

#: fixed packet-size components (bytes)
MIN_PACKET = 32
WORD_BYTES = 8
LINE_BYTES = 128

# Precompute the classification flags and derived size as plain member
# attributes (the Figure 1 solid/dashed/dotted mapping lives here).
for _kind in MessageKind:
    _kind.is_request = _kind in _REQUESTS
    _kind.is_reply = _kind in _REPLIES
    _kind.is_intervention = _kind in _INTERVENTIONS
    _kind.carries_line = _kind in _LINE_CARRIERS
    _kind.carries_word = _kind in _WORD_CARRIERS
    _kind.packet_bytes = MIN_PACKET + (
        LINE_BYTES if _kind.carries_line
        else WORD_BYTES if _kind.carries_word else 0)
del _kind

# Every member as a module constant.  On CPython 3.11 a load such as
# ``MessageKind.GET_S`` goes through the enum metaclass and never
# specializes; a module global does, so the hot model modules import
# these (tests/sim/test_hot_path_style.py).
GET_S = MessageKind.GET_S
GET_X = MessageKind.GET_X
DATA_S = MessageKind.DATA_S
DATA_X = MessageKind.DATA_X
INVALIDATE = MessageKind.INVALIDATE
INV_ACK = MessageKind.INV_ACK
INTERVENTION = MessageKind.INTERVENTION
INTERVENTION_REPLY = MessageKind.INTERVENTION_REPLY
SHARING_WRITEBACK = MessageKind.SHARING_WRITEBACK
WRITEBACK = MessageKind.WRITEBACK
WRITEBACK_ACK = MessageKind.WRITEBACK_ACK
UNCACHED_READ = MessageKind.UNCACHED_READ
UNCACHED_READ_REPLY = MessageKind.UNCACHED_READ_REPLY
UNCACHED_WRITE = MessageKind.UNCACHED_WRITE
UNCACHED_WRITE_ACK = MessageKind.UNCACHED_WRITE_ACK
FG_GET = MessageKind.FG_GET
FG_GET_REPLY = MessageKind.FG_GET_REPLY
FG_PUT = MessageKind.FG_PUT
WORD_UPDATE = MessageKind.WORD_UPDATE
AMO_REQUEST = MessageKind.AMO_REQUEST
AMO_REPLY = MessageKind.AMO_REPLY
MAO_REQUEST = MessageKind.MAO_REQUEST
MAO_REPLY = MessageKind.MAO_REPLY
AM_REQUEST = MessageKind.AM_REQUEST
AM_REPLY = MessageKind.AM_REPLY

_msg_ids = itertools.count()


class Message:
    """One interconnect packet.

    ``reply_to`` carries the requester's one-shot :class:`Signal`; replies
    copy it back so delivery can resume the waiting coroutine directly
    (hardware analogue: transaction identifiers matching replies to MSHR
    entries).  ``size_bytes`` is the kind's ``packet_bytes``.

    Hand-rolled ``__slots__`` class rather than a dataclass: hundreds of
    thousands of packets are built per run, and the dataclass machinery
    (``__post_init__`` dispatch, ``default_factory`` call) costs two extra
    function calls per construction for no behavioural difference.
    """

    __slots__ = ("kind", "src_node", "dst_node", "addr", "value", "payload",
                 "reply_to", "requester", "dst_cpu", "is_retransmit",
                 "size_bytes", "msg_id")

    MIN_PACKET = MIN_PACKET
    WORD_BYTES = WORD_BYTES
    LINE_BYTES = LINE_BYTES

    def __init__(self, kind: MessageKind, src_node: int, dst_node: int,
                 addr: Optional[int] = None, value: Any = None,
                 payload: Any = None, reply_to: Optional[Signal] = None,
                 requester: Optional[int] = None,
                 dst_cpu: Optional[int] = None, is_retransmit: bool = False,
                 msg_id: Optional[int] = None) -> None:
        self.kind = kind
        self.src_node = src_node
        self.dst_node = dst_node
        self.addr = addr
        self.value = value
        self.payload = payload
        self.reply_to = reply_to
        self.requester = requester        # originating CPU id, if any
        self.dst_cpu = dst_cpu            # target CPU for cache-directed msgs
        self.is_retransmit = is_retransmit
        # derived size cached per kind at module import
        self.size_bytes = kind.packet_bytes
        self.msg_id = next(_msg_ids) if msg_id is None else msg_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        addr = f" a={self.addr:#x}" if self.addr is not None else ""
        return (f"<Msg#{self.msg_id} {self.kind.value} "
                f"{self.src_node}->{self.dst_node}{addr}>")
