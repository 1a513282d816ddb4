"""Model-layer port of the accel backend: compiled fabric and wave paths.

PR 8 compiled the *kernel* (event queue, dispatch ring, resume
trampoline) and hit its Amdahl wall: with the kernel at ~10% of wall
time, the remaining cycles live in the per-message model hot path —
``Network.send``/``_deliver``, the word-update handler chain, and the
cache-client and home-engine coroutines.
This module extends the parity-gated backend seam across that boundary.

Shape of the port
-----------------
The compiled core (:mod:`repro.sim.backends._accel_core`) cannot import
the model layer — the model imports *it* — so the binding is inverted:
on the first accel :class:`~repro.core.machine.Machine` construction,
:func:`model_classes` calls the core's ``arm_model`` with the model
types and their ``__slots__`` layouts.  The core resolves member-descriptor
offsets once (the same technique the kernel port uses for ``Process``)
and reports whether the compiled fast paths are usable.  A refactored
slot layout simply reports unarmed and every path stays pure Python —
behaviour, if not speed, is preserved, mirroring the kernel fallback
contract.

When armed, :func:`model_classes` returns thin subclasses:

``AccelNetwork``
    Plants compiled ``send``/``_deliver`` bound callables as instance
    attributes.  Each falls back to the Python coding **before mutating
    anything** whenever a precondition fails: contention modelling on,
    injectors installed, send hooks subscribed, stats tracing, a cold
    route cache, a value of a non-exact type.  A failed read of an
    attribute the fabric always sets is an error and propagates.
    Instance-attribute monkeypatching (``repro.check.fuzz`` wraps
    ``net.send``) still composes — the wrapper shadows the compiled
    attribute and receives it as the original to forward to.

``AccelHub`` / ``AccelCacheController`` / ``AccelHomeEngine``
    ``Hub.egress_send``, ``CacheController.load`` / ``_do_invalidate``
    and the GET_S clean-read / read-fill pair become compiled state
    machines speaking the generator protocol.  Egress waves and
    ``spin_until`` keep their Python coding: compiled, they measured
    as no gain (docs/performance.md, "Which ports pay").

Every fast path preserves the reference event stream bit-for-bit: same
events, same counts, same order (golden parity enforces this across
fresh/pooled/metered/qlock fingerprints).  The win is constant
factor only — each event gets cheaper, no event disappears.
"""

from __future__ import annotations

import logging
import os
from typing import Optional, Tuple, Type

__all__ = ["model_classes", "model_core", "model_implementation"]

logger = logging.getLogger(__name__)

#: None = not probed yet; otherwise the armed core module or False
_CORE = None
_CLASSES: Optional[Tuple[type, type]] = None


def model_core():
    """The compiled core with armed model paths, or ``None``.

    Lazily arms on first call.  Returns ``None`` when the accel backend
    has fallen back to the ``reference`` kernel (the compiled core is
    not importable) or when the compiled core's model paths could not
    be armed (slot-layout drift).
    """
    global _CORE
    if _CORE is None:
        _CORE = _try_arm() or False
    return _CORE or None


def model_implementation() -> str:
    """Which model-path implementation the accel backend would use:
    ``"compiled"`` or ``"python"``."""
    return "compiled" if model_core() is not None else "python"


def _try_arm():
    from repro.sim.backends import (ENV_REQUIRE_COMPILED, BackendError,
                                    accel_implementation)

    if accel_implementation() != "compiled":
        return None
    from repro.sim.backends import _accel_core as core

    from repro.cache.cache import SetAssociativeCache
    from repro.cache.line import CacheLine
    from repro.cache.state import LineState
    from repro.coherence.client import CacheController, LineMeta
    from repro.coherence.directory import DirectoryEntry, DirState
    from repro.coherence.protocol import HomeEngine
    from repro.core.machine import Hub
    from repro.mem.address import LINE_BYTES, WORD_BYTES
    from repro.mem.dram import Dram
    from repro.network.fabric import Network
    from repro.network.message import Message, MessageKind, _msg_ids
    from repro.network.stats import TrafficStats

    armed = core.arm_model({
        "Message": Message,
        "Hub": Hub,
        "CacheController": CacheController,
        "Cache": SetAssociativeCache,
        "CacheLine": CacheLine,
        "LineMeta": LineMeta,
        "TrafficStats": TrafficStats,
        "WORD_UPDATE": MessageKind.WORD_UPDATE,
        "INVALID": LineState.INVALID,
        "msg_ids": _msg_ids,
        "net_send": Network.send,
        "net_deliver": Network._deliver,
        "hub_receive": Hub.receive,
        "hub_egress_send": Hub.egress_send,
        "ctrl_load": CacheController.load,
        "ctrl_do_invalidate": CacheController._do_invalidate,
        "INV_ACK": MessageKind.INV_ACK,
        "HomeEngine": HomeEngine,
        "DirectoryEntry": DirectoryEntry,
        "Dram": Dram,
        "serve_get_s": HomeEngine._serve_get_s,
        "finish_clean_read": HomeEngine._finish_clean_read,
        "DATA_S": MessageKind.DATA_S,
        "DIR_EXCLUSIVE": DirState.EXCLUSIVE,
        "DIR_SHARED": DirState.SHARED,
        "LINE_BYTES": LINE_BYTES,
        "WORD_BYTES": WORD_BYTES,
    })
    if not armed:
        msg = ("accel model port disabled: slot layout mismatch between "
               "the compiled core and the model classes; using "
               "pure-Python model paths")
        if os.environ.get(ENV_REQUIRE_COMPILED) not in (None, "", "0"):
            raise BackendError(msg)
        logger.warning(msg)
        return None
    return core


def _build_classes(core) -> Tuple[type, type]:
    """The accel model subclasses (built once, cached).

    All three add ``__slots__ = ()`` so their member-descriptor offsets
    are byte-identical to the base classes the core was armed with.
    """
    from repro.coherence.client import CacheController
    from repro.coherence.protocol import HomeEngine
    from repro.core.machine import Hub
    from repro.network.fabric import Network

    class AccelCacheController(CacheController):
        __slots__ = ()

        # Each override returns a compiled state machine speaking the
        # generator protocol; the core falls back to the base Python
        # coroutines (passed to arm_model) whenever a precondition
        # fails, so behaviour — and the event stream — is identical.
        def load(self, addr):
            return core.ctrl_load(self, addr)

        def _do_invalidate(self, msg):
            return core.ctrl_do_invalidate(self, msg)

    class AccelHomeEngine(HomeEngine):
        __slots__ = ()

        # The clean-read GET_S path (the reload half of every barrier /
        # lock wake-up storm) runs as a compiled state machine; the
        # 3-hop owned tail delegates back to _get_s_owned in Python.
        def _serve_get_s(self, msg):
            return core.serve_get_s(self, msg)

        def _finish_clean_read(self, msg, words):
            return core.finish_clean_read(self, msg, words)

    class AccelHub(Hub):
        __slots__ = ()
        _controller_cls = AccelCacheController
        _home_cls = AccelHomeEngine

        def egress_send(self, msg):
            return core.egress_send(self, msg)

    class AccelNetwork(Network):
        def __init__(self, sim, n_nodes, config=None):
            super().__init__(sim, n_nodes, config)
            self.send = core.make_sender(self)
            self._deliver = core.make_deliver(self)

    return AccelNetwork, AccelHub


def model_classes(backend: Optional[str]) -> Tuple[type, type]:
    """``(network_cls, hub_cls)`` for one machine.

    ``backend`` is the machine's configured kernel backend name
    (``None`` applies the registry's selection order, honoring
    ``$REPRO_KERNEL_BACKEND``).  Only the ``accel`` backend with an
    armed compiled core gets the accel classes; everything else —
    including every ``reference`` run — gets the plain model classes.
    """
    global _CLASSES
    from repro.core.machine import Hub
    from repro.network.fabric import Network
    from repro.sim.backends import resolve_backend_name

    if resolve_backend_name(backend) == "accel":
        core = model_core()
        if core is not None:
            if _CLASSES is None:
                _CLASSES = _build_classes(core)
            return _CLASSES
    return Network, Hub
