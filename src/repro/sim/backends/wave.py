"""Fan-out waves: sharer-bitmask expansion and batched construction.

The home engine's INVALIDATE / WORD_UPDATE waves turn a directory
presence bitmask into ``(cpu, node)`` destination pairs with
:func:`expand_wave`, then into one
:class:`~repro.network.message.Message` per pair.  The construction
comes in two interchangeable forms:

``build_wave_py``
    The reference coding, a list comprehension over the pairs.

``_accel_core.build_wave``
    The same batch allocated in C: same slots, same message-id counter,
    same order.  :func:`wave_builder` picks it on the accel backend with
    an armed compiled core.

Both return the **same list in the same order**, so the message stream
— and therefore the golden parity fingerprints — is byte-identical
regardless of which one runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["build_wave_py", "expand_wave", "wave_builder"]


def expand_wave(mask: int, cpus_per_node: int) -> List[Tuple[int, int]]:
    """``(cpu, node)`` pairs for every set bit, ascending CPU order
    (the order of ``directory.iter_sharers``)."""
    out = []
    while mask:
        low = mask & -mask
        cpu = low.bit_length() - 1
        out.append((cpu, cpu // cpus_per_node))
        mask ^= low
    return out


def build_wave_py(kind, src_node, addr, value, payload, pairs):
    """The reference wave construction: one :class:`Message` per
    ``(cpu, node)`` pair, sharing the kind/addr/value/payload of the
    whole wave.  Message ids are drawn from the global counter in pair
    order, exactly like the inline list comprehensions this replaces."""
    from repro.network.message import Message

    return [Message(kind=kind, src_node=src_node, dst_node=node, addr=addr,
                    value=value, payload=payload, dst_cpu=cpu)
            for cpu, node in pairs]


def wave_builder(backend: Optional[str]):
    """Select the wave *construction* for one machine.

    The home engine builds an N-target wave's message list in one call;
    on the accel backend with an armed compiled core the whole batch is
    allocated in C (``_accel_core.build_wave`` — same slots, same id
    counter, same order), turning a 1024-way invalidation wave's
    message construction into a single C loop.  Everything else gets
    the pure-Python builder.
    """
    from repro.sim.backends import resolve_backend_name

    if resolve_backend_name(backend) == "accel":
        from repro.sim.backends.model import model_core

        core = model_core()
        if core is not None:
            return core.build_wave
    return build_wave_py
