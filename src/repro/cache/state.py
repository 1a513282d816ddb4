"""Cache line coherence states.

A conventional MESI-style state set, matching what the SN2-derived
directory protocol needs.  The directory never distinguishes E from M
(an exclusively-held line may be silently dirtied), so the simulator uses
a merged EXCLUSIVE state with a ``dirty`` bit on the line.
"""

from __future__ import annotations

import enum


class LineState(enum.Enum):
    """State of a line in a processor cache."""

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"   # exclusive, possibly dirty (E/M merged; see module doc)

    @property
    def readable(self) -> bool:
        """Can a load hit on this state without a coherence transaction?"""
        return self is not LineState.INVALID

    @property
    def writable(self) -> bool:
        """Can a store hit on this state without a coherence transaction?"""
        return self is LineState.EXCLUSIVE

    def __str__(self) -> str:
        return self.value


# The members as module constants for the hot path: a ``LineState.X``
# load never specializes (see repro.network.message).
LINE_INVALID = LineState.INVALID
LINE_SHARED = LineState.SHARED
LINE_EXCLUSIVE = LineState.EXCLUSIVE
