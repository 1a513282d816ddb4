"""Home directory state.

One :class:`DirectoryEntry` per line that has ever been cached.  The
directory tracks sharers at CPU granularity (each CPU has a private cache
hierarchy) plus an ``amu_sharer`` bit: the paper's fine-grained "get"
inserts the AMU into the sharer list, and — unlike ordinary sharers — the
AMU is allowed to modify the word without exclusive ownership (§3.2).

Sharers are stored as an **integer bitmask** (bit ``i`` set == CPU ``i``
holds a copy), the same presence-vector encoding directory hardware uses.
Membership is one shift-and-mask, fan-out size is ``bit_count()``, and
iteration peels the lowest set bit (``mask & -mask``) — ascending CPU
order, exactly the deterministic order the protocol's invalidation and
word-update waves require.  This is the dominant cost of
INVALIDATE/WORD_UPDATE fan-out at 256 CPUs, where per-wave ``set``
allocation and sorting used to dominate the home engine's profile.
The :attr:`DirectoryEntry.sharers` property still exposes a plain
``set[int]`` view for tests and diagnostics.

Invariants (enforced by :meth:`DirectoryEntry.check` and the property
test-suite):

* EXCLUSIVE implies exactly one owner and no sharers;
* SHARED implies a non-empty sharer set (or AMU sharer) and no owner;
* UNOWNED implies neither.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.sim.primitives import Resource


class DirState(enum.Enum):
    """Directory-visible state of one line."""

    __hash__ = object.__hash__  # identity hash: C-speed dict/Counter keys

    UNOWNED = "unowned"     # memory has the only copy
    SHARED = "shared"       # >= 1 read-only copies; memory is clean
    EXCLUSIVE = "exclusive"  # one writable copy; memory possibly stale


# The members as module constants for the hot path: a ``DirState.X``
# load never specializes (see repro.network.message).
DIR_UNOWNED = DirState.UNOWNED
DIR_SHARED = DirState.SHARED
DIR_EXCLUSIVE = DirState.EXCLUSIVE


def sharer_mask_of(cpus: Iterable[int]) -> int:
    """Fold CPU ids into a presence bitmask."""
    mask = 0
    for cpu in cpus:
        mask |= 1 << cpu
    return mask


def iter_sharers(mask: int) -> Iterator[int]:
    """CPU ids in ``mask``, lowest (ascending) first.

    Peels the lowest set bit per step — O(population), not O(width) —
    and yields in the same order as ``sorted(set_of_ids)`` did, which
    keeps every fan-out wave's message order bit-identical.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(slots=True)
class DirectoryEntry:
    """Directory record for a single line.

    ``sharer_mask`` is the authoritative sharer encoding; hot protocol
    paths manipulate it directly with bit operations.  ``sharers`` is a
    derived ``set`` view (reading builds a fresh set — never mutate it;
    assigning replaces the mask).
    """

    line_addr: int
    state: DirState = DirState.UNOWNED
    sharer_mask: int = 0                             # bit i == CPU i
    owner: Optional[int] = None                      # CPU id
    amu_sharer: bool = False
    #: serializes transactions on this line (the directory "busy" bit)
    busy: Resource = field(default_factory=Resource)
    #: version bumps on every state-changing transaction (diagnostics)
    version: int = 0

    @property
    def sharers(self) -> set[int]:
        """Sharer CPU ids as a set (diagnostic view of the bitmask)."""
        return set(iter_sharers(self.sharer_mask))

    @sharers.setter
    def sharers(self, cpus: Iterable[int]) -> None:
        self.sharer_mask = sharer_mask_of(cpus)

    def add_sharer(self, cpu: int) -> None:
        self.sharer_mask |= 1 << cpu

    def remove_sharer(self, cpu: int) -> None:
        self.sharer_mask &= ~(1 << cpu)

    def has_sharer(self, cpu: int) -> bool:
        return bool(self.sharer_mask >> cpu & 1)

    def sharer_count(self) -> int:
        return self.sharer_mask.bit_count()

    def check(self) -> None:
        """Raise AssertionError when invariants are violated."""
        if self.state is DirState.EXCLUSIVE:
            assert self.owner is not None, f"{self}: EXCLUSIVE without owner"
            assert not self.sharer_mask, f"{self}: EXCLUSIVE with sharers"
            assert not self.amu_sharer, f"{self}: EXCLUSIVE with AMU sharer"
        elif self.state is DirState.SHARED:
            assert self.owner is None, f"{self}: SHARED with owner"
            assert self.sharer_mask or self.amu_sharer, f"{self}: SHARED empty"
        else:
            assert self.owner is None and not self.sharer_mask \
                and not self.amu_sharer, f"{self}: UNOWNED with copies"

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<DirEntry {self.line_addr:#x} {self.state.value} "
                f"owner={self.owner} sharers={sorted(self.sharers)}"
                f"{' +AMU' if self.amu_sharer else ''}>")


class Directory:
    """All directory entries homed at one node."""

    __slots__ = ("node", "_entries")

    def __init__(self, node: int) -> None:
        self.node = node
        self._entries: dict[int, DirectoryEntry] = {}

    def entry(self, line_addr: int) -> DirectoryEntry:
        """Get-or-create the entry for ``line_addr``."""
        ent = self._entries.get(line_addr)
        if ent is None:
            ent = DirectoryEntry(line_addr=line_addr)
            ent.busy.name = f"dir[{self.node}]@{line_addr:#x}"
            self._entries[line_addr] = ent
        return ent

    def known_entries(self) -> list[DirectoryEntry]:
        """Every entry ever touched (for invariant sweeps in tests)."""
        return list(self._entries.values())
