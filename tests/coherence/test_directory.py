"""Unit tests for directory state, bitmask sharer encoding, and invariants."""

import pytest

from repro.coherence.directory import (Directory, DirectoryEntry, DirState,
                                       iter_sharers, sharer_mask_of)


def test_entry_created_unowned():
    d = Directory(node=0)
    ent = d.entry(0x100)
    assert ent.state is DirState.UNOWNED
    assert ent.sharers == set()
    assert ent.sharer_mask == 0
    assert ent.owner is None
    ent.check()


def test_entry_is_memoized():
    d = Directory(node=0)
    assert d.entry(0x100) is d.entry(0x100)
    assert d.entry(0x100) is not d.entry(0x200)


def test_exclusive_invariants():
    ent = DirectoryEntry(line_addr=0x100)
    ent.state = DirState.EXCLUSIVE
    with pytest.raises(AssertionError):
        ent.check()                         # no owner
    ent.owner = 3
    ent.check()
    ent.add_sharer(1)
    with pytest.raises(AssertionError):
        ent.check()                         # sharers under EXCLUSIVE


def test_shared_invariants():
    ent = DirectoryEntry(line_addr=0x100)
    ent.state = DirState.SHARED
    with pytest.raises(AssertionError):
        ent.check()                         # empty sharer set
    ent.add_sharer(0)
    ent.check()
    ent.owner = 1
    with pytest.raises(AssertionError):
        ent.check()                         # owner under SHARED


def test_amu_sharer_satisfies_shared():
    ent = DirectoryEntry(line_addr=0x100)
    ent.state = DirState.SHARED
    ent.amu_sharer = True
    ent.check()


def test_unowned_with_copies_rejected():
    ent = DirectoryEntry(line_addr=0x100)
    ent.add_sharer(2)
    with pytest.raises(AssertionError):
        ent.check()


# ---------------------------------------------------------------------------
# bitmask sharer encoding
# ---------------------------------------------------------------------------
def test_sharer_mask_round_trip():
    ent = DirectoryEntry(line_addr=0x100)
    ent.sharers = {0, 5, 255}                 # setter folds into the mask
    assert ent.sharer_mask == (1 << 0) | (1 << 5) | (1 << 255)
    assert ent.sharers == {0, 5, 255}         # getter rebuilds the set view
    assert ent.sharer_count() == 3


def test_add_remove_has_sharer():
    ent = DirectoryEntry(line_addr=0x100)
    ent.add_sharer(7)
    ent.add_sharer(7)                          # idempotent
    ent.add_sharer(2)
    assert ent.has_sharer(7) and ent.has_sharer(2)
    assert not ent.has_sharer(3)
    ent.remove_sharer(7)
    assert not ent.has_sharer(7)
    ent.remove_sharer(7)                       # removing absent id is a no-op
    assert ent.sharers == {2}


def test_iter_sharers_ascending_matches_sorted_set():
    ids = [200, 3, 64, 0, 17]
    mask = sharer_mask_of(ids)
    assert list(iter_sharers(mask)) == sorted(ids)
    assert list(iter_sharers(0)) == []


def test_sharers_view_is_derived_not_aliased():
    """Mutating the set view must not silently corrupt directory state."""
    ent = DirectoryEntry(line_addr=0x100)
    ent.add_sharer(1)
    view = ent.sharers
    view.add(9)                                # mutates a throwaway copy
    assert ent.sharers == {1}
    assert ent.sharer_mask == 1 << 1
