"""Unit tests for the backing store."""

from repro.mem.address import LINE_BYTES, WORD_BYTES, AddressSpace
from repro.mem.backing import BackingStore


def test_default_zero():
    bs = BackingStore()
    assert bs.read_word(0x100000000) == 0


def test_write_read_round_trip():
    bs = BackingStore()
    bs.write_word(0x100000010, 42)
    assert bs.read_word(0x100000010) == 42
    # sub-word addresses alias to their word
    assert bs.read_word(0x100000013) == 42


def test_line_read_and_write():
    bs = BackingStore()
    base = 0x100000000
    bs.write_line(base, {base: 1, base + WORD_BYTES: 2})
    words = bs.read_line(base, LINE_BYTES)
    assert words == {base: 1, base + WORD_BYTES: 2}
    # zero words are omitted from the line image
    assert base + 2 * WORD_BYTES not in words


def test_home_audit_counts_per_node():
    space = AddressSpace(4)
    bs = BackingStore()
    for node in (0, 0, 2):
        var = space.alloc(f"v{node}{bs.writes}", home_node=node)
        bs.write_word(var.addr, 1)
    audit = bs.home_audit()
    assert audit[0] == 2
    assert audit[2] == 1


def test_access_counters():
    bs = BackingStore()
    bs.write_word(0x100000000, 5)
    bs.read_word(0x100000000)
    bs.read_line(0x100000000)
    assert bs.writes == 1
    assert bs.reads == 2
