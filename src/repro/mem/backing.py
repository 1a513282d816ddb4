"""Functional backing store: the canonical memory image.

Holds the value of every word *as seen by memory* (DRAM).  Dirty cached
copies may be newer; the coherence protocol is responsible for writing
them back (and the test suite checks it does).  Values default to zero —
matching the zero-initialized data segment the paper's microbenchmarks
assume.
"""

from __future__ import annotations

from repro.mem.address import WORD_BYTES, home_of, word_base


class BackingStore:
    """Word-granular value store for one machine (all homes)."""

    def __init__(self) -> None:
        self._words: dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    def read_word(self, addr: int) -> int:
        """Value of the word containing ``addr`` (0 if never written)."""
        self.reads += 1
        return self._words.get(word_base(addr), 0)

    def write_word(self, addr: int, value: int) -> None:
        self.writes += 1
        self._words[word_base(addr)] = value

    def read_line(self, line_addr: int, line_bytes: int = 128) -> dict[int, int]:
        """All (word_addr -> value) pairs in the line, omitting zeros."""
        self.reads += 1
        base = word_base(line_addr)
        words = self._words
        # a plain loop: cheaper per call than the equivalent comprehension
        out = {}
        for w in range(base, base + line_bytes, WORD_BYTES):
            if w in words:
                out[w] = words[w]
        return out

    def write_line(self, line_addr: int, words: dict[int, int]) -> None:
        """Write back a set of (word_addr -> value) pairs."""
        self.writes += 1
        for addr, value in words.items():
            self._words[word_base(addr)] = value

    def home_audit(self) -> dict[int, int]:
        """Count of written words per home node.

        A test oracle: the simulator never calls it; tests use it to
        check where a sync algorithm placed its variables.
        """
        counts: dict[int, int] = {}
        for addr in self._words:
            node = home_of(addr)
            counts[node] = counts.get(node, 0) + 1
        return counts
