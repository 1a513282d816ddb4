"""Set-associative cache with true-LRU replacement.

Pure data structure — no timing, no simulator dependency.  The cache
controller (:mod:`repro.coherence.client`) charges latencies and runs the
protocol; this class answers "is it here, in what state, and what gets
evicted if I bring this in".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.cache.line import CacheLine
from repro.cache.state import (
    LINE_EXCLUSIVE, LINE_INVALID, LINE_SHARED, LineState,
)
from repro.config.parameters import CacheConfig


class SetAssociativeCache:
    """A ``ways``-way set-associative cache of ``n_sets`` sets.

    Examples
    --------
    >>> from repro.config.parameters import CacheConfig
    >>> c = SetAssociativeCache(CacheConfig(1024, 2, 128, 1))
    >>> c.n_sets
    4
    """

    __slots__ = ("config", "name", "n_sets", "line_bytes", "_sets", "_stamp",
                 "hits", "misses", "evictions", "invalidations",
                 "word_updates")

    def __init__(self, config: CacheConfig, name: str = "") -> None:
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self.line_bytes = config.line_bytes
        # set index -> {line_addr: CacheLine}; per-set dicts keep lookups
        # O(1).  Sets materialize lazily on first touch: a 256-CPU machine
        # holds ~half a million sets and a sync-heavy workload touches a
        # handful, so eager allocation used to dominate Machine() setup.
        self._sets: dict[int, dict[int, CacheLine]] = defaultdict(dict)
        # plain int LRU clock (not itertools.count: snapshot/restore
        # must capture and rewind it)
        self._stamp = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.word_updates = 0

    # ------------------------------------------------------------------
    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """The resident, valid line containing ``addr``, or None.

        ``touch`` updates LRU; pass False for coherence probes so remote
        traffic does not perturb the local replacement order.
        """
        lb = self.line_bytes
        base = addr - addr % lb
        entry = self._sets.get((base // lb) % self.n_sets)
        line = entry.get(base) if entry is not None else None
        if line is None or line.state is LINE_INVALID:
            return None
        if touch:
            self._stamp += 1
            line.last_use = self._stamp
        return line

    def probe(self, addr: int) -> Optional[CacheLine]:
        """Non-LRU-touching lookup (coherence requests)."""
        return self.lookup(addr, touch=False)

    def install(self, addr: int, state: LineState,
                words: Optional[dict[int, int]] = None
                ) -> tuple[CacheLine, Optional[CacheLine]]:
        """Bring a line in (after a fill) and return ``(line, victim)``.

        ``victim`` is the evicted line (possibly dirty — the caller must
        write it back) or None when a way was free or the line was
        already resident.
        """
        lb = self.line_bytes
        base = addr - addr % lb
        entry = self._sets[(base // lb) % self.n_sets]
        line = entry.get(base)
        if line is not None:
            line.state = state
            if words is not None:
                line.words.update(words)
            self._stamp += 1
            line.last_use = self._stamp
            return line, None
        victim = None
        if len(entry) >= self.config.ways:
            victim_addr = min(entry, key=lambda a: entry[a].last_use)
            victim = entry.pop(victim_addr)
            self.evictions += 1
        self._stamp += 1
        line = CacheLine(base, state, dict(words or {}), False, self._stamp)
        entry[base] = line
        return line, victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Drop the line containing ``addr``; returns it if it was valid."""
        lb = self.line_bytes
        base = addr - addr % lb
        entry = self._sets.get((base // lb) % self.n_sets)
        line = entry.pop(base, None) if entry is not None else None
        if line is not None and line.state is not LINE_INVALID:
            self.invalidations += 1
            return line
        return None

    def downgrade(self, addr: int) -> Optional[CacheLine]:
        """EXCLUSIVE -> SHARED (intervention); returns the line if present."""
        line = self.probe(addr)
        if line is not None and line.state is LINE_EXCLUSIVE:
            line.state = LINE_SHARED
            line.dirty = False
        return line

    def apply_word_update(self, addr: int, value: int) -> bool:
        """Patch one word pushed by a fine-grained put; True if applied."""
        line = self.probe(addr)
        if line is None:
            return False
        line.patch_word(addr, value)
        self.word_updates += 1
        return True

    # ------------------------------------------------------------------
    def resident_lines(self) -> list[CacheLine]:
        """All valid lines (diagnostics / property tests)."""
        return [ln for s in self._sets.values() for ln in s.values()
                if ln.state is not LINE_INVALID]

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def record_hit(self) -> None:
        self.hits += 1

    def record_miss(self) -> None:
        self.misses += 1
