"""Content-addressed on-disk cache of simulation results.

Every cache entry is keyed by ``sha256(format-version | code-fingerprint
| spec.canonical())`` — re-running an experiment with an identical
configuration and identical simulator code is a disk read, while any
change to either recomputes.  Because the simulator is deterministic, a
cache hit is *exactly* the result a fresh run would produce, so tables
assembled from cached runs are byte-identical to freshly computed ones.

Entries are self-verifying: the pickled payload is stored behind a magic
tag and its own sha256 checksum, and the entry must contain the spec it
claims to answer.  A truncated, bit-flipped, or otherwise undecodable
entry is treated as a miss, deleted, and recomputed — never trusted.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.runner.fingerprint import code_fingerprint
from repro.runner.spec import RunRecord, RunSpec

#: bump when the on-disk entry layout changes
FORMAT_VERSION = 1
_MAGIC = b"RPRC\x01"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-runner``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-runner"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt}


@dataclass
class ResultCache:
    """Content-addressed store of :class:`RunRecord` pickles."""

    root: Path
    #: code-version component of every key; defaults to the live tree's
    fingerprint: str = field(default_factory=code_fingerprint)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    def key_for(self, spec: RunSpec) -> str:
        payload = f"v{FORMAT_VERSION}|{self.fingerprint}|{spec.canonical()}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    def load(self, spec: RunSpec) -> Optional[RunRecord]:
        """Return the cached record for ``spec``, or None.

        Any decoding failure — bad magic, checksum mismatch, unpicklable
        payload, or a record answering a different spec — counts the
        entry as corrupt, deletes it, and reports a miss.
        """
        path = self._path_for(self.key_for(spec))
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        record = self._decode(raw)
        if record is None or record.spec != spec:
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return record

    def store(self, record: RunRecord) -> Path:
        """Write ``record`` atomically; concurrent writers are safe."""
        path = self._path_for(self.key_for(record.spec))
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    @staticmethod
    def _decode(raw: bytes) -> Optional[RunRecord]:
        if not raw.startswith(_MAGIC) or len(raw) < len(_MAGIC) + 32:
            return None
        digest = raw[len(_MAGIC):len(_MAGIC) + 32]
        payload = raw[len(_MAGIC) + 32:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        try:
            record = pickle.loads(payload)
        except Exception:
            return None
        return record if isinstance(record, RunRecord) else None

    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Entries on disk.  A test oracle: the runner never calls it;
        tests use it to check what :meth:`store` and :meth:`clear` did."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
