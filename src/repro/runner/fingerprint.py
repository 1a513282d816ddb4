"""Code-version fingerprint for the result cache.

A cached simulator result is only valid for the code that produced it.
Rather than trusting git state (the working tree may be dirty) we hash
the *contents* of every ``repro`` source file, Python and C alike; any
edit to the simulator, its compiled core, workloads, or runner
invalidates every cached entry, while edits to docs, tests, or
benchmarks leave the cache warm.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

_cached: Optional[str] = None


def package_root() -> Path:
    import repro
    return Path(repro.__file__).resolve().parent


def code_fingerprint(refresh: bool = False) -> str:
    """Hex digest over every ``repro/**/*.py`` and ``repro/**/*.c``
    file's path and content.

    The environment variable ``REPRO_CODE_FINGERPRINT`` overrides the
    computed value (used by tests and by CI jobs that want deliberate
    cache invalidation).
    """
    override = os.environ.get("REPRO_CODE_FINGERPRINT")
    if override:
        return override
    global _cached
    if _cached is not None and not refresh:
        return _cached
    root = package_root()
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.suffix in (".py", ".c")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    _cached = digest.hexdigest()
    return _cached
