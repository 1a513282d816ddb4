"""Structured JSONL event log.

An :class:`EventLog` appends one JSON object per line to a file or
file-like stream — the machine-readable companion to the human-oriented
progress output.  Records carry the simulated timestamp when a simulator
is bound, so logs from a run line up with trace spans and sampler
series::

    log = EventLog("run.jsonl", sim=machine.sim)
    log.emit("barrier.episode", index=3, cycles=5120)
    ...
    log.close()

Per-message records are :class:`~repro.trace.TraceRecorder`'s instants;
the log carries run-level events only.  Every record has the shape
``{"t": <cycles or null>, "event": <name>, ...fields}``; consumers can
stream-filter with one ``json.loads`` per line.
"""

from __future__ import annotations

import json
from typing import Any, IO, Optional, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class EventLog:
    """Append-only JSONL writer with optional simulated timestamps."""

    def __init__(self, sink: Union[str, IO[str]],
                 sim: Optional["Simulator"] = None) -> None:
        if isinstance(sink, str):
            self._fh: IO[str] = open(sink, "w")
            self._owns_fh = True
        else:
            self._fh = sink
            self._owns_fh = False
        self.sim = sim
        self.records_written = 0

    # ------------------------------------------------------------------
    def emit(self, event: str, **fields: Any) -> None:
        """Write one record: ``{"t": ..., "event": event, **fields}``."""
        record = {"t": None if self.sim is None else self.sim.now,
                  "event": event}
        record.update(fields)
        self._fh.write(json.dumps(record, default=str) + "\n")
        self.records_written += 1

    # ------------------------------------------------------------------
    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
