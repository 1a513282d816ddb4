"""Export schema for metrics snapshots, and a validator that reads it.

The JSON-Schema documents (:data:`SNAPSHOT_JSON_SCHEMA`,
:data:`EXPORT_JSON_SCHEMA`) describe the file written by
``repro-experiments --metrics-out``; CI validates every smoke sweep
against them.  The toolchain must not grow dependencies, so validation
is a small walker over the keyword subset the documents use
(``const``, ``type``, ``required``, ``properties``,
``additionalProperties``, ``items``); ``$schema`` and ``title`` are
annotations.  A keyword outside that subset would be ignored, so one
added to the documents needs a line in :func:`_walk`.  Run it as::

    python -m repro.obs.schema out.json

which exits non-zero listing every violation.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from repro.obs.registry import SNAPSHOT_SCHEMA
from repro.obs.snapshot import EXPORT_SCHEMA

_NUM = {"type": "number"}
_COUNTER_MAP = {"type": "object", "additionalProperties": _NUM}

#: JSON-Schema (draft 2020-12 style) for one registry snapshot
SNAPSHOT_JSON_SCHEMA: dict = {
    "type": "object",
    "required": ["schema", "counters", "gauges", "histograms"],
    "properties": {
        "schema": {"const": SNAPSHOT_SCHEMA},
        "counters": _COUNTER_MAP,
        "gauges": _COUNTER_MAP,
        "histograms": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["count", "sum", "min", "max", "buckets"],
                "properties": {
                    "count": _NUM,
                    "sum": _NUM,
                    "min": _NUM,
                    "max": _NUM,
                    "buckets": _COUNTER_MAP,
                },
            },
        },
        "series": {
            "type": "array",
            "items": {"type": "object", "required": ["t"], "additionalProperties": _NUM},
        },
        "critical_path": {
            "type": "object",
            "required": ["episodes", "total_cycles", "segments"],
            "properties": {
                "episodes": _NUM,
                "total_cycles": _NUM,
                "segments": _COUNTER_MAP,
            },
        },
    },
}

#: JSON-Schema for the ``--metrics-out`` export document
EXPORT_JSON_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "repro.obs metrics export",
    "type": "object",
    "required": ["schema", "tool", "points", "aggregate"],
    "properties": {
        "schema": {"const": EXPORT_SCHEMA},
        "tool": {"type": "string"},
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "metrics"],
                "properties": {
                    "label": {"type": "string"},
                    "metrics": SNAPSHOT_JSON_SCHEMA,
                },
            },
        },
        "aggregate": SNAPSHOT_JSON_SCHEMA,
        "runner": _COUNTER_MAP,
        "notes": {"type": "string"},
    },
}


# ---------------------------------------------------------------------------
# validation: one walker over the schema subset the documents use
# ---------------------------------------------------------------------------

_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float)}


def _walk(schema: dict, value: Any, path: str, errors: list[str]) -> None:
    """Append to ``errors`` every way ``value`` at ``path`` breaks ``schema``."""
    expected = schema.get("const", value)
    if value != expected:
        errors.append(f"{path}: expected {expected!r}, got {value!r}")
        return
    kind = schema.get("type")
    if kind and (isinstance(value, bool) or not isinstance(value, _TYPES[kind])):
        errors.append(f"{path}: expected {kind}, got {type(value).__name__}")
        return
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}.{key}: missing")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, item in value.items():
            sub = props.get(key, extra)
            if sub is not None:
                _walk(sub, item, f"{path}.{key}", errors)
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _walk(schema["items"], item, f"{path}[{i}]", errors)


def validate_snapshot(snap: Any, path: str = "$") -> list[str]:
    """Errors in one registry snapshot against :data:`SNAPSHOT_JSON_SCHEMA` ([] = valid)."""
    errors: list[str] = []
    _walk(SNAPSHOT_JSON_SCHEMA, snap, path, errors)
    return errors


def validate_export(doc: Any) -> list[str]:
    """Errors in a ``--metrics-out`` document against :data:`EXPORT_JSON_SCHEMA` ([] = valid)."""
    errors: list[str] = []
    _walk(EXPORT_JSON_SCHEMA, doc, "$", errors)
    return errors


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.schema EXPORT.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        doc = json.load(fh)
    errors = validate_export(doc)
    if errors:
        for err in errors:
            print(f"INVALID {err}", file=sys.stderr)
        return 1
    n_points = len(doc.get("points", []))
    counters = len(doc.get("aggregate", {}).get("counters", {}))
    print(f"valid: {argv[0]} ({n_points} points, {counters} aggregate counters)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
