#!/usr/bin/env python
"""(Re)capture or verify the golden determinism-parity fingerprints.

Capture writes ``tests/integration/golden/parity_<P>.json`` — the exact
cycle counts, per-kind message counts, and kernel event counts every
mechanism must reproduce (see :mod:`repro.harness.parity`).  Only rerun
a capture when simulated *behaviour* intentionally changes; a pure
performance change to the kernel or protocol data structures must leave
the cycle and message fingerprints alone (batched delivery may shrink
``events_dispatched`` — that field documents the kernel generation).

    PYTHONPATH=src python tools/capture_parity.py
    PYTHONPATH=src python tools/capture_parity.py --cpus 512 --barrier-only

``--verify`` re-runs every fingerprint and compares against the golden
file instead of overwriting it, exiting non-zero on drift.  Combined
with ``--pooled`` every fingerprint takes its machine from one
:class:`~repro.core.snapshot.MachinePool`, so all but the first run of
each machine size are rewound from the pristine checkpoint; the check
proves that restored machines replay cycle-for-cycle identically to the
fresh-built goldens::

    PYTHONPATH=src python tools/capture_parity.py --verify --pooled

``--metrics`` attaches the observability layer to every run.  With
``--pooled`` too, it proves a pooled machine carries no state or
observer from one run into the next.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.config.mechanism import Mechanism
from repro.harness.parity import capture_all, diff_documents

GOLDEN_DIR = Path(__file__).resolve().parent.parent / \
    "tests" / "integration" / "golden"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cpus", type=int, default=32)
    parser.add_argument("--out", default=None,
                        help="golden path (default: tests/integration/"
                             "golden/parity_<cpus>.json)")
    parser.add_argument("--barrier-only", action="store_true",
                        help="fingerprint barriers only (large machines: "
                             "lock runs serialize P acquisitions and "
                             "dominate capture time)")
    parser.add_argument("--mechanisms", nargs="+", default=None,
                        choices=[m.value for m in Mechanism],
                        help="restrict to these mechanisms (default: all)")
    parser.add_argument("--verify", action="store_true",
                        help="compare a fresh capture against the golden "
                             "file instead of overwriting it")
    parser.add_argument("--pooled", action="store_true",
                        help="take every machine from one machine pool "
                             "(proves restored == fresh when verifying)")
    parser.add_argument("--metrics", action="store_true",
                        help="attach the observability layer to every "
                             "run; verify-only — proves metrics capture "
                             "is timing-neutral against the unmetered "
                             "goldens")
    parser.add_argument("--backend", default=None,
                        help="event-kernel backend (repro.sim.backends) "
                             "to run on; with --verify, proves the "
                             "backend reproduces the reference goldens "
                             "byte-identically (composes with --pooled "
                             "and --metrics)")
    args = parser.parse_args(argv)

    out = Path(args.out) if args.out else \
        GOLDEN_DIR / f"parity_{args.cpus}.json"
    if args.metrics and not args.verify:
        parser.error("--metrics is verify-only: goldens are captured "
                     "unmetered (metrics must not move them)")
    if args.backend not in (None, "reference") and not args.verify:
        parser.error("--backend is verify-only: goldens are captured on "
                     "the reference backend (the single source of truth "
                     "every backend must reproduce)")
    if args.backend is not None:
        from repro.sim.backends import resolve_backend_name
        resolve_backend_name(args.backend)  # fail loudly on a typo

    pool = None
    if args.pooled:
        from repro.core.snapshot import MachinePool
        pool = MachinePool()

    mechanisms = None
    if args.mechanisms:
        mechanisms = [Mechanism(v) for v in args.mechanisms]

    doc = capture_all(n_processors=args.cpus, mechanisms=mechanisms,
                      pool=pool,
                      barrier_only=args.barrier_only,
                      metrics=args.metrics, backend=args.backend)

    if args.verify:
        golden = json.loads(out.read_text())
        if mechanisms is not None:
            golden = dict(golden)
            golden["fingerprints"] = {
                m.value: golden["fingerprints"][m.value]
                for m in mechanisms}
        drift = diff_documents(golden, doc)
        label = "pooled" if args.pooled else "fresh"
        if args.metrics:
            label = f"metered {label}"
        if args.backend is not None:
            from repro.sim.backends import accel_implementation
            impl = (f" ({accel_implementation()})"
                    if args.backend == "accel" else "")
            label = f"{label} {args.backend}-backend{impl}"
        if drift:
            print(f"FAIL: {label} capture drifted from {out}:")
            for line in drift:
                print(f"  {line}")
            return 1
        n = len(doc["fingerprints"])
        print(f"OK: {label} capture matches {out} ({n} mechanisms)")
        return 0

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(doc['fingerprints'])} mechanisms)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
