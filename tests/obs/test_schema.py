"""The dependency-free schema validator must catch malformed documents."""

import json
import subprocess
import sys

from repro.obs import build_export, validate_export, validate_snapshot
from repro.obs.registry import MetricsRegistry


def good_snapshot():
    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    reg.gauge("g").set(1.5)
    reg.histogram("h").observe(12)
    return reg.snapshot()


def test_valid_snapshot_passes():
    assert validate_snapshot(good_snapshot()) == []


def test_snapshot_missing_section_rejected():
    snap = good_snapshot()
    del snap["counters"]
    assert validate_snapshot(snap)


def test_snapshot_wrong_schema_tag_rejected():
    snap = good_snapshot()
    snap["schema"] = "something/else"
    errors = validate_snapshot(snap)
    assert errors and "schema" in errors[0]


def test_snapshot_non_numeric_counter_rejected():
    snap = good_snapshot()
    snap["counters"]["bad"] = "NaN-ish string"
    assert validate_snapshot(snap)


def test_snapshot_malformed_histogram_rejected():
    snap = good_snapshot()
    snap["histograms"]["h"] = {"count": 1}      # missing sum/min/max/buckets
    assert validate_snapshot(snap)


def test_export_requires_aggregate_and_points():
    doc = build_export([("p", good_snapshot())])
    assert validate_export(doc) == []
    broken = dict(doc)
    del broken["aggregate"]
    assert validate_export(broken)


def test_export_rejects_bad_point_entry():
    doc = build_export([("p", good_snapshot())])
    doc["points"].append({"label": "no metrics key"})
    assert validate_export(doc)


def test_export_rejects_non_numeric_runner_value():
    doc = build_export([("p", good_snapshot())],
                       runner={"runner.cache_hits": "three"})
    assert validate_export(doc)


def test_cli_validator_accepts_good_export(tmp_path):
    doc = build_export([("p", good_snapshot())])
    path = tmp_path / "export.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.schema", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "valid" in proc.stdout


def test_cli_validator_rejects_bad_export(tmp_path):
    path = tmp_path / "export.json"
    path.write_text(json.dumps({"schema": "repro.obs.export/1"}))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.schema", str(path)],
        capture_output=True, text=True)
    assert proc.returncode != 0


def test_cli_validator_runs_its_module_once(tmp_path):
    """Importing ``repro.obs`` must not import ``repro.obs.schema``:
    ``python -m`` would then find it in ``sys.modules``, warn, and run
    the module body a second time."""
    doc = build_export([("p", good_snapshot())])
    path = tmp_path / "export.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.obs.schema", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "valid" in proc.stdout
