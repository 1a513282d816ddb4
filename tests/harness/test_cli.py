"""Tests for the repro-experiments CLI."""

import pytest

from repro.harness.cli import main
from repro.runner import RunnerError


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """The CLI caches results by default; keep tests off the user cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))


def test_fig1_exits_zero(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "E7/fig1" in out
    assert "PASS" in out


def test_table2_with_custom_sizes(capsys):
    rc = main(["table2", "--cpus", "4", "8", "--episodes", "1"])
    out = capsys.readouterr().out
    assert "E1/table2" in out
    assert "Paper Table 2" in out
    assert rc in (0, 1)      # shape checks at tiny sizes may be partial


def test_markdown_flag(capsys):
    main(["fig1", "--markdown"])
    out = capsys.readouterr().out
    assert "|" in out and "---:" in out


def test_amo_model_experiment(capsys):
    rc = main(["amo-model", "--cpus", "4", "8", "16", "--episodes", "1"])
    out = capsys.readouterr().out
    assert "t_o" in out
    assert rc == 0


def test_bad_experiment_name_rejected():
    with pytest.raises(SystemExit):
        main(["tablezilla"])


def test_json_export(tmp_path, capsys):
    import json
    out = tmp_path / "results.json"
    main(["fig1", "--json", str(out)])
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload[0]["experiment"] == "E7/fig1"
    assert payload[0]["checks"][0]["passed"] is True
    assert payload[0]["rows"][1][1] == 6       # AMO: six messages


def test_amo_tree_experiment_via_cli(capsys):
    rc = main(["amo-tree", "--cpus", "16", "--episodes", "1"])
    out = capsys.readouterr().out
    assert "amo-tree" in out.lower() or "AMO combining-tree" in out
    assert rc == 0


@pytest.mark.parametrize("experiment", ["table2", "amo-tree"])
def test_unknown_backend_fails_every_experiment(experiment, capsys):
    """amo-tree runs its points through the runner like table2 does, so
    --backend reaches the workload and an unknown name fails the run."""
    with pytest.raises(RunnerError, match="unknown kernel backend"):
        main([experiment, "--cpus", "16", "--episodes", "1",
              "--backend", "nonexistent"])


def test_amo_tree_metrics_export_has_every_point(tmp_path, capsys):
    import json
    from repro.obs import validate_export
    out = tmp_path / "metrics.json"
    assert main(["amo-tree", "--cpus", "16", "--episodes", "1",
                 "--metrics-out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert validate_export(doc) == []
    assert len(doc["points"]) == 3          # flat, then branching 4 and 8


def test_warm_cache_second_invocation_skips_all_simulation(capsys):
    args = ["table2", "--cpus", "4", "--episodes", "1"]
    main(args)
    first = capsys.readouterr()
    assert "0 cache hits" in first.err
    main(args)
    second = capsys.readouterr()
    assert "5 cache hits, 0 executed" in second.err
    # cached tables are byte-identical to freshly computed ones
    assert first.out == second.out


def test_no_cache_flag_disables_caching(capsys):
    args = ["table2", "--cpus", "4", "--episodes", "1", "--no-cache"]
    main(args)
    capsys.readouterr()
    main(args)
    err = capsys.readouterr().err
    assert "0 cache hits, 5 executed" in err


def test_parallel_jobs_match_serial_output(capsys):
    main(["table2", "--cpus", "4", "8", "--episodes", "1", "--no-cache"])
    serial = capsys.readouterr().out
    main(["table2", "--cpus", "4", "8", "--episodes", "1", "--no-cache",
          "--jobs", "2"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_progress_flag_emits_per_point_lines(capsys):
    main(["table2", "--cpus", "4", "--episodes", "1", "--no-cache",
          "--progress"])
    err = capsys.readouterr().err
    assert "[1/5]" in err and "[5/5]" in err
    assert "ev/s" in err


def test_cache_dir_flag_overrides_env(tmp_path, capsys):
    custom = tmp_path / "custom-cache"
    main(["table2", "--cpus", "4", "--episodes", "1",
          "--cache-dir", str(custom)])
    capsys.readouterr()
    assert custom.exists() and any(custom.rglob("*.pkl"))
