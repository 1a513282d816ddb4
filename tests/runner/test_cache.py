"""Result-cache correctness: hits, misses, and corruption handling."""

import pytest

from repro.config.mechanism import Mechanism
from repro.harness.experiments import experiment_table2, run_barrier_suite
from repro.runner import ParallelRunner, ResultCache, RunSpec
from repro.runner.cache import _MAGIC


CPUS = (4, 8)
EPISODES = 1


def make_cache(tmp_path, fingerprint="test-fingerprint"):
    return ResultCache(root=tmp_path / "cache", fingerprint=fingerprint)


def barrier_specs():
    return [RunSpec.barrier(n_processors=p, mechanism=m, episodes=EPISODES)
            for p in CPUS for m in Mechanism]


def test_identical_config_hits_and_reproduces_identical_tables(tmp_path):
    cache = make_cache(tmp_path)
    r1 = ParallelRunner(jobs=1, cache=cache)
    suite1 = run_barrier_suite(CPUS, episodes=EPISODES, runner=r1)
    assert r1.stats.executed == len(barrier_specs())
    assert r1.stats.cache_hits == 0

    r2 = ParallelRunner(jobs=1, cache=make_cache(tmp_path))
    suite2 = run_barrier_suite(CPUS, episodes=EPISODES, runner=r2)
    assert r2.stats.executed == 0, "warm cache must skip all simulation"
    assert r2.stats.cache_hits == len(barrier_specs())

    # byte-identical experiment output from cached results
    assert (experiment_table2(suite1).format()
            == experiment_table2(suite2).format())


def test_changed_parameter_misses(tmp_path):
    cache = make_cache(tmp_path)
    spec = RunSpec.barrier(n_processors=4, mechanism=Mechanism.AMO,
                           episodes=1)
    ParallelRunner(jobs=1, cache=cache).run([spec])
    changed = RunSpec.barrier(n_processors=4, mechanism=Mechanism.AMO,
                              episodes=2)
    assert cache.key_for(spec) != cache.key_for(changed)
    assert cache.load(changed) is None


def test_changed_code_fingerprint_misses(tmp_path):
    cache_a = make_cache(tmp_path, fingerprint="code-v1")
    spec = RunSpec.barrier(n_processors=4, mechanism=Mechanism.AMO,
                           episodes=1)
    ParallelRunner(jobs=1, cache=cache_a).run([spec])
    assert cache_a.load(spec) is not None

    cache_b = make_cache(tmp_path, fingerprint="code-v2")
    assert cache_b.key_for(spec) != cache_a.key_for(spec)
    assert cache_b.load(spec) is None


@pytest.mark.parametrize("corruption", ["flip", "truncate", "garbage",
                                        "empty"])
def test_corrupted_entry_detected_and_recomputed(tmp_path, corruption):
    cache = make_cache(tmp_path)
    spec = RunSpec.barrier(n_processors=4, mechanism=Mechanism.AMO,
                           episodes=1)
    runner = ParallelRunner(jobs=1, cache=cache)
    (clean,) = runner.run([spec])

    path = cache._path_for(cache.key_for(spec))
    raw = path.read_bytes()
    if corruption == "flip":                  # payload bit-flip
        pos = len(raw) - 5
        path.write_bytes(raw[:pos] + bytes([raw[pos] ^ 0xFF])
                         + raw[pos + 1:])
    elif corruption == "truncate":
        path.write_bytes(raw[:len(raw) // 2])
    elif corruption == "garbage":
        path.write_bytes(b"not a cache entry at all")
    else:
        path.write_bytes(b"")

    assert cache.load(spec) is None, "corrupt entry must not be trusted"
    assert cache.stats.corrupt == 1
    assert not path.exists(), "corrupt entry must be evicted"

    (recomputed,) = ParallelRunner(jobs=1, cache=cache).run([spec])
    assert recomputed.cycles_per_episode == clean.cycles_per_episode
    assert path.exists(), "recomputed result must be re-stored"


def test_checksum_guards_payload(tmp_path):
    cache = make_cache(tmp_path)
    spec = RunSpec.barrier(n_processors=4, mechanism=Mechanism.AMO,
                           episodes=1)
    ParallelRunner(jobs=1, cache=cache).run([spec])
    path = cache._path_for(cache.key_for(spec))
    raw = path.read_bytes()
    assert raw.startswith(_MAGIC)
    # valid magic + checksum over a *different* payload still fails,
    # because the embedded digest no longer matches
    path.write_bytes(raw[:len(_MAGIC) + 32] + b"\x00" * 32)
    assert cache.load(spec) is None


def test_entry_answering_wrong_spec_is_rejected(tmp_path):
    """Hash-collision paranoia: a record must contain the asked-for spec."""
    cache = make_cache(tmp_path)
    spec_a = RunSpec.barrier(n_processors=4, mechanism=Mechanism.AMO,
                             episodes=1)
    spec_b = RunSpec.barrier(n_processors=8, mechanism=Mechanism.AMO,
                             episodes=1)
    ParallelRunner(jobs=1, cache=cache).run([spec_a])
    record_a_path = cache._path_for(cache.key_for(spec_a))
    # graft A's (valid, checksummed) entry onto B's key
    wrong = cache._path_for(cache.key_for(spec_b))
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_bytes(record_a_path.read_bytes())
    assert cache.load(spec_b) is None
    assert cache.stats.corrupt == 1


def test_clear_and_entry_count(tmp_path):
    cache = make_cache(tmp_path)
    specs = [RunSpec.barrier(n_processors=4, mechanism=m, episodes=1)
             for m in (Mechanism.AMO, Mechanism.MAO)]
    ParallelRunner(jobs=1, cache=cache).run(specs)
    assert cache.entry_count() == 2
    assert cache.clear() == 2
    assert cache.entry_count() == 0


def test_default_cache_dir_env_override(tmp_path, monkeypatch):
    from repro.runner import default_cache_dir
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    assert default_cache_dir() == tmp_path / "envcache"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir().name == "repro-runner"


def test_live_code_fingerprint_is_stable_and_content_sensitive(monkeypatch):
    from repro.runner.fingerprint import code_fingerprint
    a = code_fingerprint(refresh=True)
    assert a == code_fingerprint()
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "pinned")
    assert code_fingerprint() == "pinned"


def test_code_fingerprint_covers_the_c_core(tmp_path, monkeypatch):
    """Editing a C source under the package root changes the
    fingerprint, so results of the old compiled core stop being served."""
    from repro.runner import fingerprint
    (tmp_path / "sim").mkdir()
    (tmp_path / "__init__.py").write_text("")
    core = tmp_path / "sim" / "_core.c"
    core.write_text("int f(void) { return 1; }\n")
    monkeypatch.delenv("REPRO_CODE_FINGERPRINT", raising=False)
    monkeypatch.setattr(fingerprint, "package_root", lambda: tmp_path)
    monkeypatch.setattr(fingerprint, "_cached", None)
    before = fingerprint.code_fingerprint(refresh=True)
    core.write_text("int f(void) { return 2; }\n")
    assert fingerprint.code_fingerprint(refresh=True) != before
