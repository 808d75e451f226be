"""Tests for the sweep engine: parallel fan-out, the on-disk result
cache, and the determinism guarantee that ties them together."""

import dataclasses
import json
import os

import pytest

from repro.core import variants
from repro.experiments.engine import (
    CACHE_VERSION,
    ResultCache,
    default_cache_dir,
    parallel_map,
    run_trials,
    trial_fingerprint,
)
from repro.experiments.harness import TrialResult, run_trial
from repro.experiments.spec import TrialSpec
from repro.experiments.results import trial_from_dict, trial_to_dict

#: Short but non-trivial trials: long enough that drops/latency fields
#: are populated, short enough for the full variant matrix.
FAST = dict(duration_s=0.05, warmup_s=0.02)


def _specs(config, rates, **fields):
    """One spec per rate, the shape of a figure series."""
    return [TrialSpec(config, rate, **dict(FAST, **fields)) for rate in rates]


VARIANTS = {
    "unmodified": variants.unmodified(),
    "screend": variants.unmodified(screend=True),
    "no_polling": variants.modified_no_polling(),
    "polling": variants.polling(quota=5),
    "polling_feedback": variants.polling(quota=10, screend=True, feedback=True),
    "clocked": variants.clocked(),
    "high_ipl": variants.high_ipl(quota=10),
}


# ----------------------------------------------------------------------
# Determinism: serial == parallel == cached, for every kernel variant
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_serial_and_parallel_sweeps_identical(name):
    config = VARIANTS[name]
    rates = (2_000, 8_000)
    serial = run_trials(_specs(config, rates))
    parallel = run_trials(_specs(config, rates), jobs=4)
    assert serial == parallel  # dataclass equality: every field, exactly


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_cold_and_warm_cache_identical(name, tmp_path):
    config = VARIANTS[name]
    rates = (2_000, 8_000)
    cold = run_trials(_specs(config, rates), cache=True, cache_dir=tmp_path)
    warm = run_trials(_specs(config, rates), cache=True, cache_dir=tmp_path)
    assert cold == warm
    uncached = run_trials(_specs(config, rates))
    assert cold == uncached


def test_warm_run_does_not_recompute(tmp_path):
    config = variants.unmodified()
    cache = ResultCache(tmp_path)
    run_trials(_specs(config, (1_000,)), cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    run_trials(_specs(config, (1_000,)), cache=cache)
    assert (cache.hits, cache.misses) == (1, 1)


def test_results_preserve_rate_order(tmp_path):
    config = variants.polling(quota=5)
    rates = (8_000, 1_000, 12_000, 3_000)
    results = run_trials(
        _specs(config, rates), jobs=3, cache=True, cache_dir=tmp_path
    )
    assert [r.target_rate_pps for r in results] == list(rates)


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------

def test_fingerprint_covers_config_kwargs_and_version(monkeypatch):
    def key(config, rate, **fields):
        return trial_fingerprint(TrialSpec(config, rate, **dict(FAST, **fields)))

    base = key(variants.unmodified(), 1_000.0)
    assert base == key(variants.unmodified(), 1_000.0, seed=0)
    assert base != key(variants.unmodified(screend=True), 1_000.0)
    assert base != key(variants.unmodified(), 2_000.0)
    assert base != key(variants.unmodified(), 1_000.0, seed=1)
    monkeypatch.setattr(
        "repro.experiments.engine.CACHE_VERSION", CACHE_VERSION + "-next"
    )
    assert base != key(variants.unmodified(), 1_000.0)


def test_fingerprint_sees_cost_model_changes():
    cheap = variants.unmodified()
    fast_cpu = variants.unmodified(costs=cheap.costs.scaled(0.5))
    assert trial_fingerprint(TrialSpec(cheap, 1_000.0)) != trial_fingerprint(
        TrialSpec(fast_cpu, 1_000.0)
    )


def test_version_skew_reads_as_miss(tmp_path, monkeypatch):
    config = variants.unmodified()
    cache = ResultCache(tmp_path)
    [spec] = _specs(config, (1_000,))
    [result] = run_trials([spec], cache=cache)
    key = trial_fingerprint(spec)
    entry = json.loads(cache.path(key).read_text())
    entry["version"] = "0-stale"
    cache.path(key).write_text(json.dumps(entry))
    assert cache.get(key) is None


def test_corrupt_cache_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.path("deadbeef").write_text("{not json")
    assert cache.get("deadbeef") is None


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
    assert default_cache_dir() == tmp_path / "override"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro-livelock"


# ----------------------------------------------------------------------
# TrialResult (de)serialization
# ----------------------------------------------------------------------

def test_trial_roundtrip_is_lossless():
    trial = run_trial(TrialSpec(variants.polling(quota=5), 10_000, **FAST))
    assert trial.drops and trial.latency_us  # exercise the dict fields
    data = json.loads(json.dumps(trial_to_dict(trial)))
    assert trial_from_dict(data) == trial


def test_trial_from_dict_rejects_unknown_fields():
    trial = run_trial(TrialSpec(variants.unmodified(), 0, **FAST))
    data = trial_to_dict(trial)
    data["bogus"] = 1
    with pytest.raises(KeyError):
        trial_from_dict(data)


# ----------------------------------------------------------------------
# run_trials / parallel_map mechanics
# ----------------------------------------------------------------------

def test_run_trials_mixes_cached_and_fresh(tmp_path):
    config = variants.unmodified()
    run_trials(_specs(config, (1_000,)), cache=True, cache_dir=tmp_path)
    results = run_trials(
        _specs(config, (1_000, 3_000)), jobs=2, cache=True, cache_dir=tmp_path
    )
    assert [r.target_rate_pps for r in results] == [1_000, 3_000]
    assert results == run_trials(_specs(config, (1_000, 3_000)))


def test_run_trials_heterogeneous_specs():
    specs = [
        TrialSpec(variants.unmodified(), 1_000.0, **FAST),
        TrialSpec(variants.polling(quota=5), 8_000.0, with_compute=True, **FAST),
    ]
    serial = run_trials(specs)
    parallel = run_trials(specs, jobs=2)
    assert serial == parallel
    assert serial[1].user_cpu_share is not None


def test_parallel_map_preserves_order():
    assert parallel_map(_square, [3, 1, 2], jobs=3) == [9, 1, 4]
    assert parallel_map(_square, [], jobs=3) == []
    assert parallel_map(_square, [5]) == [25]


def _square(x):
    return x * x
