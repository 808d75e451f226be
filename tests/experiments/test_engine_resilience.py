"""Sweep-engine resilience: crashed workers, hung trials, corrupt cache.

The engine's own failure seam (the private ``run_trials(_chaos=...)``,
keyed by spec index) injects worker-process failures the same way :mod:`repro.faults`
injects hardware failures — deterministically, from the test.
"""

import json
import os

import pytest

from repro.core import variants
from repro.experiments.engine import (
    CACHE_VERSION,
    ResultCache,
    SweepError,
    TrialFailure,
    run_trials,
    trial_fingerprint,
)
from repro.experiments.harness import TrialResult, run_trial
from repro.experiments.spec import TrialSpec
from repro.faults import CANNED_PLANS

CONFIG = variants.polling()
KW = dict(duration_s=0.03, warmup_s=0.01)
FAST = dict(jobs=2, retry_backoff_s=0.05)


def _spec(rate, **fields):
    return TrialSpec(CONFIG, rate, **dict(KW, **fields))


# ----------------------------------------------------------------------
# Graceful degradation (strict=False)
# ----------------------------------------------------------------------


def test_worker_crash_is_retried_and_recovers(tmp_path):
    flag = str(tmp_path / "crashed-once")
    results = run_trials(
        [_spec(3_000), _spec(5_000)],
        _chaos={0: {"crash_flag": flag}},
        timeout_s=60,
        retries=2,
        strict=False,
        **FAST
    )
    # First attempt died (the flag file proves it), the retry succeeded.
    assert os.path.exists(flag)
    assert all(isinstance(r, TrialResult) for r in results)


def test_hung_trial_becomes_timeout_failure_in_place():
    results = run_trials(
        [_spec(3_000), _spec(5_000)],
        _chaos={0: {"hang_s": 60}},
        timeout_s=0.8,
        retries=1,
        strict=False,
        **FAST
    )
    failure, ok = results
    assert isinstance(failure, TrialFailure)
    assert failure.kind == "timeout"
    assert failure.attempts == 2  # initial + one retry
    assert failure.target_rate_pps == 3_000
    # The healthy sibling still produced its result, in its slot.
    assert isinstance(ok, TrialResult)
    assert ok.target_rate_pps == 5_000


def test_deterministic_trial_error_is_not_retried():
    [failure] = run_trials(
        [_spec(3_000)],
        _chaos={0: {"raise": True}},
        strict=False,
        **FAST
    )
    assert isinstance(failure, TrialFailure)
    assert failure.kind == "error"
    assert failure.attempts == 1
    assert "chaos" in failure.error


def test_serial_sweep_degrades_gracefully_too():
    results = run_trials(
        [_spec(3_000), _spec(5_000)],
        strict=False,
        _chaos={0: {"raise": True}, 1: {"raise": True}},
    )
    assert all(isinstance(r, TrialFailure) for r in results)


# ----------------------------------------------------------------------
# Fail-fast (strict=True, the library default)
# ----------------------------------------------------------------------


def test_strict_reraises_deterministic_errors():
    with pytest.raises(RuntimeError, match="chaos"):
        run_trials([_spec(3_000)], _chaos={0: {"raise": True}})


def test_strict_raises_sweep_error_on_exhausted_timeout():
    with pytest.raises(SweepError) as info:
        run_trials(
            [_spec(3_000)],
            _chaos={0: {"hang_s": 60}},
            timeout_s=0.5,
            retries=0,
            **FAST
        )
    assert info.value.failure.kind == "timeout"


# ----------------------------------------------------------------------
# Fingerprints and the fault plan
# ----------------------------------------------------------------------


def test_fault_plan_enters_the_fingerprint():
    clean = trial_fingerprint(_spec(3_000))
    faulty = trial_fingerprint(_spec(3_000, fault_plan=CANNED_PLANS["lossy-nic"]))
    other = trial_fingerprint(
        _spec(3_000, fault_plan=CANNED_PLANS["flaky-clock"])
    )
    assert len({clean, faulty, other}) == 3


def test_plan_name_and_object_share_a_fingerprint():
    by_name = trial_fingerprint(_spec(3_000, fault_plan="lossy-nic"))
    by_object = trial_fingerprint(
        _spec(3_000, fault_plan=CANNED_PLANS["lossy-nic"])
    )
    assert by_name == by_object


def test_cached_fault_trial_round_trips(tmp_path):
    spec = [_spec(4_000, fault_plan="lossy-nic", watchdog=True)]
    [first] = run_trials(spec, cache=True, cache_dir=tmp_path)
    [second] = run_trials(spec, cache=True, cache_dir=tmp_path)
    assert first == second
    assert second.faults is not None
    assert second.watchdog is not None


# ----------------------------------------------------------------------
# Cache quarantine: corrupt entries are evicted and recomputed
# ----------------------------------------------------------------------


def _cache_key_and_path(store):
    key = trial_fingerprint(_spec(3_000))
    return key, store.path(key)


@pytest.mark.parametrize(
    "garbage",
    [
        b"",  # truncated to nothing
        b"{\"version\": \"" + CACHE_VERSION.encode() + b"\", \"result\": {",  # cut off mid-object
        b"\x00\xff\x00 not json at all",
        json.dumps({"version": "0", "result": {}}).encode(),  # version skew
        json.dumps({"version": CACHE_VERSION, "result": {"variant": "x", "bogus_field": 1}}).encode(),  # schema skew
    ],
    ids=["empty", "truncated", "binary", "version-skew", "schema-skew"],
)
def test_corrupt_cache_entry_is_evicted_and_recomputed(tmp_path, garbage):
    store = ResultCache(tmp_path)
    key, path = _cache_key_and_path(store)
    path.write_bytes(garbage)

    [result] = run_trials([_spec(3_000)], cache=store)
    assert isinstance(result, TrialResult)
    assert store.evictions == 1
    assert store.hits == 0
    # The recomputed result replaced the garbage with a loadable entry.
    assert store.get(key) == result
    assert store.hits == 1


def test_quarantine_removes_the_bad_file_even_without_recompute(tmp_path):
    store = ResultCache(tmp_path)
    key, path = _cache_key_and_path(store)
    path.write_bytes(b"garbage")
    assert store.get(key) is None
    assert not path.exists()
    assert store.evictions == 1


def test_missing_entry_is_a_plain_miss_not_an_eviction(tmp_path):
    store = ResultCache(tmp_path)
    assert store.get("0" * 64) is None
    assert store.misses == 1
    assert store.evictions == 0


def test_cache_round_trip_includes_new_fields(tmp_path):
    store = ResultCache(tmp_path)
    result = run_trial(_spec(3_000))
    store.put("k" * 64, result)
    loaded = store.get("k" * 64)
    assert loaded == result
    assert loaded.watchdog is None and loaded.faults is None
