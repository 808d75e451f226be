"""TrialSpec: validation, normalisation, fingerprints, and being the
only trial description the runner and the engine accept."""

import pytest

from repro.core import variants
from repro.experiments.engine import (
    ResultCache,
    _canonical_fields,
    run_trials,
    trial_fingerprint,
)
from repro.experiments.harness import run_trial
from repro.experiments.spec import (
    DEFAULT_DURATION_S,
    DEFAULT_WARMUP_S,
    TrialSpec,
)
from repro.faults import canned_plan
from repro.hw.machine import MachineSpec

FAST = dict(duration_s=0.02, warmup_s=0.01)


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------


def test_defaults_mirror_run_trial():
    spec = TrialSpec(variants.unmodified(), 4_000)
    assert spec.duration_s == DEFAULT_DURATION_S
    assert spec.warmup_s == DEFAULT_WARMUP_S
    assert spec.seed == 0
    assert spec.workload == "constant"
    assert spec.trace is False


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rate_pps=-1),
        dict(duration_s=-0.1),
        dict(warmup_s=-0.1),
        dict(workload="fractal"),
        dict(burst_size=0),
        dict(trace_capacity=0),
    ],
)
def test_invalid_fields_rejected(kwargs):
    base = dict(config=variants.unmodified(), rate_pps=1_000)
    base.update(kwargs)
    with pytest.raises((ValueError, TypeError)):
        TrialSpec(**base)


def test_config_must_be_a_kernel_config():
    with pytest.raises(TypeError):
        TrialSpec({"variant": "unmodified"}, 1_000)


def test_from_kwargs_rejects_unknown_keywords():
    with pytest.raises(TypeError, match="sedd"):
        TrialSpec(variants.unmodified(), 1_000, sedd=3)


def test_spec_is_frozen():
    spec = TrialSpec(variants.unmodified(), 1_000)
    with pytest.raises(Exception):
        spec.seed = 7


# ----------------------------------------------------------------------
# Equality, hashing and fingerprints agree
# ----------------------------------------------------------------------


def test_direct_construction_derives_explicit_from_non_defaults():
    # The fingerprint hashes exactly the fields that differ from their
    # defaults, however the spec was spelled.
    spec = TrialSpec(variants.unmodified(), 2_000, seed=5)
    assert _canonical_fields(spec) == {"seed": 5}
    assert _canonical_fields(spec.replace(seed=0)) == {}


def test_equality_ignores_how_defaults_were_spelled():
    config = variants.unmodified()
    spelled = TrialSpec.from_kwargs(config, 2_000, seed=0)
    omitted = TrialSpec(config, 2_000)
    assert spelled == omitted
    assert spelled.fingerprint() == omitted.fingerprint()


@pytest.mark.parametrize(
    "left, right",
    [
        (dict(seed=0), dict()),
        (dict(duration_s=DEFAULT_DURATION_S, warmup_s=DEFAULT_WARMUP_S), dict()),
        (dict(machine=MachineSpec()), dict(machine=None)),
        (dict(machine=MachineSpec(cores=1)), dict()),
        (dict(fault_plan="lossy-nic"), dict(fault_plan=canned_plan("lossy-nic"))),
    ],
    ids=["seed-0", "default-timing", "single-core-machine", "cores-1",
         "plan-name"],
)
def test_equal_specs_share_hash_and_fingerprint(left, right):
    config = variants.unmodified()
    # The keyword-dict spelling on the left, the constructor on the right.
    a = TrialSpec.from_kwargs(config, 2_000, **left)
    b = TrialSpec(config, 2_000, **right)
    assert a == b
    assert hash(a) == hash(b)
    assert a.fingerprint() == b.fingerprint()


def test_normalisation_resolves_machine_and_plan():
    config = variants.unmodified()
    assert TrialSpec(config, 2_000, machine=MachineSpec()).machine is None
    spec = TrialSpec(config, 2_000, fault_plan="lossy-nic")
    assert spec.fault_plan == canned_plan("lossy-nic")


def test_replace_merges_explicit_sets():
    spec = TrialSpec(variants.unmodified(), 2_000, seed=4)
    bumped = spec.replace(rate_pps=3_000, duration_s=0.1)
    assert bumped == TrialSpec(
        variants.unmodified(), 3_000, seed=4, duration_s=0.1
    )
    with pytest.raises(TypeError, match="sedd"):
        spec.replace(sedd=1)
    with pytest.raises(ValueError):
        spec.replace(rate_pps=-1)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def test_fingerprint_matches_legacy_form():
    # from_kwargs, the keyword-dict spelling, is the constructor.
    config = variants.polling(quota=5)
    kwargs = {"duration_s": 0.1, "seed": 2}
    spec = TrialSpec.from_kwargs(config, 6_000, **kwargs)
    assert spec == TrialSpec(config, 6_000, duration_s=0.1, seed=2)
    assert spec.fingerprint() == trial_fingerprint(
        TrialSpec(config, 6_000, **kwargs)
    )
    assert trial_fingerprint(spec) == spec.fingerprint()


def test_fingerprint_sees_every_non_default_field():
    config = variants.polling(quota=5)
    base = TrialSpec(config, 6_000, duration_s=0.1, seed=2)
    keys = {
        base.fingerprint(),
        base.replace(seed=3).fingerprint(),
        base.replace(watchdog=True).fingerprint(),
        base.replace(machine=MachineSpec(cores=2)).fingerprint(),
        base.replace(fault_plan="lossy-nic").fingerprint(),
    }
    assert len(keys) == 5


# ----------------------------------------------------------------------
# TrialSpec is the only way in
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda config: run_trial(config, 2_000, **FAST),
        lambda config: run_trial(config),
        lambda config: run_trials([(config, 2_000, dict(FAST))]),
        lambda config: trial_fingerprint(config, 2_000, {}),
        lambda config: trial_fingerprint((config, 2_000, {})),
    ],
    ids=["run_trial-kwargs", "run_trial-config", "run_trials-tuple",
         "fingerprint-args", "fingerprint-tuple"],
)
def test_raw_forms_raise_type_error(call):
    with pytest.raises(TypeError):
        call(variants.unmodified())


def test_run_trial_accepts_spec_and_rejects_ambiguity():
    config = variants.unmodified()
    spec = TrialSpec(config, 2_000, **FAST)
    assert run_trial(spec).target_rate_pps == 2_000
    with pytest.raises(TypeError):
        run_trial(spec, 2_000)  # the rate lives in the spec
    with pytest.raises(TypeError, match="TrialSpec"):
        run_trial(config)


def test_run_trials_mixed_specs_and_tuples():
    config = variants.unmodified()
    mixed = [
        TrialSpec(config, 1_000, **FAST),
        (config, 2_000, dict(FAST)),
    ]
    with pytest.raises(TypeError, match="TrialSpec"):
        run_trials(mixed)


def test_equal_specs_hit_the_same_cache_entry(tmp_path):
    config = variants.unmodified()
    cache = ResultCache(tmp_path)
    [cold] = run_trials([TrialSpec(config, 1_000, **FAST)], cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    [warm] = run_trials(
        [TrialSpec(config, 1_000, seed=0, machine=MachineSpec(), **FAST)],
        cache=cache,
    )
    assert (cache.hits, cache.misses) == (1, 1)
    assert warm == cold == run_trial(TrialSpec(config, 1_000, **FAST))


def test_traced_spec_round_trips_through_the_cache(tmp_path):
    # ``trace=True`` is a plain flag: cacheable, and the timeline must
    # survive the cache byte-for-byte.
    spec = TrialSpec(
        variants.unmodified(), 12_000, trace=True, **FAST
    )
    cache = ResultCache(tmp_path)
    [cold] = run_trials([spec], cache=cache)
    [warm] = run_trials([spec], cache=cache)
    assert (cache.hits, cache.misses) == (1, 1)
    assert cold.timeline is not None
    assert warm == cold


def test_caller_owned_buffer_runs_in_process_and_uncached(tmp_path):
    from repro.trace import TraceBuffer

    buf = TraceBuffer(capacity=4096)
    spec = TrialSpec(
        variants.unmodified(), 6_000, trace=buf, **FAST
    )
    cache = ResultCache(tmp_path)
    [result] = run_trials([spec], cache=cache, jobs=2)
    # The buffer cannot cross a process or cache boundary, so the trial
    # ran here: the caller's buffer holds the records.
    assert (cache.hits, cache.misses) == (0, 0)
    assert len(buf) > 0
    assert result.timeline is not None


def test_spec_run_convenience():
    spec = TrialSpec(variants.unmodified(), 1_000, **FAST)
    assert spec.run() == run_trial(spec)
