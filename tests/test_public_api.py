"""The documented public API surface must exist and be importable."""

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.1.0"


def test_quickstart_symbols_exist():
    # Everything README.md's quickstart uses.
    assert callable(repro.run_trial)
    assert callable(repro.variants.unmodified)
    assert callable(repro.variants.polling)
    assert callable(repro.variants.high_ipl)
    assert callable(repro.variants.clocked)
    assert callable(repro.variants.modified_no_polling)


def test_trace_and_spec_symbols_exist():
    # The 1.1.0 additions: the TrialSpec front door and the trace
    # subsystem (buffer, timeline, exporters).
    assert callable(repro.TrialSpec)
    assert callable(repro.TraceBuffer)
    assert callable(repro.Timeline)
    assert callable(repro.to_perfetto)
    assert callable(repro.perfetto_json)
    assert callable(repro.write_perfetto)
    assert callable(repro.trace_to_csv)
    assert callable(repro.timeline_to_csv)
    assert callable(repro.experiments.TrialSpec)
    assert callable(repro.experiments.trial_fingerprint)
    assert callable(repro.run_trials)


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_subpackages_have_docstrings():
    for module in (repro.sim, repro.hw, repro.kernel, repro.net,
                   repro.drivers, repro.core, repro.apps, repro.workloads,
                   repro.metrics, repro.experiments, repro.trace):
        assert module.__doc__, module.__name__


def test_readme_quickstart_numbers_hold():
    """The README promises these two outcomes; keep it honest."""
    livelocked = repro.run_trial(repro.TrialSpec(
        repro.variants.unmodified(), 8_000, duration_s=0.2, warmup_s=0.1
    ))
    fixed = repro.run_trial(repro.TrialSpec(
        repro.variants.polling(quota=5), 8_000, duration_s=0.2, warmup_s=0.1
    ))
    assert livelocked.output_rate_pps < 4_000
    assert fixed.output_rate_pps > 4_800


def test_kwargs_form_raises_type_error():
    """run_trial takes a TrialSpec only; the raw keyword form and the
    retired sweep helper are gone from the public surface."""
    config = repro.variants.unmodified()
    kwargs = {"duration_s": 0.05, "warmup_s": 0.02, "seed": 3}
    with pytest.raises(TypeError):
        repro.run_trial(config, 5_000, **kwargs)
    with pytest.raises(TypeError, match="TrialSpec"):
        repro.run_trial(config)
    assert repro.run_trial(repro.TrialSpec(config, 5_000, **kwargs)).generated
    assert not hasattr(repro, "run_sweep")
    assert not hasattr(repro.experiments, "run_sweep")
