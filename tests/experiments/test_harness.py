"""Unit tests for the trial runner."""

import pytest

from repro.core import variants
from repro.experiments.engine import run_trials
from repro.experiments.harness import run_trial, sweep_series
from repro.experiments.spec import TrialSpec


FAST = dict(duration_s=0.1, warmup_s=0.05)


def test_trial_reports_rates():
    trial = run_trial(TrialSpec(variants.unmodified(), 1_000, **FAST))
    assert trial.offered_rate_pps == pytest.approx(1_000, rel=0.1)
    assert trial.output_rate_pps == pytest.approx(1_000, rel=0.1)
    assert trial.variant == "unmodified"
    assert trial.duration_s == pytest.approx(0.1, rel=0.01)


def test_trial_zero_rate_runs_unloaded():
    trial = run_trial(TrialSpec(variants.unmodified(), 0, **FAST))
    assert trial.generated == 0
    assert trial.output_rate_pps == 0.0
    assert trial.loss_fraction == 0.0


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        TrialSpec(variants.unmodified(), -1)


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        TrialSpec(variants.unmodified(), 1_000, workload="fractal", **FAST)


def test_loss_fraction_under_overload():
    trial = run_trial(TrialSpec(variants.unmodified(), 10_000, **FAST))
    assert trial.loss_fraction > 0.3
    assert trial.drops  # some drop location is reported


def test_compute_share_reported_only_when_requested():
    without = run_trial(TrialSpec(variants.unmodified(), 1_000, **FAST))
    assert without.user_cpu_share is None
    with_compute = run_trial(
        TrialSpec(variants.unmodified(), 1_000, with_compute=True, **FAST)
    )
    assert 0.0 <= with_compute.user_cpu_share <= 1.0


def test_latency_summary_present():
    trial = run_trial(TrialSpec(variants.unmodified(), 1_000, **FAST))
    assert trial.latency_us["count"] > 50
    assert trial.latency_us["median"] > 0


def test_trials_are_deterministic():
    first = run_trial(TrialSpec(variants.unmodified(), 3_000, seed=5, **FAST))
    second = run_trial(TrialSpec(variants.unmodified(), 3_000, seed=5, **FAST))
    assert first.delivered == second.delivered
    assert first.generated == second.generated


def test_different_seeds_differ():
    first = run_trial(TrialSpec(variants.unmodified(), 3_000, seed=1, **FAST))
    second = run_trial(TrialSpec(variants.unmodified(), 3_000, seed=2, **FAST))
    # Jittered arrivals differ; delivered counts almost surely differ in
    # at least the latency profile. Weak check on generated timing:
    assert (first.delivered, first.latency_us["mean"]) != (
        second.delivered,
        second.latency_us["mean"],
    )


def test_workloads_selectable():
    for workload in ("constant", "poisson", "bursty"):
        trial = run_trial(
            TrialSpec(variants.unmodified(), 2_000, workload=workload, **FAST)
        )
        assert trial.generated > 50


def test_prebuilt_router_reused():
    from repro.experiments.topology import Router

    config = variants.unmodified()
    router = Router(config)
    monitor = router.add_monitor()
    trial = run_trial(TrialSpec(config, 1_000, **FAST), router=router)
    assert trial.counters.get("monitor.observed", 0) > 0


def test_sweep_and_series():
    results = run_trials(
        [TrialSpec(variants.unmodified(), rate, **FAST) for rate in (1_000, 2_000)]
    )
    assert len(results) == 2
    series = sweep_series(results)
    assert series[0][0] < series[1][0]
    assert all(len(point) == 2 for point in series)


def test_full_counter_dump_is_deterministic():
    """Two identical trials agree on *every* counter, not just the
    headline rates (a regression net over the whole simulation)."""
    first = run_trial(
        TrialSpec(variants.polling(quota=10, screend=True), 6_000,
                  seed=9, **FAST)
    )
    second = run_trial(
        TrialSpec(variants.polling(quota=10, screend=True), 6_000,
                  seed=9, **FAST)
    )
    assert first.counters == second.counters


def test_legacy_kwargs_raise_type_error():
    """The raw-keyword form is gone: a TrialSpec is the only way in."""
    with pytest.raises(TypeError):
        run_trial(variants.unmodified(), 2_000, **FAST)
    with pytest.raises(TypeError, match="TrialSpec"):
        run_trial(variants.unmodified())
