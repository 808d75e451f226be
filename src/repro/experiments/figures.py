"""Per-figure experiment definitions.

One function per figure in the paper's evaluation; each returns a
:class:`FigureResult` whose series mirror the figure's marks. Benchmarks
and examples are thin wrappers around these functions, so the same code
regenerates a figure everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import variants
from ..hw.machine import STEERING_AFFINITY, STEERING_RSS, MachineSpec
from ..kernel.config import KernelConfig
from .engine import run_trials
from .harness import DEFAULT_RATE_GRID, sweep_series
from .spec import TrialSpec

Point = Tuple[float, float]

#: Keywords routed to the engine (parallelism/caching/resilience); the
#: rest of a figure's ``**trial_kwargs`` describe the trials themselves.
_ENGINE_KWARGS = (
    "jobs",
    "cache",
    "cache_dir",
    "timeout_s",
    "retries",
    "retry_backoff_s",
    "strict",
)


def _sweep(config, rates, **trial_kwargs):
    """One trial per rate as typed specs (the engine fans them out)."""
    engine_kwargs = {
        key: trial_kwargs.pop(key)
        for key in _ENGINE_KWARGS
        if key in trial_kwargs
    }
    specs = [
        TrialSpec(config, rate, **trial_kwargs) for rate in rates
    ]
    return run_trials(specs, **engine_kwargs)


@dataclass
class FigureResult:
    """All series of one reproduced figure."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: Dict[str, List[Point]] = field(default_factory=dict)
    notes: str = ""
    #: Per-series trial timelines (``TrialResult.timeline`` dicts, in
    #: rate order), populated only when the figure ran with ``trace``.
    timelines: Dict[str, List] = field(default_factory=dict)

    def series_peak(self, label: str) -> float:
        return max(y for _, y in self.series[label])

    def series_at_max_x(self, label: str) -> float:
        return max(self.series[label])[1]


def _throughput_series(
    config: KernelConfig,
    rates: Sequence[float],
    **trial_kwargs,
) -> List[Point]:
    return sweep_series(_sweep(config, rates, **trial_kwargs))


def _add_series(
    result: FigureResult,
    label: str,
    config: KernelConfig,
    rates: Sequence[float],
    **trial_kwargs,
) -> None:
    """Run one sweep and record its series (plus timelines when traced)."""
    trials = _sweep(config, rates, **trial_kwargs)
    result.series[label] = sweep_series(trials)
    trace_val = trial_kwargs.get("trace")
    if trace_val is not None and trace_val is not False:
        result.timelines[label] = [
            trial.timeline
            for trial in trials
            if not getattr(trial, "failed", False)
        ]


# ----------------------------------------------------------------------
# Figure 6-1: forwarding performance of the unmodified kernel
# ----------------------------------------------------------------------

def figure_6_1(
    rates: Sequence[float] = DEFAULT_RATE_GRID,
    **trial_kwargs,
) -> FigureResult:
    """Unmodified kernel, with and without screend (§6.2)."""
    result = FigureResult(
        figure_id="6-1",
        title="Forwarding performance of unmodified kernel",
        xlabel="Input packet rate (pkts/sec)",
        ylabel="Output packet rate (pkts/sec)",
    )
    _add_series(
        result, "Without screend", variants.unmodified(), rates, **trial_kwargs
    )
    _add_series(
        result,
        "With screend",
        variants.unmodified(screend=True),
        rates,
        **trial_kwargs,
    )
    result.notes = (
        "Paper: peak ~4700 pkt/s without screend; with screend poor overload "
        "behaviour above ~2000 pkt/s and complete livelock at ~6000 pkt/s."
    )
    return result


# ----------------------------------------------------------------------
# Figure 6-3: modified kernel without screend
# ----------------------------------------------------------------------

def figure_6_3(
    rates: Sequence[float] = DEFAULT_RATE_GRID,
    **trial_kwargs,
) -> FigureResult:
    """Unmodified vs modified-no-polling vs polling (quota 5 / none)."""
    result = FigureResult(
        figure_id="6-3",
        title="Forwarding performance of modified kernel, without screend",
        xlabel="Input packet rate (pkts/sec)",
        ylabel="Output packet rate (pkts/sec)",
    )
    _add_series(
        result, "Unmodified", variants.unmodified(), rates, **trial_kwargs
    )
    _add_series(
        result, "No polling", variants.modified_no_polling(), rates, **trial_kwargs
    )
    _add_series(
        result,
        "Polling (quota = 5)",
        variants.polling(quota=5),
        rates,
        **trial_kwargs,
    )
    _add_series(
        result,
        "Polling (no quota)",
        variants.polling(quota=None),
        rates,
        **trial_kwargs,
    )
    result.notes = (
        "Paper: polling with a quota slightly improves the MLFRR and stays "
        "flat under overload; with no quota throughput drops almost to zero "
        "above the MLFRR (packets pile up at the output queue)."
    )
    return result


# ----------------------------------------------------------------------
# Figure 6-4: modified kernel with screend
# ----------------------------------------------------------------------

def figure_6_4(
    rates: Sequence[float] = DEFAULT_RATE_GRID,
    **trial_kwargs,
) -> FigureResult:
    """Unmodified vs polling without/with queue-state feedback (§6.6.1)."""
    result = FigureResult(
        figure_id="6-4",
        title="Forwarding performance of modified kernel, with screend",
        xlabel="Input packet rate (pkts/sec)",
        ylabel="Output packet rate (pkts/sec)",
    )
    _add_series(
        result,
        "Unmodified",
        variants.unmodified(screend=True),
        rates,
        **trial_kwargs,
    )
    _add_series(
        result,
        "Polling, no feedback",
        variants.polling(quota=10, screend=True, feedback=False),
        rates,
        **trial_kwargs,
    )
    _add_series(
        result,
        "Polling w/feedback",
        variants.polling(quota=10, screend=True, feedback=True),
        rates,
        **trial_kwargs,
    )
    result.notes = (
        "Paper: without feedback the modified kernel performs about as badly "
        "as the unmodified kernel (screening queue overflows); with feedback "
        "there is no livelock and throughput stays at its peak."
    )
    return result


# ----------------------------------------------------------------------
# Figures 6-5 / 6-6: effect of the packet-count quota
# ----------------------------------------------------------------------

QUOTA_GRID = (5, 10, 20, 100, None)


def _quota_label(quota: Optional[int]) -> str:
    return "quota = infinity" if quota is None else "quota = %d packets" % quota


def figure_6_5(
    rates: Sequence[float] = DEFAULT_RATE_GRID,
    quotas: Sequence[Optional[int]] = QUOTA_GRID,
    **trial_kwargs,
) -> FigureResult:
    """Quota sweep without screend (§6.6.2)."""
    result = FigureResult(
        figure_id="6-5",
        title="Effect of packet-count quota on performance, no screend",
        xlabel="Input packet rate (pkts/sec)",
        ylabel="Output packet rate (pkts/sec)",
    )
    for quota in quotas:
        _add_series(
            result,
            _quota_label(quota),
            variants.polling(quota=quota),
            rates,
            **trial_kwargs,
        )
    result.notes = (
        "Paper: smaller quotas work better; as the quota increases livelock "
        "becomes more of a problem; quota 10-20 is near-optimal."
    )
    return result


def figure_6_6(
    rates: Sequence[float] = DEFAULT_RATE_GRID,
    quotas: Sequence[Optional[int]] = QUOTA_GRID,
    **trial_kwargs,
) -> FigureResult:
    """Quota sweep with screend and queue-state feedback (§6.6.2)."""
    result = FigureResult(
        figure_id="6-6",
        title="Effect of packet-count quota on performance, with screend",
        xlabel="Input packet rate (pkts/sec)",
        ylabel="Output packet rate (pkts/sec)",
    )
    for quota in quotas:
        _add_series(
            result,
            _quota_label(quota),
            variants.polling(quota=quota, screend=True, feedback=True),
            rates,
            **trial_kwargs,
        )
    result.notes = (
        "Paper: with feedback the queue-state mechanism prevents livelock at "
        "every quota; small quotas cost a few per cent of peak throughput."
    )
    return result


# ----------------------------------------------------------------------
# Figure 7-1: user-mode CPU time under the cycle-limit mechanism
# ----------------------------------------------------------------------

THRESHOLD_GRID = (0.25, 0.50, 0.75, 1.00)

FIG_7_1_RATES = (0, 1_000, 2_000, 3_000, 4_000, 5_000, 6_000, 8_000, 10_000)


def figure_7_1(
    rates: Sequence[float] = FIG_7_1_RATES,
    thresholds: Sequence[float] = THRESHOLD_GRID,
    quota: int = 5,
    jobs: Optional[int] = None,
    cache=False,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    strict: bool = True,
    **trial_kwargs,
) -> FigureResult:
    """Available user-mode CPU vs input rate per cycle threshold (§7)."""
    result = FigureResult(
        figure_id="7-1",
        title="User-mode CPU time available using cycle-limit mechanism",
        xlabel="Input packet rate (pkts/sec)",
        ylabel="Available CPU time (per cent)",
    )
    # One flat spec list so the engine can fan the whole threshold x rate
    # grid out at once, not one row at a time.
    specs = [
        TrialSpec(
            variants.polling(quota=quota, cycle_limit=threshold),
            rate,
            **dict(trial_kwargs, with_compute=True),
        )
        for threshold in thresholds
        for rate in rates
    ]
    trials = run_trials(
        specs,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        timeout_s=timeout_s,
        retries=retries,
        strict=strict,
    )
    for row, threshold in enumerate(thresholds):
        label = "threshold %d %%" % round(threshold * 100)
        row_trials = trials[row * len(rates) : (row + 1) * len(rates)]
        points: List[Point] = [
            (trial.offered_rate_pps, 100.0 * trial.user_cpu_share)
            for trial in row_trials
            if not getattr(trial, "failed", False)
        ]
        result.series[label] = sorted(points)
        trace_val = trial_kwargs.get("trace")
        if trace_val is not None and trace_val is not False:
            result.timelines[label] = [
                trial.timeline
                for trial in row_trials
                if not getattr(trial, "failed", False)
            ]
    result.notes = (
        "Paper: ~94% available at zero load; curves stabilise as input rate "
        "rises but the user process gets less than the threshold implies; "
        "50%/75% curves show initial dips (uncounted interrupt cycles)."
    )
    return result


# ----------------------------------------------------------------------
# Multi-core extensions (no paper counterpart; DESIGN.md SS14)
# ----------------------------------------------------------------------

SMP_CORE_GRID = (1, 2, 4)

#: Output must track at least this fraction of the offered rate for a
#: trial to count as pre-onset.
ONSET_TRACK_FRACTION = 0.9


def _smp_machine(
    cores: int,
    steering: str = STEERING_RSS,
    isolate_polling: bool = True,
) -> Optional[MachineSpec]:
    """None at one core, so those trials stay byte-identical (and
    cache-compatible) with the paper's single-core runs."""
    if cores == 1:
        return None
    return MachineSpec(
        cores=cores, steering=steering, isolate_polling=isolate_polling
    )


def _onset_rate(trials, rates: Sequence[float]) -> float:
    """Lowest target rate whose output stops tracking the offered rate.

    Trials past the MLFRR deliver less than
    :data:`ONSET_TRACK_FRACTION` of what was offered; the first such
    rate is the livelock onset. A machine that tracks the whole grid
    reports the top of the grid (onset is off-scale, not absent).
    """
    by_rate = {trial.target_rate_pps: trial for trial in trials
               if not getattr(trial, "failed", False)}
    for rate in sorted(by_rate):
        trial = by_rate[rate]
        if trial.offered_rate_pps <= 0:
            continue
        if trial.output_rate_pps < ONSET_TRACK_FRACTION * trial.offered_rate_pps:
            return rate
    return max(rates)


def figure_smp_onset(
    rates: Sequence[float] = DEFAULT_RATE_GRID,
    core_counts: Sequence[int] = SMP_CORE_GRID,
    **trial_kwargs,
) -> FigureResult:
    """Livelock onset rate vs core count (RSS steering + isolation).

    Multi-core machines steer the device IRQs off the housekeeping core
    (RSS flow hashing) and dedicate polling cores, so both the classic
    and the polled kernel survive to higher input rates before the
    output curve detaches from the offered load.
    """
    result = FigureResult(
        figure_id="smp-onset",
        title="Livelock onset vs core count (RSS steering, isolated polling)",
        xlabel="Cores",
        ylabel="Onset input rate (pkts/sec)",
    )
    engine_kwargs = {
        key: trial_kwargs.pop(key)
        for key in _ENGINE_KWARGS
        if key in trial_kwargs
    }
    drivers = (
        ("Unmodified", variants.unmodified()),
        ("Polling (quota = 10)", variants.polling(quota=10)),
    )
    specs = [
        TrialSpec(
            config, rate, machine=_smp_machine(cores), **trial_kwargs
        )
        for _, config in drivers
        for cores in core_counts
        for rate in rates
    ]
    trials = run_trials(specs, **engine_kwargs)
    per_cell = len(rates)
    index = 0
    for label, _ in drivers:
        points: List[Point] = []
        for cores in core_counts:
            cell = trials[index : index + per_cell]
            index += per_cell
            points.append((float(cores), _onset_rate(cell, rates)))
        result.series[label] = points
    result.notes = (
        "Onset = lowest rate whose output falls below %d%% of offered; "
        "cores=1 is the paper's machine, multi-core adds RSS IRQ "
        "steering and dedicated polling cores (top of grid = no onset "
        "within the swept rates)." % round(ONSET_TRACK_FRACTION * 100)
    )
    return result


def figure_smp_policy(
    core_counts: Sequence[int] = SMP_CORE_GRID,
    rate_pps: float = 12_000,
    **trial_kwargs,
) -> FigureResult:
    """Steering/isolation policy crossovers under heavy overload.

    Fixed input rate, polled driver; one series per (steering,
    isolation) policy pair showing delivered throughput as cores are
    added. Affinity and RSS coincide at this topology's two IRQ lines
    unless hashing happens to co-locate them; isolation splits rx/tx
    service across dedicated cores.
    """
    result = FigureResult(
        figure_id="smp-policy",
        title="Steering/isolation policy vs delivered rate (polled, %g pps)"
        % rate_pps,
        xlabel="Cores",
        ylabel="Output packet rate (pkts/sec)",
    )
    engine_kwargs = {
        key: trial_kwargs.pop(key)
        for key in _ENGINE_KWARGS
        if key in trial_kwargs
    }
    policies = (
        ("affinity", STEERING_AFFINITY, False),
        ("affinity + isolate", STEERING_AFFINITY, True),
        ("rss", STEERING_RSS, False),
        ("rss + isolate", STEERING_RSS, True),
    )
    config = variants.polling(quota=10)
    specs = [
        TrialSpec(
            config,
            rate_pps,
            machine=_smp_machine(cores, steering, isolate),
            **trial_kwargs,
        )
        for _, steering, isolate in policies
        for cores in core_counts
    ]
    trials = run_trials(specs, **engine_kwargs)
    index = 0
    for label, _, _ in policies:
        points = []
        for cores in core_counts:
            trial = trials[index]
            index += 1
            if not getattr(trial, "failed", False):
                points.append((float(cores), trial.output_rate_pps))
        result.series[label] = points
    result.notes = (
        "All policies coincide at one core (MachineSpec canonicalizes "
        "to the paper's machine); crossovers appear as cores are added "
        "and IRQ steering/polling isolation start to matter."
    )
    return result


#: Registry used by the CLI and the benchmarks.
ALL_FIGURES = {
    "6-1": figure_6_1,
    "6-3": figure_6_3,
    "6-4": figure_6_4,
    "6-5": figure_6_5,
    "6-6": figure_6_6,
    "7-1": figure_7_1,
    "smp-onset": figure_smp_onset,
    "smp-policy": figure_smp_policy,
}
