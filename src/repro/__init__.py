"""repro — reproduction of Mogul & Ramakrishnan, "Eliminating Receive
Livelock in an Interrupt-driven Kernel" (USENIX 1996).

The package simulates a 1990s UNIX router at the scheduling level —
a CPU with interrupt priority levels, NICs with bounded descriptor
rings, the 4.2BSD/Digital-UNIX network stack — and implements the
paper's fixes: interrupt-initiated polling with packet quotas,
queue-state feedback, and CPU cycle limits.

Quick start::

    from repro import TrialSpec, variants, run_trial

    result = run_trial(TrialSpec(variants.unmodified(), rate_pps=8_000))
    print(result.output_rate_pps)        # livelocked: far below 8000

    result = run_trial(TrialSpec(variants.polling(quota=5), rate_pps=8_000))
    print(result.output_rate_pps)        # stays at the MLFRR

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced figure.
"""

from . import (
    core,
    drivers,
    experiments,
    hw,
    kernel,
    metrics,
    net,
    sim,
    trace,
    workloads,
)
from .core import (
    CycleLimiter,
    PollQuota,
    PollingSystem,
    QueueStateFeedback,
    variants,
)
from .experiments import (
    ALL_FIGURES,
    FigureResult,
    Router,
    TrialResult,
    TrialSpec,
    run_trial,
    run_trials,
    sweep_series,
)
from .kernel import CostModel, DEFAULT_COSTS, KernelConfig
from .metrics import estimate_mlfrr, is_livelock_free, livelock_onset
from .trace import (
    Timeline,
    TraceBuffer,
    perfetto_json,
    timeline_to_csv,
    to_perfetto,
    trace_to_csv,
    write_perfetto,
)

__version__ = "1.1.0"

__all__ = [
    "ALL_FIGURES",
    "CostModel",
    "CycleLimiter",
    "DEFAULT_COSTS",
    "FigureResult",
    "KernelConfig",
    "PollQuota",
    "PollingSystem",
    "QueueStateFeedback",
    "Router",
    "Timeline",
    "TraceBuffer",
    "TrialResult",
    "TrialSpec",
    "core",
    "drivers",
    "estimate_mlfrr",
    "experiments",
    "hw",
    "is_livelock_free",
    "kernel",
    "livelock_onset",
    "metrics",
    "net",
    "perfetto_json",
    "run_trial",
    "run_trials",
    "sim",
    "sweep_series",
    "timeline_to_csv",
    "to_perfetto",
    "trace",
    "trace_to_csv",
    "variants",
    "workloads",
    "write_perfetto",
]
