"""Extension experiments (beyond the paper's own figures).

Each produces a :class:`~repro.experiments.figures.FigureResult` so the
same rendering, CSV and CLI machinery serves them. Ids are prefixed
``ext-`` to keep them visually distinct from the paper's figures.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import variants
from ..sim.units import seconds
from ..workloads.generators import ConstantRateGenerator
from .endhost import EndHost, HOST_ADDR, SERVICE_PORT
from .engine import parallel_map
from .figures import FigureResult, _sweep
from .harness import (
    DEFAULT_DURATION_S,
    DEFAULT_RATE_GRID,
    DEFAULT_WARMUP_S,
    sweep_series,
)


def extension_rate_limiting(
    rates: Sequence[float] = DEFAULT_RATE_GRID,
    **trial_kwargs,
) -> FigureResult:
    """§5.1 interrupt-rate limiting alone vs unmodified vs full polling."""
    result = FigureResult(
        figure_id="ext-rate-limit",
        title="Interrupt-rate limiting alone (ipintrq feedback, §5.1)",
        xlabel="Input packet rate (pkts/sec)",
        ylabel="Output packet rate (pkts/sec)",
    )
    for label, config in (
        ("Unmodified", variants.unmodified()),
        ("Rate-limited input", variants.unmodified(input_feedback=True)),
        ("Polling (quota = 10)", variants.polling(quota=10)),
    ):
        result.series[label] = sweep_series(
            _sweep(config, rates, **trial_kwargs)
        )
    result.notes = (
        "The cheapest of the paper's fixes recovers most of the overload "
        "throughput; the full polling design still wins everywhere and "
        "additionally fixes latency, fairness and wasted work."
    )
    return result


def extension_high_ipl(
    rates: Sequence[float] = DEFAULT_RATE_GRID,
    **trial_kwargs,
) -> FigureResult:
    """§5.3's two approaches, throughput view."""
    result = FigureResult(
        figure_id="ext-high-ipl",
        title="Everything at high IPL vs polling thread (§5.3)",
        xlabel="Input packet rate (pkts/sec)",
        ylabel="Output packet rate (pkts/sec)",
    )
    for label, config in (
        ("Unmodified", variants.unmodified()),
        ("High IPL (quota = 10)", variants.high_ipl(quota=10)),
        ("Polling (quota = 10)", variants.polling(quota=10)),
    ):
        result.series[label] = sweep_series(
            _sweep(config, rates, **trial_kwargs)
        )
    result.notes = (
        "Both anti-preemption approaches forward at capacity; they differ "
        "in what happens to user-level code (see benchmarks/test_high_ipl)."
    )
    return result


def _endhost_point(payload):
    """One end-host measurement; top-level so worker processes can run it."""
    config, host_kwargs, rate, duration_s, warmup_s = payload
    host = EndHost(config, **host_kwargs).start()
    ConstantRateGenerator(
        host.sim, host.nic, rate, dst=HOST_ADDR, dst_port=SERVICE_PORT
    ).start()
    host.run_for(seconds(warmup_s))
    before = host.requests_served
    host.run_for(seconds(duration_s))
    served = (host.requests_served - before) / duration_s
    return (float(rate), served)


def extension_endhost(
    rates: Sequence[float] = (1_000, 2_000, 3_000, 4_000, 6_000, 8_000, 10_000),
    duration_s: float = DEFAULT_DURATION_S,
    warmup_s: float = DEFAULT_WARMUP_S,
    seed: int = 0,
    jobs: Optional[int] = None,
    cache=False,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    strict: bool = True,
) -> FigureResult:
    """Server goodput under request floods (end-system livelock).

    ``jobs`` fans the (kernel, rate) grid across worker processes; the
    end-host measurement is not a plain router trial, so it bypasses the
    TrialResult cache and the engine's retry machinery
    (``cache``/``cache_dir``/``timeout_s``/``retries``/``strict``
    accepted for CLI symmetry — a failed point raises).
    """
    result = FigureResult(
        figure_id="ext-endhost",
        title="RPC server goodput under receive overload",
        xlabel="Offered request rate (req/sec)",
        ylabel="Requests served (req/sec)",
    )
    kernels = (
        ("Unmodified", variants.unmodified(), {}),
        ("Polling (quota = 10)", variants.polling(quota=10), {}),
        (
            "Polling + cycle limit 50%",
            variants.polling(quota=10, cycle_limit=0.5),
            {},
        ),
        (
            "Polling + socket feedback",
            variants.polling(quota=10),
            {"socket_feedback": True},
        ),
    )
    payloads = [
        (config, host_kwargs, rate, duration_s, warmup_s)
        for _, config, host_kwargs in kernels
        for rate in rates
    ]
    points = parallel_map(_endhost_point, payloads, jobs=jobs)
    for row, (label, _, _) in enumerate(kernels):
        result.series[label] = points[row * len(rates) : (row + 1) * len(rates)]
    result.notes = (
        "Useful throughput for an end-system is delivery to the application "
        "(§3). Kernel-side fixes alone move the drop point without feeding "
        "the app; the cycle limit and socket-queue feedback do."
    )
    return result


#: Registry merged into the CLI next to the paper's figures.
EXTENSION_EXPERIMENTS = {
    "ext-rate-limit": extension_rate_limiting,
    "ext-high-ipl": extension_high_ipl,
    "ext-endhost": extension_endhost,
}
