"""`TrialSpec`: the typed, frozen description of one trial.

``TrialSpec`` is the one way to describe a trial: a frozen dataclass
naming every knob, hashable, validated and normalised at construction.
Everything that runs or addresses trials takes it — ``run_trial(spec)``,
``run_trials([spec, ...])``, ``trial_fingerprint(spec)``,
``trial_cost_estimate(spec)``.

Normalisation is what makes equality mean "same trial": a nested
``WorkloadSpec`` is flattened into the workload fields, the
single-core ``MachineSpec()`` becomes ``machine=None``, and a canned
fault-plan name becomes its ``FaultPlan``. Two specs that compare equal
therefore hash alike and share a cache fingerprint (which hashes the
fields that differ from their defaults, so spelling a default out
changes nothing).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Optional

from ..hw.machine import SINGLE_CORE, MachineSpec
from ..kernel.config import KernelConfig
from ..sim.backend import BACKENDS

#: Workload names accepted by :func:`run_trial` / :class:`TrialSpec`.
WORKLOAD_CONSTANT = "constant"
WORKLOAD_POISSON = "poisson"
WORKLOAD_BURSTY = "bursty"
#: Adversarial workloads (repro.workloads.adversarial). ``synflood`` and
#: ``flashcrowd`` drive the attack source alone at ``rate_pps``;
#: ``composite`` layers a synflood at ``attack_rate_pps`` over constant
#: legitimate background traffic at ``rate_pps``.
WORKLOAD_SYNFLOOD = "synflood"
WORKLOAD_FLASHCROWD = "flashcrowd"
WORKLOAD_COMPOSITE = "composite"

WORKLOADS = (
    WORKLOAD_CONSTANT,
    WORKLOAD_POISSON,
    WORKLOAD_BURSTY,
    WORKLOAD_SYNFLOOD,
    WORKLOAD_FLASHCROWD,
    WORKLOAD_COMPOSITE,
)

#: Default measurement timing (simulated seconds). Short relative to the
#: paper's multi-second trials, but the simulation is noiseless apart
#: from deliberate jitter, so windows converge much faster.
DEFAULT_WARMUP_S = 0.2
DEFAULT_DURATION_S = 0.5


@dataclass(frozen=True)
class WorkloadSpec:
    """Nested sub-spec for the traffic shape.

    ``TrialSpec`` stores the workload flat (``workload`` / ``burst_size``
    / ``attack_rate_pps`` fields); a ``WorkloadSpec`` passed as
    ``TrialSpec(workload=...)`` is flattened into exactly those fields,
    so the nested spelling and the flat one are the same spec.
    """

    workload: str = WORKLOAD_CONSTANT
    burst_size: int = 32
    attack_rate_pps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % (self.workload,))
        if self.burst_size <= 0:
            raise ValueError("burst_size must be positive")


@dataclass(frozen=True)
class TrialSpec:
    """One trial, fully specified; see :func:`~repro.experiments.harness.
    run_trial` for what each field does.

    ``trace`` arms the scheduling trace (``True`` → windowed timeline on
    the result; a :class:`~repro.trace.TraceBuffer` instance → full
    record stream, runs in-process and uncached), ``trace_capacity``
    sizes the ring.
    """

    config: KernelConfig
    rate_pps: float
    duration_s: float = DEFAULT_DURATION_S
    warmup_s: float = DEFAULT_WARMUP_S
    seed: int = 0
    workload: str = WORKLOAD_CONSTANT
    burst_size: int = 32
    #: Attack intensity for the ``composite`` workload (peak pps of the
    #: SYN-flood layer); None elsewhere.
    attack_rate_pps: Optional[float] = None
    with_compute: bool = False
    #: A :class:`~repro.faults.FaultPlan`, or a canned-plan name, which
    #: construction resolves to its plan.
    fault_plan: Any = None
    watchdog: bool = False
    sanitize: bool = False
    trace: Any = False
    trace_capacity: Optional[int] = None
    #: Simulator core: ``"pure"`` (reference oracle), ``"fast"`` (the
    #: compiled repro._fastcore backend), or None to consult the
    #: ``REPRO_BACKEND`` env var and default to pure. The backends are
    #: bit-identical by contract, so this field never enters the cache
    #: fingerprint.
    backend: Optional[str] = None
    #: Core topology (:class:`~repro.hw.machine.MachineSpec`); None is
    #: the paper's single-core machine, and ``MachineSpec()`` normalises
    #: to None.
    machine: Optional[MachineSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.config, KernelConfig):
            raise TypeError(
                "TrialSpec.config must be a KernelConfig, got %r"
                % type(self.config).__name__
            )
        if isinstance(self.workload, WorkloadSpec):
            # The nested spec owns every workload field; a non-default
            # flat value beside it is ambiguous.
            clash = [
                name
                for name in ("burst_size", "attack_rate_pps")
                if getattr(self, name) != _FIELD_DEFAULTS[name]
            ]
            if clash:
                raise TypeError(
                    "workload=WorkloadSpec(...) conflicts with flat "
                    "field(s): %s" % ", ".join(clash)
                )
            nested = self.workload
            object.__setattr__(self, "workload", nested.workload)
            object.__setattr__(self, "burst_size", nested.burst_size)
            object.__setattr__(self, "attack_rate_pps", nested.attack_rate_pps)
        if isinstance(self.machine, dict):
            object.__setattr__(self, "machine", MachineSpec(**self.machine))
        if self.machine is not None and not isinstance(self.machine, MachineSpec):
            raise TypeError(
                "TrialSpec.machine must be a MachineSpec (or None), got %r"
                % type(self.machine).__name__
            )
        if self.machine == SINGLE_CORE:
            object.__setattr__(self, "machine", None)
        if isinstance(self.fault_plan, str):
            from ..faults import canned_plan

            object.__setattr__(self, "fault_plan", canned_plan(self.fault_plan))
        if self.rate_pps < 0:
            raise ValueError("rate must be non-negative")
        if self.duration_s < 0 or self.warmup_s < 0:
            raise ValueError("trial timing must be non-negative")
        if self.workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % (self.workload,))
        if self.burst_size <= 0:
            raise ValueError("burst_size must be positive")
        if self.attack_rate_pps is not None:
            if self.workload != WORKLOAD_COMPOSITE:
                raise ValueError(
                    "attack_rate_pps only applies to the composite workload"
                )
            if self.attack_rate_pps <= 0:
                raise ValueError("attack_rate_pps must be positive")
        if self.trace_capacity is not None and self.trace_capacity <= 0:
            raise ValueError("trace_capacity must be positive")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                "unknown backend %r (expected one of %s or None)"
                % (self.backend, "/".join(BACKENDS))
            )

    # ------------------------------------------------------------------

    @classmethod
    def from_kwargs(
        cls, config: KernelConfig, rate_pps: float, **kwargs
    ) -> "TrialSpec":
        """Alias of the constructor, kept for keyword-dict call sites."""
        return cls(config, rate_pps, **kwargs)

    @property
    def workload_spec(self) -> WorkloadSpec:
        """The nested view of the flat workload fields."""
        return WorkloadSpec(self.workload, self.burst_size, self.attack_rate_pps)

    @property
    def machine_spec(self) -> MachineSpec:
        """The machine, with None resolved to the single-core default."""
        return self.machine if self.machine is not None else SINGLE_CORE

    # ------------------------------------------------------------------

    def replace(self, **changes) -> "TrialSpec":
        """A copy with ``changes`` applied (validated like a new spec)."""
        return dataclasses.replace(self, **changes)

    def fingerprint(self) -> str:
        """The spec's cache key (see ``engine.trial_fingerprint``)."""
        from .engine import trial_fingerprint

        return trial_fingerprint(self)

    def run(self):
        """Run this trial (convenience for ``run_trial(spec)``)."""
        from .harness import run_trial

        return run_trial(self)


#: Every field after ``config``/``rate_pps`` with its default, in
#: declaration order (the fingerprint hashes the non-default ones).
_FIELD_DEFAULTS = {
    f.name: f.default
    for f in fields(TrialSpec)
    if f.name not in ("config", "rate_pps")
}
