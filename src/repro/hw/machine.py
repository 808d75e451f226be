"""Machine topology: core counts, roles, and IRQ steering policy.

The paper's router was a uniprocessor; :class:`MachineSpec` describes
the multi-core generalization. It is a frozen, validated, hashable
value object nested inside :class:`repro.experiments.spec.TrialSpec`
(the default ``MachineSpec()`` is the paper's single-core machine,
which a ``TrialSpec`` stores as ``machine=None``).

Core roles
----------

Core 0 is always the **housekeeping** core: it takes the clock
interrupt, runs every kernel thread and user process that is not
explicitly pinned elsewhere, and is the whole machine when
``cores == 1``. With more cores:

* ``isolate_polling=False`` — cores 1..N-1 are **isolated** IRQ-serving
  cores: device interrupt lines are steered onto them (shielding the
  housekeeping core, where the packet-processing threads live, from
  dispatch and stub costs), and they run nothing else.
* ``isolate_polling=True`` — up to two cores (1, and 2 when present)
  take the **polling** role: the polled/hybrid drivers pin one polling
  daemon per polling core and partition their devices across them, so
  per-packet work itself runs in parallel. Remaining cores stay
  isolated IRQ targets; when none remain, device IRQs fall back to the
  housekeeping core (never onto a dedicated polling core).

IRQ steering
------------

:class:`IRQSteering` maps interrupt-line names to target cores. Policy
``affinity`` assigns lines round-robin in creation order (static
affinity, like manually distributed ``/proc/irq/*/smp_affinity``);
``rss`` hashes the line name with a salt drawn from the kernel's named
RNG streams (RSS-style flow hashing — deterministic and replayable,
because the salt comes from the ``"steering"`` stream and is drawn only
on multi-core machines).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from ..sim.randomness import derive_seed

STEERING_AFFINITY = "affinity"
STEERING_RSS = "rss"
STEERING_POLICIES = (STEERING_AFFINITY, STEERING_RSS)

ROLE_HOUSEKEEPING = "housekeeping"
ROLE_POLLING = "polling"
ROLE_ISOLATED = "isolated"

#: Per-core Perfetto track ids are carved out of a small fixed range in
#: the exporter; eight cores is far beyond any experiment in the repo.
MAX_CORES = 8

#: How many dedicated polling cores ``isolate_polling`` may claim — one
#: per router device (the topology has two NICs).
MAX_POLLING_CORES = 2


@dataclass(frozen=True)
class MachineSpec:
    """Frozen description of the simulated machine's core topology."""

    cores: int = 1
    steering: str = STEERING_AFFINITY
    isolate_polling: bool = False
    #: Upper bound of the hybrid (NAPI-style) driver's adaptive
    #: interrupt-coalescing timer, microseconds; 0 disables coalescing.
    coalesce_us: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.cores, int) or isinstance(self.cores, bool):
            raise TypeError("cores must be an int, got %r" % (self.cores,))
        if not 1 <= self.cores <= MAX_CORES:
            raise ValueError(
                "cores must be in [1, %d], got %d" % (MAX_CORES, self.cores)
            )
        if self.steering not in STEERING_POLICIES:
            raise ValueError(
                "steering must be one of %r, got %r"
                % (STEERING_POLICIES, self.steering)
            )
        if not isinstance(self.isolate_polling, bool):
            raise TypeError(
                "isolate_polling must be a bool, got %r"
                % (self.isolate_polling,)
            )
        coalesce = self.coalesce_us
        if isinstance(coalesce, bool) or not isinstance(coalesce, (int, float)):
            raise TypeError(
                "coalesce_us must be a number, got %r" % (coalesce,)
            )
        if coalesce < 0:
            raise ValueError("coalesce_us must be >= 0, got %r" % (coalesce,))

    # ------------------------------------------------------------------
    # Derived topology
    # ------------------------------------------------------------------

    def roles(self) -> Tuple[str, ...]:
        """Role of each core, by core index."""
        if self.cores == 1:
            return (ROLE_HOUSEKEEPING,)
        out = [ROLE_HOUSEKEEPING]
        polling = (
            min(MAX_POLLING_CORES, self.cores - 1) if self.isolate_polling else 0
        )
        out.extend([ROLE_POLLING] * polling)
        out.extend([ROLE_ISOLATED] * (self.cores - 1 - polling))
        return tuple(out)

    def polling_cores(self) -> Tuple[int, ...]:
        """Cores the polling daemons are pinned to (core 0 when none
        are dedicated)."""
        dedicated = tuple(
            index
            for index, role in enumerate(self.roles())
            if role == ROLE_POLLING
        )
        return dedicated if dedicated else (0,)

    def irq_cores(self) -> Tuple[int, ...]:
        """Eligible steering targets for device interrupt lines."""
        roles = self.roles()
        isolated = tuple(
            index for index, role in enumerate(roles) if role == ROLE_ISOLATED
        )
        if isolated:
            return isolated
        return tuple(
            index
            for index, role in enumerate(roles)
            if role == ROLE_HOUSEKEEPING
        )

    @property
    def coalesce_ns(self) -> int:
        return int(round(self.coalesce_us * 1_000))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "cores": self.cores,
            "steering": self.steering,
            "isolate_polling": self.isolate_polling,
            "coalesce_us": self.coalesce_us,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MachineSpec":
        return cls(**data)

    def replace(self, **changes) -> "MachineSpec":
        return replace(self, **changes)


#: The paper's machine: one core, nothing to steer.
SINGLE_CORE = MachineSpec()


class IRQSteering:
    """Maps interrupt-line names to cores under a :class:`MachineSpec`.

    Assignments are sticky (a line keeps its core for the life of the
    kernel) and recorded in :attr:`assignments` for tests, traces, and
    the fault-matrix report.
    """

    def __init__(self, machine: MachineSpec, salt: int = 0) -> None:
        self.machine = machine
        self.targets = machine.irq_cores()
        self.salt = salt
        self.assignments: Dict[str, int] = {}
        self._next = 0

    def core_for(self, name: str) -> int:
        """Target core for interrupt line ``name`` (idempotent)."""
        core = self.assignments.get(name)
        if core is None:
            targets = self.targets
            if self.machine.steering == STEERING_RSS:
                core = targets[derive_seed(self.salt, name) % len(targets)]
            else:
                core = targets[self._next % len(targets)]
                self._next += 1
            self.assignments[name] = core
        return core
