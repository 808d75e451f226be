"""Named kernel variants — the configurations measured in the paper.

Each factory returns a :class:`~repro.kernel.config.KernelConfig`; the
experiment topology builds the matching kernel. Variant names appear in
figure legends, so they mirror the paper's marks:

* ``unmodified``            — stock kernel (filled circles);
* ``modified_no_polling``   — modified kernel acting as unmodified
  (open circles, fig 6-3: "performs slightly worse");
* ``polling``               — the full modified kernel, with quota,
  optional queue-state feedback and optional cycle limit;
* ``clocked``               — periodic polling baseline from related work.
"""

from __future__ import annotations

from typing import Optional, Union

from ..kernel.config import IP_LAYER_THREAD, KernelConfig
from ..kernel.costs import CostModel
from .quota import PollQuota

#: Variant-name constants used in figure legends and result tables.
UNMODIFIED = "unmodified"
MODIFIED_NO_POLLING = "modified_no_polling"
POLLING = "polling"
CLOCKED = "clocked"
HIGH_IPL = "high_ipl"
HYBRID = "hybrid"


def unmodified(
    screend: bool = False,
    ip_layer_mode: str = IP_LAYER_THREAD,
    input_feedback: bool = False,
    costs: Optional[CostModel] = None,
) -> KernelConfig:
    """The stock interrupt-driven kernel (fig 6-1).

    ``input_feedback`` adds §5.1 interrupt-rate limiting to the classic
    kernel: input interrupts are disabled when ipintrq fills and
    re-enabled when it drains — the cheapest of the paper's fixes.
    """
    config = KernelConfig(
        ip_layer_mode=ip_layer_mode,
        screend_enabled=screend,
        classic_input_feedback=input_feedback,
    )
    if costs is not None:
        config = config.with_options(costs=costs)
    config.validate()
    return config


def high_ipl(
    quota: Optional[int] = 10,
    screend: bool = False,
    costs: Optional[CostModel] = None,
) -> KernelConfig:
    """§5.3's first approach: process to completion at device IPL."""
    config = KernelConfig(
        use_high_ipl=True,
        poll_quota=quota,
        screend_enabled=screend,
    )
    if costs is not None:
        config = config.with_options(costs=costs)
    config.validate()
    return config


def modified_no_polling(
    screend: bool = False,
    ip_layer_mode: str = IP_LAYER_THREAD,
    costs: Optional[CostModel] = None,
) -> KernelConfig:
    """The modified kernel configured to act as if unmodified (fig 6-3,
    open circles): classic path plus a small per-packet compat overhead."""
    config = KernelConfig(
        ip_layer_mode=ip_layer_mode,
        use_polling=True,
        emulate_unmodified=True,
        screend_enabled=screend,
    )
    if costs is not None:
        config = config.with_options(costs=costs)
    config.validate()
    return config


def polling(
    quota: Union[None, int, PollQuota] = 10,
    screend: bool = False,
    feedback: Optional[bool] = None,
    cycle_limit: Optional[float] = None,
    mitigate: bool = False,
    costs: Optional[CostModel] = None,
) -> KernelConfig:
    """The paper's modified kernel (§6.4).

    ``feedback`` defaults to following ``screend`` — the paper only
    attaches queue-state feedback to the screening queue. ``cycle_limit``
    is the §7 threshold fraction (None disables the mechanism).
    ``mitigate`` arms the closed-loop overload controller
    (:mod:`repro.core.mitigation`) on top of the static defenses.
    """
    quota = PollQuota.of(quota)
    if feedback is None:
        feedback = screend
    config = KernelConfig(
        use_polling=True,
        poll_quota=quota.rx,
        screend_enabled=screend,
        feedback_enabled=feedback,
        cycle_limit_fraction=cycle_limit,
        mitigation_enabled=mitigate,
    )
    if costs is not None:
        config = config.with_options(costs=costs)
    config.validate()
    return config


def clocked(
    poll_interval_ns: int = 1_000_000,
    quota: Optional[int] = None,
    screend: bool = False,
    mitigate: bool = False,
    costs: Optional[CostModel] = None,
) -> KernelConfig:
    """Pure periodic polling (Traw & Smith clocked interrupts, §8).

    ``mitigate`` arms the closed-loop overload controller, which adapts
    this driver's quota and poll period under attack.
    """
    config = KernelConfig(
        use_clocked_polling=True,
        clocked_poll_interval_ns=poll_interval_ns,
        poll_quota=quota,
        screend_enabled=screend,
        mitigation_enabled=mitigate,
    )
    if costs is not None:
        config = config.with_options(costs=costs)
    config.validate()
    return config


def hybrid(
    quota: Optional[int] = 10,
    screend: bool = False,
    costs: Optional[CostModel] = None,
) -> KernelConfig:
    """NAPI-style hybrid driver: per-device interrupt-arm → poll-drain
    → re-arm threads. The adaptive coalescing timer bound is a
    *machine* property (``MachineSpec.coalesce_us``), not a kernel one:
    the same kernel build runs with whatever timer the NIC offers."""
    config = KernelConfig(
        use_hybrid=True,
        poll_quota=quota,
        screend_enabled=screend,
    )
    if costs is not None:
        config = config.with_options(costs=costs)
    config.validate()
    return config


def driver_kind(config: KernelConfig) -> str:
    """The variant-name constant naming the driver ``config`` selects.

    The one place a :class:`KernelConfig` is mapped to a driver: the
    node builder (:func:`repro.experiments.topology.build_node`) and
    :func:`describe` both dispatch on it, so a result's label always
    names the driver that ran. ``validate()`` makes the ``use_*`` flags
    exclusive; ``emulate_unmodified`` is a mode of ``use_polling``.
    """
    if config.use_clocked_polling:
        return CLOCKED
    if config.use_high_ipl:
        return HIGH_IPL
    if config.use_hybrid:
        return HYBRID
    if config.emulate_unmodified:
        return MODIFIED_NO_POLLING
    if config.use_polling:
        return POLLING
    return UNMODIFIED


def describe(config: KernelConfig) -> str:
    """Human-readable variant label for a configuration."""
    kind = driver_kind(config)
    quota = "inf" if config.poll_quota is None else str(config.poll_quota)
    if kind == CLOCKED:
        label = "clocked(%.1f ms" % (config.clocked_poll_interval_ns / 1e6)
        if config.mitigation_enabled:
            label += ", mitigate"
        label += ")"
    elif kind in (HIGH_IPL, HYBRID):
        label = "%s(quota=%s)" % (kind, quota)
    elif kind == POLLING:
        label = "polling(quota=%s" % quota
        if config.feedback_enabled:
            label += ", feedback"
        if config.cycle_limit_fraction is not None:
            label += ", limit=%d%%" % round(config.cycle_limit_fraction * 100)
        if config.mitigation_enabled:
            label += ", mitigate"
        label += ")"
    else:
        label = kind
        if config.classic_input_feedback:
            label += "(input feedback)"
    if config.screend_enabled:
        label += " + screend"
    return label
