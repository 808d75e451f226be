"""Unit tests for the router topology builder."""

import pytest

from repro.core import variants
from repro.drivers import (
    BsdDriver,
    ClockedPollingDriver,
    HighIplDriver,
    HybridDriver,
    PolledDriver,
)
from repro.experiments.endhost import EndHost
from repro.experiments.multitopology import MultiInputRouter
from repro.experiments.topology import DEST_HOST, Router
from repro.net.addresses import parse_ip
from repro.sim.units import seconds


def test_unmodified_router_uses_bsd_drivers():
    router = Router(variants.unmodified())
    assert isinstance(router.driver_in, BsdDriver)
    assert isinstance(router.driver_out, BsdDriver)
    assert router.polling is None
    assert router.ip_input is not None


def test_polling_router_uses_polled_drivers():
    router = Router(variants.polling(quota=10))
    assert isinstance(router.driver_in, PolledDriver)
    assert router.polling is not None
    assert router.ip_input is None
    assert router.feedback is None
    assert router.cycle_limiter is None


def test_clocked_router_uses_clocked_drivers():
    router = Router(variants.clocked())
    assert isinstance(router.driver_in, ClockedPollingDriver)
    assert router.polling is None


def test_modified_no_polling_uses_classic_path_with_overhead():
    router = Router(variants.modified_no_polling())
    assert isinstance(router.driver_in, BsdDriver)
    assert router.driver_in.extra_rx_cycles > 0


def test_screend_wiring():
    router = Router(variants.polling(quota=10, screend=True))
    assert router.screend is not None
    assert router.screen_queue is not None
    assert router.screen_queue.high_watermark == 24
    assert router.screen_queue.low_watermark == 8
    assert router.feedback is not None


def test_feedback_without_screend_rejected():
    config = variants.polling(quota=10).with_options(feedback_enabled=True)
    with pytest.raises(ValueError):
        Router(config)


def test_cycle_limiter_wiring():
    router = Router(variants.polling(quota=5, cycle_limit=0.5))
    assert router.cycle_limiter is not None
    assert router.cycle_limiter.fraction == 0.5
    assert router.polling.cycle_limiter is router.cycle_limiter


def test_phantom_arp_entry_present():
    router = Router(variants.unmodified())
    assert router.arp.resolve(parse_ip(DEST_HOST)) is not None


def test_routing_covers_both_networks():
    router = Router(variants.unmodified())
    assert router.routing.lookup_text("10.2.7.7") == "out0"
    assert router.routing.lookup_text("10.1.7.7") == "in0"
    assert router.routing.lookup_text("192.168.0.1") is None


def test_double_start_rejected():
    router = Router(variants.unmodified()).start()
    with pytest.raises(RuntimeError):
        router.start()


def test_compute_added_after_start_still_runs():
    router = Router(variants.unmodified()).start()
    compute = router.add_compute_process()
    router.run_for(seconds(0.01))
    assert compute.cycles_used() > 0


def test_compute_attachment_is_single():
    router = Router(variants.unmodified())
    router.add_compute_process()
    with pytest.raises(RuntimeError):
        router.add_compute_process()


def test_delivered_counter_tracks_output_nic():
    router = Router(variants.unmodified()).start()
    from repro.workloads import ConstantRateGenerator

    ConstantRateGenerator(router.sim, router.nic_in, 1_000).start()
    router.run_for(seconds(0.1))
    assert router.delivered.snapshot() == router.nic_out.tx_completed.snapshot()
    assert router.delivered.snapshot() > 0


def test_repr_mentions_variant():
    router = Router(variants.polling(quota=5))
    assert "polling" in repr(router)


# ----------------------------------------------------------------------
# Variant x node-kind matrix: a label always names the driver that ran
# ----------------------------------------------------------------------

#: The driver class each variant-name constant stands for.
EXPECTED_DRIVER = {
    variants.UNMODIFIED: BsdDriver,
    variants.MODIFIED_NO_POLLING: BsdDriver,
    variants.POLLING: PolledDriver,
    variants.CLOCKED: ClockedPollingDriver,
    variants.HIGH_IPL: HighIplDriver,
    variants.HYBRID: HybridDriver,
}

VARIANT_FACTORIES = (
    variants.unmodified,
    variants.modified_no_polling,
    variants.polling,
    variants.clocked,
    variants.high_ipl,
    variants.hybrid,
)

#: Node kind -> (constructor, the drivers it built).
NODE_KINDS = {
    "Router": (Router, lambda node: [node.driver_in, node.driver_out]),
    "MultiInputRouter": (
        MultiInputRouter,
        lambda node: node.input_drivers + [node.driver_out],
    ),
    "EndHost": (EndHost, lambda node: [node.driver]),
}

#: The only cells allowed to refuse construction.
REJECTED = {
    ("MultiInputRouter", variants.CLOCKED),
    ("MultiInputRouter", variants.HIGH_IPL),
    ("MultiInputRouter", variants.HYBRID),
}


@pytest.mark.parametrize("factory", VARIANT_FACTORIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("node_kind", sorted(NODE_KINDS))
def test_every_node_kind_builds_the_driver_its_label_names(node_kind, factory):
    config = factory()
    kind = variants.driver_kind(config)
    build, drivers_of = NODE_KINDS[node_kind]
    if (node_kind, kind) in REJECTED:
        with pytest.raises(ValueError):
            build(config)
        return
    node = build(config)
    drivers = drivers_of(node)
    assert drivers
    for driver in drivers:
        assert type(driver) is EXPECTED_DRIVER[kind], (node, driver)
    assert kind in repr(node)


def test_driver_kind_matches_factory_names():
    for factory in VARIANT_FACTORIES:
        assert variants.driver_kind(factory()) == factory.__name__
