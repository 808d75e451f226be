"""Multi-input router: fairness across event sources (§5.2).

"We can provide fairness by carefully polling all sources of packet
events, using a round-robin schedule ... to prevent a single input
stream from monopolizing the CPU."

:class:`MultiInputRouter` builds a router with N input interfaces, each
on its own source network, all forwarding to one output Ethernet. The
fairness experiments flood one input while others carry light traffic:

* the classic kernel funnels every interface into the shared ``ipintrq``,
  so the flood's packets crowd out the light flows (and the light flows'
  device-level work is wasted on drops);
* the polled kernel round-robins the interfaces with a quota, so light
  flows ride through untouched while the flood takes all the drops — at
  its own interface, for free.

Per-flow delivered counters let experiments quantify exactly that.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.cyclelimit import CycleLimiter
from ..core.polling import PollingSystem
from ..core.variants import MODIFIED_NO_POLLING, POLLING, UNMODIFIED, driver_kind
from ..drivers.bsd import ClassicIPInput
from ..hw.nic import NIC
from ..kernel.config import KernelConfig
from ..kernel.kernel import Kernel
from ..metrics.latency import LatencyRecorder
from ..net.arp import ArpTable
from ..net.ip import IPLayer
from ..net.packet import PacketPool
from ..net.routing import RoutingTable
from ..sim.probes import ProbeRegistry
from ..sim.simulator import Simulator
from .topology import build_node

OUTPUT_IF = "out0"
DEST_NET = "10.2.0.0/16"
DEST_HOST = "10.2.0.2"
PHANTOM_LINK_ADDR = "08:00:2b:00:00:99"

#: Driver kinds the fairness experiments compare; the others raise
#: ValueError rather than silently building one of these.
SUPPORTED_KINDS = (UNMODIFIED, MODIFIED_NO_POLLING, POLLING)


def input_interface_name(index: int) -> str:
    return "in%d" % index


def input_source_address(index: int) -> str:
    """Source host address on input network ``index``."""
    return "10.%d.0.2" % (10 + index)


def input_source_network(index: int) -> str:
    return "10.%d.0.0/16" % (10 + index)


class MultiInputRouter:
    """A router with ``input_count`` input Ethernets and one output."""

    def __init__(
        self,
        config: KernelConfig,
        input_count: int = 2,
        sim: Optional[Simulator] = None,
        quota=None,
    ) -> None:
        """``quota`` (int / None / :class:`PollQuota`) overrides the
        config's single poll quota; a :class:`PollQuota` with unlimited
        ``tx`` keeps the shared output queue drained when several inputs
        feed one output (N x rx-quota admissions per round must not
        outpace the output callback)."""
        config.validate()
        if input_count < 1:
            raise ValueError("need at least one input interface")
        kind = driver_kind(config)
        if kind not in SUPPORTED_KINDS:
            raise ValueError(
                "MultiInputRouter supports the classic and polled kernels, "
                "not %s" % kind
            )
        if config.screend_enabled:
            raise ValueError("screend experiments use the two-port Router")
        self.config = config
        self.input_count = input_count
        self.sim = sim if sim is not None else Simulator()
        self.probes = ProbeRegistry(self.sim)
        self.kernel = Kernel(self.sim, config, self.probes)

        self.input_nics: List[NIC] = [
            NIC(
                self.sim,
                input_interface_name(index),
                self.probes,
                rx_ring_capacity=config.rx_ring_capacity,
                tx_ring_capacity=config.tx_ring_capacity,
            )
            for index in range(input_count)
        ]
        self.nic_out = NIC(
            self.sim,
            OUTPUT_IF,
            self.probes,
            rx_ring_capacity=config.rx_ring_capacity,
            tx_ring_capacity=config.tx_ring_capacity,
        )

        self.routing = RoutingTable()
        self.routing.add(DEST_NET, OUTPUT_IF)
        for index in range(input_count):
            self.routing.add(input_source_network(index), input_interface_name(index))
        self.arp = ArpTable()
        self.arp.add_entry(DEST_HOST, PHANTOM_LINK_ADDR)
        self.ip = IPLayer(self.kernel, self.routing, self.arp)

        stack = build_node(
            self.kernel,
            self.ip,
            [
                (input_interface_name(index), nic)
                for index, nic in enumerate(self.input_nics)
            ]
            + [(OUTPUT_IF, self.nic_out)],
            quota=quota,
        )
        self.input_drivers: List = stack.drivers[:-1]
        self.driver_out = stack.drivers[-1]
        self.polling_systems = stack.polling_systems
        self.polling: Optional[PollingSystem] = stack.polling
        self.ip_input: Optional[ClassicIPInput] = stack.ip_input
        self.cycle_limiter: Optional[CycleLimiter] = stack.cycle_limiter

        self.delivered = self.probes.counter("router.delivered")
        self.latency = LatencyRecorder(self.sim)
        self.nic_out.on_transmit = self._on_output_transmit
        #: Shared freelist for all of this router's traffic generators
        #: (multi-NIC trials multiply the per-packet allocation cost).
        self.packet_pool = PacketPool()
        self._flow_counters: Dict[str, int] = {}
        self._started = False

    # ------------------------------------------------------------------

    def start(self) -> "MultiInputRouter":
        if self._started:
            raise RuntimeError("router already started")
        self._started = True
        self.kernel.start()
        for driver in self.input_drivers:
            driver.attach()
        self.driver_out.attach()
        if self.ip_input is not None:
            self.ip_input.attach()
        for system in self.polling_systems:
            system.start()
        return self

    def _on_output_transmit(self, packet) -> None:
        self.delivered.increment()
        self.latency.observe(packet)
        flow = getattr(packet, "flow", "default")
        self._flow_counters[flow] = self._flow_counters.get(flow, 0) + 1
        pool = self.packet_pool
        if pool.enabled:
            pool.release(packet)

    def delivered_by_flow(self) -> Dict[str, int]:
        """Packets delivered on the output wire, keyed by flow label."""
        return dict(self._flow_counters)

    def run_for(self, duration_ns: int) -> None:
        self.sim.run_for(duration_ns)

    def __repr__(self) -> str:
        from ..core.variants import describe

        return "MultiInputRouter(%s, inputs=%d)" % (
            describe(self.config),
            self.input_count,
        )
