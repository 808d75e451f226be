"""End-system topology: receive livelock on a server, not a router.

The paper's motivating applications include network file service —
"servers for protocols such as NFS are commonly built from UNIX
systems" (§2) — and defines useful throughput as delivery "to their
ultimate consumers", which for an end-system is "an application running
on the receiving host" (§3).

:class:`EndHost` builds that scenario: one interface, arriving UDP
datagrams delivered locally through the UDP layer to a user-mode
consumer process (an RPC-server stand-in doing fixed work per request).
Goodput is requests *completed by the application*, so kernel-level
fixes that merely move the drop point don't score; only fixes that let
the application run do (the §7 cycle limit, primarily).
"""

from __future__ import annotations

from typing import Optional

from ..apps.sink import PacketSink
from ..core.cyclelimit import CycleLimiter
from ..core.feedback import QueueStateFeedback
from ..core.polling import PollingSystem
from ..core.variants import POLLING, driver_kind
from ..drivers.bsd import ClassicIPInput
from ..hw.nic import NIC
from ..kernel.config import KernelConfig
from ..kernel.kernel import Kernel
from ..net.arp import ArpTable
from ..net.ip import IPLayer
from ..net.routing import RoutingTable
from ..net.udp import UdpLayer
from ..net.addresses import parse_ip
from ..sim.probes import ProbeRegistry
from ..sim.simulator import Simulator
from .topology import build_node

#: Addressing for the end-host scenario.
HOST_IF = "eth0"
HOST_ADDR = "10.1.0.1"
CLIENT_NET = "10.1.0.0/16"
SERVICE_PORT = 2049  # the NFS port, fittingly

#: Default user-mode work per served request (≈ 80 µs at 150 MHz) —
#: a cheap RPC handler; the kernel path still dominates per packet.
DEFAULT_SERVICE_CYCLES = 12_000


class EndHost:
    """A receiving end-system with a user-mode consumer application."""

    def __init__(
        self,
        config: KernelConfig,
        sim: Optional[Simulator] = None,
        service_cycles: int = DEFAULT_SERVICE_CYCLES,
        socket_queue_limit: int = 64,
        socket_feedback: bool = False,
    ) -> None:
        """``socket_feedback`` applies §6.6.1's queue-state feedback to
        the *socket* queue ("the same queue-state feedback technique
        could be applied to other queues in the system") — requires the
        polling kernel."""
        config.validate()
        if config.screend_enabled:
            raise ValueError("screend is a router-scenario application")
        if socket_feedback and driver_kind(config) != POLLING:
            raise ValueError("socket_feedback requires the polling kernel")
        self.config = config
        self.sim = sim if sim is not None else Simulator()
        self.probes = ProbeRegistry(self.sim)
        self.kernel = Kernel(self.sim, config, self.probes)

        self.nic = NIC(
            self.sim,
            HOST_IF,
            self.probes,
            rx_ring_capacity=config.rx_ring_capacity,
            tx_ring_capacity=config.tx_ring_capacity,
        )
        self.routing = RoutingTable()
        self.routing.add(CLIENT_NET, HOST_IF)
        self.arp = ArpTable()
        self.ip = IPLayer(self.kernel, self.routing, self.arp)
        self.udp = UdpLayer(self.sim, self.probes)
        self.ip.set_udp(self.udp, [parse_ip(HOST_ADDR)])

        watermarks = {}
        if socket_feedback:
            watermarks = dict(
                high_watermark=max(1, int(socket_queue_limit * 0.75)),
                low_watermark=int(socket_queue_limit * 0.25),
            )
        self.socket = self.udp.bind(
            SERVICE_PORT, queue_limit=socket_queue_limit, **watermarks
        )
        self.server = PacketSink(
            self.kernel, self.socket, per_packet_cycles=service_cycles
        )

        stack = build_node(self.kernel, self.ip, ((HOST_IF, self.nic),))
        (self.driver,) = stack.drivers
        self.polling_systems = stack.polling_systems
        self.polling: Optional[PollingSystem] = stack.polling
        self.cycle_limiter: Optional[CycleLimiter] = stack.cycle_limiter
        self.ip_input: Optional[ClassicIPInput] = stack.ip_input
        self.socket_feedback: Optional[QueueStateFeedback] = None
        if socket_feedback:
            self.socket_feedback = QueueStateFeedback(
                self.kernel,
                self.polling,
                self.socket.queue,
                timeout_ticks=config.feedback_timeout_ticks,
            )
        self._started = False

    # ------------------------------------------------------------------

    def start(self) -> "EndHost":
        if self._started:
            raise RuntimeError("end host already started")
        self._started = True
        self.kernel.start()
        self.driver.attach()
        if self.ip_input is not None:
            self.ip_input.attach()
        for system in self.polling_systems:
            system.start()
        self.server.start()
        return self

    def run_for(self, duration_ns: int) -> None:
        self.sim.run_for(duration_ns)

    @property
    def requests_served(self) -> int:
        """Useful throughput: requests completed by the application."""
        return self.server.consumed.snapshot()

    def __repr__(self) -> str:
        from ..core.variants import describe

        return "EndHost(%s)" % describe(self.config)
