"""Router-under-test topology (§6.1 methodology).

"Our test configuration consisted of a router-under-test connecting two
otherwise unloaded Ethernets. A source host generated IP/UDP packets at
a variety of rates, and sent them via the router to a destination
address. (The destination host did not exist; we fooled the router by
inserting a phantom entry into its ARP table.)"

:class:`Router` assembles one complete router from a
:class:`~repro.kernel.config.KernelConfig`: kernel, two NICs, routing
and ARP tables, the IP layer, the drivers matching the configured
variant, and optionally screend, a compute-bound process, and taps.
The traffic generator is attached by the harness to the input NIC.

:func:`build_node` builds the variant's drivers (and polling daemons
or classic IP input queue) for every node kind: this router, the
multi-input router and the end host.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..apps.compute import ComputeBoundProcess
from ..apps.monitor import PacketFilterTap, PassiveMonitor
from ..apps.screend import Screend, ScreenRule
from ..core.cyclelimit import CycleLimiter
from ..core.feedback import QueueStateFeedback
from ..core.polling import PollingSystem
from ..core.quota import PollQuota
from ..core.variants import (
    CLOCKED,
    HIGH_IPL,
    HYBRID,
    MODIFIED_NO_POLLING,
    POLLING,
    UNMODIFIED,
    driver_kind,
)
from ..drivers.base import Driver
from ..drivers.bsd import BsdDriver, ClassicIPInput
from ..drivers.clocked import ClockedPollingDriver
from ..drivers.highipl import HighIplDriver
from ..drivers.hybrid import HybridDriver
from ..drivers.polled import PolledDriver
from ..hw.link import Wire
from ..hw.machine import SINGLE_CORE, MachineSpec
from ..hw.nic import NIC
from ..kernel.config import KernelConfig
from ..kernel.kernel import Kernel
from ..kernel.queues import PacketQueue
from ..metrics.latency import LatencyRecorder
from ..net.arp import ArpTable
from ..net.ip import IPLayer, ScreenPath
from ..net.packet import PacketPool
from ..net.routing import RoutingTable
from .._fastcore import packetpath
from ..sim.probes import ProbeRegistry
from ..sim.signals import Signal
from ..sim.simulator import Simulator
from ..trace.buffer import CPU_ACCOUNT, PKT_DELIVER

#: Canonical addressing used by all experiments.
INPUT_IF = "in0"
OUTPUT_IF = "out0"
SOURCE_NET = "10.1.0.0/16"
DEST_NET = "10.2.0.0/16"
SOURCE_HOST = "10.1.0.2"
DEST_HOST = "10.2.0.2"  # does not exist; phantom ARP entry
PHANTOM_LINK_ADDR = "08:00:2b:00:00:99"


class NodeStack(NamedTuple):
    """The network stack :func:`build_node` assembles on a kernel."""

    #: One driver per interface, in interface order.
    drivers: List[Driver]
    #: Polling daemons (empty unless the kernel polls).
    polling_systems: List[PollingSystem]
    #: The shared ``ipintrq`` + IP thread of the classic kernels.
    ip_input: Optional[ClassicIPInput]
    #: The §7 cycle limiter, when configured on a polling kernel.
    cycle_limiter: Optional[CycleLimiter]

    @property
    def polling(self) -> Optional[PollingSystem]:
        return self.polling_systems[0] if self.polling_systems else None


def build_node(
    kernel: Kernel,
    ip: IPLayer,
    interfaces: Sequence[Tuple[str, NIC]],
    quota=None,
) -> NodeStack:
    """Build the drivers ``kernel.config`` selects for ``interfaces``.

    ``interfaces`` are ``(name, nic)`` pairs; each driver's output path
    is registered with ``ip`` under its name. The variant comes from
    :func:`~repro.core.variants.driver_kind` — the same decision that
    labels the result. Driver *i* registers with
    ``polling_systems[i % len]``, and a hybrid driver is pinned to
    ``polling_cores[i % len]`` of ``kernel.machine``. ``quota`` (int /
    :class:`PollQuota`) overrides the config's poll quota for the
    polling daemons. Nothing is started.
    """
    config = kernel.config
    kind = driver_kind(config)
    machine = kernel.machine
    polling_cores = machine.polling_cores()
    polling_systems: List[PollingSystem] = []
    ip_input: Optional[ClassicIPInput] = None
    cycle_limiter: Optional[CycleLimiter] = None
    if kind in (UNMODIFIED, MODIFIED_NO_POLLING):
        ip_input = ClassicIPInput(kernel, ip)
        extra = (
            config.costs.modified_compat_overhead
            if kind == MODIFIED_NO_POLLING
            else 0
        )

        def make(index, name, nic):
            return BsdDriver(
                kernel, nic, ip, ip_input, name, extra_rx_cycles=extra
            )

    elif kind == POLLING:
        if config.cycle_limit_fraction is not None:
            cycle_limiter = CycleLimiter(kernel, config.cycle_limit_fraction)
        poll_quota = PollQuota.of(config.poll_quota if quota is None else quota)
        if len(polling_cores) > 1 and cycle_limiter is None:
            # Dedicated polling cores: one daemon per core. (The §7
            # cycle limit is defined against one polling thread's usage,
            # so a cycle-limited kernel keeps the single daemon.)
            polling_systems = [
                PollingSystem(
                    kernel, quota=poll_quota, name="netpoll%d" % index, core=core
                )
                for index, core in enumerate(polling_cores)
            ]
        else:
            polling_systems = [
                PollingSystem(
                    kernel,
                    quota=poll_quota,
                    cycle_limiter=cycle_limiter,
                    core=polling_cores[0],
                )
            ]

        def make(index, name, nic):
            return PolledDriver(kernel, nic, ip, name)

    elif kind == HIGH_IPL:

        def make(index, name, nic):
            return HighIplDriver(kernel, nic, ip, name, quota=config.poll_quota)

    elif kind == HYBRID:

        def make(index, name, nic):
            return HybridDriver(
                kernel,
                nic,
                ip,
                name,
                quota=config.poll_quota,
                coalesce_max_ns=machine.coalesce_ns,
                core=polling_cores[index % len(polling_cores)],
            )

    else:  # CLOCKED

        def make(index, name, nic):
            return ClockedPollingDriver(
                kernel,
                nic,
                ip,
                name,
                poll_interval_ns=config.clocked_poll_interval_ns,
                quota=config.poll_quota,
            )

    drivers = [make(index, name, nic) for index, (name, nic) in enumerate(interfaces)]
    for index, driver in enumerate(drivers):
        if polling_systems:
            polling_systems[index % len(polling_systems)].register(driver)
        ip.register_output(driver.name, driver.output)
    return NodeStack(drivers, polling_systems, ip_input, cycle_limiter)


class Router:
    """A fully wired router-under-test."""

    def __init__(
        self,
        config: KernelConfig,
        sim: Optional[Simulator] = None,
        screen_rule: Optional[ScreenRule] = None,
        recycle_packets: bool = True,
        machine: Optional[MachineSpec] = None,
    ) -> None:
        config.validate()
        self.config = config
        #: Core topology (:class:`~repro.hw.machine.MachineSpec`); the
        #: default is the paper's single-core machine, byte-identical to
        #: the pre-SMP router.
        self.machine = machine if machine is not None else SINGLE_CORE
        self.sim = sim if sim is not None else Simulator()
        self.probes = ProbeRegistry(self.sim)
        self.kernel = Kernel(self.sim, config, self.probes, machine=self.machine)
        #: Freelist for the per-packet fast path: generators draw from
        #: it, and the router returns each packet once its transmission
        #: on the output wire completes (RX-overflow rejects are
        #: returned by the generator itself). Pass
        #: ``recycle_packets=False`` — or call ``packet_pool.disable()``
        #: — when test code retains packet references past those points.
        self.packet_pool = PacketPool(enabled=recycle_packets)

        # --- interfaces -------------------------------------------------
        self.nic_in = NIC(
            self.sim,
            INPUT_IF,
            self.probes,
            rx_ring_capacity=config.rx_ring_capacity,
            tx_ring_capacity=config.tx_ring_capacity,
        )
        self.nic_out = NIC(
            self.sim,
            OUTPUT_IF,
            self.probes,
            rx_ring_capacity=config.rx_ring_capacity,
            tx_ring_capacity=config.tx_ring_capacity,
        )

        # --- network layer ----------------------------------------------
        self.routing = RoutingTable()
        self.routing.add(DEST_NET, OUTPUT_IF)
        self.routing.add(SOURCE_NET, INPUT_IF)
        self.arp = ArpTable()
        self.arp.add_entry(DEST_HOST, PHANTOM_LINK_ADDR)  # the §6.1 trick
        self.arp.add_entry(SOURCE_HOST, "08:00:2b:00:00:01")
        self.ip = IPLayer(self.kernel, self.routing, self.arp)

        # --- screend ------------------------------------------------------
        self.screend: Optional[Screend] = None
        self.screen_queue: Optional[PacketQueue] = None
        if config.screend_enabled:
            self.screen_queue = PacketQueue(
                "screenq",
                config.screen_queue_limit,
                self.probes,
                high_watermark=config.screen_queue_high,
                low_watermark=config.screen_queue_low,
            )
            path = ScreenPath(
                self.screen_queue, Signal(self.sim, "screenq.data")
            )
            self.ip.set_screen_path(path)
            self.screend = Screend(self.kernel, self.ip, path, rule=screen_rule)

        # --- drivers (variant-dependent) ----------------------------------
        stack = build_node(
            self.kernel,
            self.ip,
            ((INPUT_IF, self.nic_in), (OUTPUT_IF, self.nic_out)),
        )
        self.driver_in, self.driver_out = stack.drivers
        #: Every polling daemon; normally ``[self.polling]``. Multi-core
        #: machines with dedicated polling cores run one system per core
        #: with the devices partitioned across them.
        self.polling_systems = stack.polling_systems
        self.polling: Optional[PollingSystem] = stack.polling
        self.cycle_limiter: Optional[CycleLimiter] = stack.cycle_limiter
        self.ip_input: Optional[ClassicIPInput] = stack.ip_input
        self.feedback: Optional[QueueStateFeedback] = None
        if config.feedback_enabled and self.polling is not None:
            if self.screen_queue is None:
                raise ValueError(
                    "feedback_enabled requires screend (the screening queue)"
                )
            self.feedback = QueueStateFeedback(
                self.kernel,
                self.polling,
                self.screen_queue,
                timeout_ticks=config.feedback_timeout_ticks,
            )

        # --- measurement ---------------------------------------------------
        self.delivered = self.probes.counter("router.delivered")
        # --- closed-loop mitigation (opt-in; schedules its own periodic
        # sampling event, so it is a determinism axis like the watchdog) --
        self.mitigation = None
        if config.mitigation_enabled:
            from ..core.mitigation import MitigationController

            self.mitigation = MitigationController(
                self.kernel,
                config,
                self.nic_in,
                self.delivered,
                polling=self.polling,
                clocked_drivers=(
                    stack.drivers if driver_kind(config) == CLOCKED else ()
                ),
                queues=(
                    (self.screen_queue,) if self.screen_queue is not None else ()
                ),
            )
        self.latency = LatencyRecorder(self.sim)
        self.nic_out.on_transmit = self._on_output_transmit
        self.nic_in.on_transmit = self._on_input_transmit
        self.compute: Optional[ComputeBoundProcess] = None
        self.monitor: Optional[PassiveMonitor] = None
        #: Armed fault injector (:meth:`arm_faults`) and the faulty input
        #: wire generators should send through; both None fault-free.
        self.faults = None
        self.wire_in: Optional[Wire] = None
        #: Armed trace buffer (:meth:`attach_trace`); None when untraced.
        self.trace = None
        self._started = False
        self._teardown_report: Optional[dict] = None
        # Compiled per-packet fast path (no-op off the fast-c backend).
        # Arming faults, a trace, or a monitor tears it back out; the
        # sanitizer never sees it because it forces the pure backend.
        packetpath.install(self)

    # ------------------------------------------------------------------
    # Optional applications
    # ------------------------------------------------------------------

    def add_compute_process(self) -> ComputeBoundProcess:
        """Attach the §7 compute-bound progress probe."""
        if self.compute is not None:
            raise RuntimeError("compute process already attached")
        self.compute = ComputeBoundProcess(self.kernel)
        if self._started:
            self.compute.start()
        return self.compute

    def add_monitor(self, queue_limit: int = 32) -> PassiveMonitor:
        """Attach a passive packet-filter monitor (§2)."""
        if self.monitor is not None:
            raise RuntimeError("monitor already attached")
        packetpath.uninstall(self)
        # The tap queues references to forwarded packets beyond the
        # transmit-complete release point, so recycling is unsafe here.
        self.packet_pool.disable()
        tap = PacketFilterTap(self.kernel, queue_limit=queue_limit)
        self.ip.taps.append(tap)
        self.monitor = PassiveMonitor(self.kernel, tap)
        if self._started:
            self.monitor.start()
        return self.monitor

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def arm_faults(self, plan):
        """Arm a :class:`~repro.faults.FaultPlan` into this router.

        Must run before :meth:`start`. Returns the armed
        :class:`~repro.faults.FaultInjector`; when the plan carries link
        faults, :attr:`wire_in` is the faulty wire the harness hands to
        the traffic generator.
        """
        from ..faults import FaultInjector

        if self.faults is not None:
            raise RuntimeError("faults already armed on this router")
        packetpath.uninstall(self)
        injector = FaultInjector(plan, self.sim, self.probes)
        injector.arm(self)
        self.faults = injector
        if plan.wire_armed:
            self.wire_in = Wire(self.nic_in, pool=self.packet_pool, faults=injector)
        return injector

    # ------------------------------------------------------------------
    # Lifecycle and measurement
    # ------------------------------------------------------------------

    def start(self) -> "Router":
        if self._started:
            raise RuntimeError("router already started")
        self._started = True
        self.kernel.start()
        self.driver_in.attach()
        self.driver_out.attach()
        if self.ip_input is not None:
            self.ip_input.attach()
        if self.faults is not None:
            # The drivers have created their interrupt lines by now, so
            # the injector can attach its IRQ-fault hook.
            self.faults.bind_lines()
        for system in self.polling_systems:
            system.start()
        if self.mitigation is not None:
            self.mitigation.start()
        if self.screend is not None:
            self.screend.start()
        if self.compute is not None:
            self.compute.start()
        if self.monitor is not None:
            self.monitor.start()
        packetpath.install_started(self)
        return self

    def attach_trace(self, buffer) -> "Router":
        """Arm a :class:`~repro.trace.TraceBuffer` on every hook site.

        Must run after :meth:`start` (drivers create their interrupt
        lines there). Every hook is a single ``is None`` check on the
        untraced fast path; arming replaces the None with ``buffer``
        and registers one CPU-accounting observer (the observer list is
        only walked when a task is actually charged time).
        """
        if not self._started:
            raise RuntimeError("attach_trace requires a started router")
        if self.trace is not None:
            raise RuntimeError("trace already attached to this router")
        packetpath.uninstall(self)
        buffer.bind(self.sim)
        self.trace = buffer
        self.nic_in.trace = buffer
        self.nic_out.trace = buffer
        cpu = self.kernel.cpu
        cpu.trace = buffer
        record = buffer.record

        def _account(task, elapsed, _record=record):
            _record(CPU_ACCOUNT, task.name, elapsed, task._eff_ipl)

        cpu.account_observers.append(_account)
        # Extra cores account under a "cpuN/" site prefix; the Perfetto
        # exporter splits these onto per-core tracks. Core 0 keeps bare
        # task names, so single-core traces are byte-identical.
        for extra in self.kernel.cpus[1:]:
            extra.trace = buffer

            def _account_core(
                task, elapsed, _record=record, _prefix=extra.name + "/"
            ):
                _record(CPU_ACCOUNT, _prefix + task.name, elapsed, task._eff_ipl)

            extra.account_observers.append(_account_core)
        for line in self.kernel.irq_lines():
            line.trace = buffer
        for driver in (self.driver_in, self.driver_out):
            driver.trace = buffer
            driver.ifqueue.trace = buffer
        if self.ip_input is not None:
            self.ip_input.ipintrq.trace = buffer
        if self.screen_queue is not None:
            self.screen_queue.trace = buffer
        for system in self.polling_systems:
            system.trace = buffer
        if self.feedback is not None:
            self.feedback.trace = buffer
        if self.cycle_limiter is not None:
            self.cycle_limiter.trace = buffer
        if self.mitigation is not None:
            self.mitigation.trace = buffer
        return self

    def _on_output_transmit(self, packet) -> None:
        # "Opkts" on the output interface — the paper's measured quantity.
        self.delivered.increment()
        self.latency.observe(packet)
        trace = self.trace
        if trace is not None:
            trace.packet_deliver(self.nic_out.name, packet)
        # The packet has left the router: nothing downstream holds a
        # reference (the phantom destination host does not exist), so it
        # goes back to the freelist for the generator to reuse.
        pool = self.packet_pool
        if pool.enabled:
            pool.release(packet)

    def _on_input_transmit(self, packet) -> None:
        # Traffic routed back out the input interface (none in the
        # standard experiments, but possible with source-net destinations)
        # also leaves the router for good here.
        pool = self.packet_pool
        if pool.enabled:
            pool.release(packet)

    def run_for(self, duration_ns: int) -> None:
        self.sim.run_for(duration_ns)

    # ------------------------------------------------------------------
    # Teardown (mid-flight abort / end-of-trial reconciliation)
    # ------------------------------------------------------------------

    def teardown(self, drain_ns: int = 0) -> dict:
        """End the trial: disarm faults, optionally let in-flight work
        drain, recover every packet still parked in hardware rings or
        kernel queues, and reconcile the packet pool's books.

        The caller must stop its traffic generators first. After an
        optional fault-free drain window of ``drain_ns`` (which lets
        suspended handler/daemon frames finish the packets they hold),
        the rings and queues are emptied and their packets released, so
        the pool's ``outstanding`` count should equal exactly the
        interior drops plus locally-delivered packets; the difference is
        reported as ``leaked``. Idempotent — the first report is cached.
        The simulation must not be resumed afterwards.
        """
        if self._teardown_report is not None:
            return self._teardown_report
        if self.faults is not None:
            self.faults.disarm()
        if drain_ns > 0:
            self.sim.run_for(drain_ns)

        pool = self.packet_pool
        recovered = []
        recovered.extend(self.nic_in.drain())
        recovered.extend(self.nic_out.drain())
        queues = [self.driver_in.ifqueue, self.driver_out.ifqueue]
        if self.ip_input is not None:
            queues.append(self.ip_input.ipintrq)
        if self.screen_queue is not None:
            queues.append(self.screen_queue)
        for queue in queues:
            recovered.extend(queue.drain())
        # Packets trapped inside suspended processing frames (a handler,
        # the netisr thread, screend) at the abort instant.
        for context in (self.driver_in, self.driver_out, self.ip_input, self.screend):
            if context is None:
                continue
            in_flight = context.in_flight
            if in_flight is not None:
                if isinstance(in_flight, list):
                    recovered.extend(in_flight)
                else:
                    recovered.append(in_flight)
                context.in_flight = None
        if pool.enabled:
            for packet in recovered:
                try:
                    pool.release(packet)
                except AttributeError:
                    pass  # foreign payload without pool bookkeeping (tests)

        interior_drops = self._interior_drop_count()
        retained = self.ip.local_delivered.value
        report = {
            "recovered": len(recovered),
            "interior_drops": interior_drops,
            "retained": retained,
            "outstanding": pool.outstanding,
            # Only meaningful with the pool enabled: a disabled pool
            # ignores releases, so its books cannot balance.
            "leaked": (
                pool.outstanding - interior_drops - retained
                if pool.enabled
                else None
            ),
        }
        self._teardown_report = report
        return report

    def _interior_drop_count(self) -> int:
        """Packets dropped *inside* the router — the points where the
        ownership protocol deliberately abandons pool packets to the GC.
        An explicit enumeration: substring-matching counter names would
        silently sweep in non-packet events (or miss new drop sites)."""
        total = (
            self.driver_in.ifqueue.drop_count
            + self.driver_out.ifqueue.drop_count
            + self.ip.no_route_drops.value
            + self.ip.arp_failure_drops.value
        )
        if self.ip.corrupt_drops is not None:
            total += self.ip.corrupt_drops.value
        if self.ip_input is not None:
            total += self.ip_input.ipintrq.drop_count
        if self.screen_queue is not None:
            total += self.screen_queue.drop_count
        if self.screend is not None:
            total += self.screend.rejected.value
        return total

    def __repr__(self) -> str:
        from ..core.variants import describe

        return "Router(%s)" % describe(self.config)
