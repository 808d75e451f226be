"""Kernel core: CPU, clock, callouts, threads, and idle loop.

:class:`Kernel` owns the machine-level plumbing shared by every kernel
variant. The network stack (drivers, polling daemons, the classic IP
input queue) is assembled on top of it by
:func:`repro.experiments.topology.build_node` for every node kind,
keeping this module free of networking concerns.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..hw.clock import ClockDevice
from ..hw.cpu import (
    CLASS_IDLE,
    CLASS_KERNEL,
    CLASS_USER,
    CPU,
    UNBOUNDED_CYCLES,
    CpuTask,
)
from ..hw.interrupts import InterruptController, InterruptLine
from ..hw.machine import SINGLE_CORE, IRQSteering, MachineSpec, STEERING_RSS
from ..sim.probes import ProbeRegistry
from ..sim.process import ProcessBody, Work
from ..sim.randomness import RandomStreams
from ..sim.simulator import Simulator
from .callouts import Callout, CalloutTable
from .config import KernelConfig

#: Size of one idle-loop work chunk, microseconds. Between chunks core
#: 0's idle thread runs its hooks (re-enable input, clear cycle totals,
#: §7); the other cores' idle loops have no hooks and are not chunked.
IDLE_CHUNK_US = 100


class Kernel:
    """The simulated operating system kernel (machine layer)."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        config: Optional[KernelConfig] = None,
        probes: Optional[ProbeRegistry] = None,
        machine: Optional[MachineSpec] = None,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.config = config if config is not None else KernelConfig()
        self.config.validate()
        self.costs = self.config.costs
        self.probes = probes if probes is not None else ProbeRegistry(self.sim)
        self.machine = machine if machine is not None else SINGLE_CORE
        # Core 0 keeps the exact pre-SMP constructor calls (defaults for
        # name/index) so single-core trials stay byte-identical to the
        # golden fixture; extra cores and their controllers are built in
        # index order (the same-instant tie-break, DESIGN.md §14).
        self.cpu = CPU(
            self.sim,
            hz=self.costs.cpu_hz,
            context_switch_cycles=self.costs.context_switch,
        )
        self.interrupts = InterruptController(self.cpu)
        self.cpus: List[CPU] = [self.cpu]
        self.controllers: List[InterruptController] = [self.interrupts]
        for index in range(1, self.machine.cores):
            cpu = CPU(
                self.sim,
                hz=self.costs.cpu_hz,
                context_switch_cycles=self.costs.context_switch,
                name="cpu%d" % index,
                index=index,
            )
            self.cpus.append(cpu)
            self.controllers.append(InterruptController(cpu))
        self.callout_table = CalloutTable()
        self.ticks = 0
        self.clock = ClockDevice(
            self.sim,
            self.interrupts,
            self._clock_handler,
            tick_ns=self.config.clock_tick_ns,
            dispatch_cycles=self.costs.interrupt_dispatch,
        )
        #: Deterministic RNG streams for in-kernel randomness (RED).
        self.streams = RandomStreams(0)
        #: Device-IRQ → core map; built only on multi-core machines (the
        #: RSS salt draw would otherwise perturb nothing, but the object
        #: is simply meaningless with one core). The salt comes from the
        #: named ``"steering"`` stream so trials stay replayable.
        self.steering: Optional[IRQSteering] = None
        if self.machine.cores > 1:
            salt = 0
            if self.machine.steering == STEERING_RSS:
                salt = self.streams.stream("steering").getrandbits(32)
            self.steering = IRQSteering(self.machine, salt=salt)
        #: Hooks run from the idle thread (e.g. cycle-limit reset, §7).
        self.on_idle: List[Callable[[], None]] = []
        #: Hooks run once per clock tick, at clock IPL (cheap bookkeeping).
        self.on_tick: List[Callable[[int], None]] = []
        self.idle_task: Optional[CpuTask] = None
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the clock and (optionally) the idle threads."""
        if self._started:
            raise RuntimeError("kernel already started")
        self._started = True
        self.clock.start()
        if self.config.idle_thread:
            self.idle_task = self.cpu.spawn(
                self._idle_body(), "idle", priority_class=CLASS_IDLE
            )
            # Extra cores idle too, but only core 0's idle loop runs the
            # on_idle hooks — they are machine-wide, not per-core. The
            # idle task stays so that switching between it and a pinned
            # thread charges a context switch (DESIGN.md §14).
            for cpu in self.cpus[1:]:
                cpu.spawn(
                    self._idle_body(run_hooks=False),
                    "idle:%s" % cpu.name,
                    priority_class=CLASS_IDLE,
                )

    # ------------------------------------------------------------------
    # Thread creation
    # ------------------------------------------------------------------

    def kernel_thread(
        self, body: ProcessBody, name: str, core: int = 0
    ) -> CpuTask:
        """Spawn a kernel thread (beats every user process), optionally
        pinned to a core other than the housekeeping core."""
        return self.cpus[core].spawn(body, name, priority_class=CLASS_KERNEL)

    def user_process(self, body: ProcessBody, name: str) -> CpuTask:
        """Spawn a user process (timeshared, below kernel threads)."""
        return self.cpu.spawn(body, name, priority_class=CLASS_USER)

    # ------------------------------------------------------------------
    # Interrupt lines (device IRQs are steered on multi-core machines)
    # ------------------------------------------------------------------

    def irq_line(
        self,
        name: str,
        ipl: int,
        handler_factory,
        dispatch_cycles: int = 0,
    ) -> InterruptLine:
        """Create a *device* interrupt line on its steered core.

        Single-core machines delegate straight to the core-0 controller
        (the pre-SMP path, byte-identical); with more cores the
        :class:`~repro.hw.machine.IRQSteering` policy picks the target.
        Software interrupts (softnet) and the clock are not device
        lines: they stay on the housekeeping core via
        ``self.interrupts.line(...)``.
        """
        if self.steering is None:
            return self.interrupts.line(
                name, ipl, handler_factory, dispatch_cycles=dispatch_cycles
            )
        controller = self.controllers[self.steering.core_for(name)]
        return controller.line(
            name, ipl, handler_factory, dispatch_cycles=dispatch_cycles
        )

    def irq_lines(self) -> List[InterruptLine]:
        """Every interrupt line on every core, in (core, creation) order."""
        if len(self.controllers) == 1:
            return self.interrupts.lines
        out: List[InterruptLine] = []
        for controller in self.controllers:
            out.extend(controller.lines)
        return out

    # ------------------------------------------------------------------
    # Callouts
    # ------------------------------------------------------------------

    def callout(self, delay_ticks: int, func: Callable[[], None]) -> Callout:
        """Run ``func`` from the clock handler ``delay_ticks`` ticks from now."""
        return self.callout_table.schedule(self.ticks, delay_ticks, func)

    # ------------------------------------------------------------------
    # Clock interrupt handler (runs at IPL_CLOCK)
    # ------------------------------------------------------------------

    def _clock_handler(self) -> ProcessBody:
        yield Work(self.costs.clock_tick)
        self.ticks += 1
        for hook in self.on_tick:
            hook(self.ticks)
        due = self.callout_table.due(self.ticks)
        for callout in due:
            yield Work(self.costs.callout_run)
            callout.func()
            self.callout_table.executed += 1
        self._rotate_quantum()

    def _rotate_quantum(self) -> None:
        """Round-robin rotation of the interrupted user thread when its
        quantum expires (sampled at clock ticks, like real hardclock)."""
        if self.ticks % self.config.quantum_ticks != 0:
            return
        for cpu in self.cpus:
            interrupted = cpu.last_thread
            if (
                interrupted is not None
                and interrupted.priority_class == CLASS_USER
                and interrupted.alive
            ):
                cpu.requeue_behind(interrupted)

    # ------------------------------------------------------------------
    # Idle thread
    # ------------------------------------------------------------------

    def _idle_body(self, run_hooks: bool = True) -> ProcessBody:
        if not run_hooks:
            # Nothing to run between chunks: one unbounded run that
            # preemption slices, firing no completion events.
            while True:
                yield Work(UNBOUNDED_CYCLES)
        chunk_cycles = self.costs.cpu_hz // 1_000_000 * IDLE_CHUNK_US
        while True:
            for hook in self.on_idle:
                hook()
            yield Work(chunk_cycles)

    def __repr__(self) -> str:
        return "Kernel(t=%d ns, ticks=%d)" % (self.sim.now, self.ticks)
