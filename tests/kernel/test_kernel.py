"""Unit tests for the kernel core: clock handler, callouts, quantum
rotation, idle thread."""

import pytest

from repro.hw.cpu import CLASS_USER
from repro.hw.machine import MachineSpec
from repro.kernel import Kernel, KernelConfig
from repro.sim import Simulator, Work
from repro.sim.units import NS_PER_MS, seconds


def make_kernel(**options):
    config = KernelConfig().with_options(**options) if options else KernelConfig()
    kernel = Kernel(config=config)
    return kernel


def test_clock_ticks_advance():
    kernel = make_kernel()
    kernel.start()
    # Run just past the 10th tick (the handler takes ~35 us to run).
    kernel.sim.run(until=seconds(0.0105))
    assert kernel.ticks == 10
    assert kernel.clock.ticks == 10


def test_double_start_rejected():
    kernel = make_kernel()
    kernel.start()
    with pytest.raises(RuntimeError):
        kernel.start()


def test_callout_runs_from_clock_handler():
    kernel = make_kernel()
    kernel.start()
    fired = []
    kernel.callout(3, lambda: fired.append(kernel.ticks))
    kernel.sim.run(until=seconds(0.01))
    assert fired == [3]


def test_callout_cancellation():
    kernel = make_kernel()
    kernel.start()
    fired = []
    callout = kernel.callout(3, lambda: fired.append(1))
    callout.cancel()
    kernel.sim.run(until=seconds(0.01))
    assert fired == []


def test_on_tick_hooks_called_each_tick():
    kernel = make_kernel()
    kernel.start()
    ticks = []
    kernel.on_tick.append(ticks.append)
    kernel.sim.run(until=seconds(0.0055))
    assert ticks == [1, 2, 3, 4, 5]


def test_quantum_rotation_shares_cpu_between_user_processes():
    kernel = make_kernel(idle_thread=False, quantum_ticks=10)
    kernel.start()
    chunk = kernel.costs.cpu_hz // 1_000  # 1 ms of work per chunk

    def hog():
        while True:
            yield Work(chunk)

    task_a = kernel.user_process(hog(), "a")
    task_b = kernel.user_process(hog(), "b")
    kernel.sim.run(until=seconds(0.5))
    total = task_a.cycles_used + task_b.cycles_used
    assert total > 0
    # Round-robin: neither hog gets more than ~65% of the user CPU.
    assert task_a.cycles_used / total > 0.35
    assert task_b.cycles_used / total > 0.35


def test_kernel_thread_priority_beats_user():
    kernel = make_kernel(idle_thread=False)
    kernel.start()
    order = []

    def kernel_work():
        yield Work(1_000)
        order.append("kernel")

    def user_work():
        yield Work(1_000)
        order.append("user")

    kernel.user_process(user_work(), "user")
    kernel.kernel_thread(kernel_work(), "kthread")
    kernel.sim.run(until=seconds(0.001))
    assert order == ["kernel", "user"]


def test_idle_thread_runs_hooks_when_idle():
    kernel = make_kernel()
    kernel.start()
    calls = []
    kernel.on_idle.append(lambda: calls.append(kernel.sim.now))
    kernel.sim.run(until=seconds(0.01))
    assert len(calls) > 10  # idle almost the whole time


def test_idle_hooks_not_called_while_busy():
    kernel = make_kernel()
    kernel.start()
    calls = []
    kernel.on_idle.append(lambda: calls.append(kernel.sim.now))

    busy_cycles = kernel.costs.cpu_hz // 100  # 10 ms of solid work

    def hog():
        yield Work(busy_cycles)

    kernel.user_process(hog(), "hog")
    kernel.sim.run(until=seconds(0.009))
    # Idle thread starved while the hog runs (only the initial call at
    # t~0 may appear, before the hog was dispatched).
    assert len(calls) <= 1


def test_clock_overhead_fraction_is_small():
    """Sanity: an idle kernel burns only a few per cent of the CPU."""
    kernel = make_kernel(idle_thread=False)
    kernel.start()
    kernel.sim.run(until=seconds(0.1))
    busy_fraction = kernel.cpu.busy_ns / kernel.sim.now
    assert 0.01 < busy_fraction < 0.08, busy_fraction


def test_idle_loop_is_not_busy_time():
    """The idle thread's time never counts as busy: an idle kernel
    reads the same busy time with and without it."""
    busy = []
    for idle_thread in (False, True):
        kernel = make_kernel(idle_thread=idle_thread)
        kernel.start()
        kernel.sim.run(until=seconds(0.05))
        busy.append(kernel.cpu.busy_ns)
    assert busy[0] == busy[1] > 0


class _LabelRecorder(Simulator):
    """A simulator that remembers the label of every scheduled event."""

    def __init__(self):
        super().__init__()
        self.labels = []

    def schedule(self, delay, callback, *args, label=None):
        self.labels.append(label)
        return super().schedule(delay, callback, *args, label=label)


def test_hookless_idle_cores_fire_no_events():
    """Cores 1..3 idle in one unbounded run: an unloaded 4-core kernel
    schedules no idle work event for them, while core 0's idle loop
    still runs its hooks between 100 us chunks."""
    sim = _LabelRecorder()
    kernel = Kernel(sim=sim, machine=MachineSpec(cores=4))
    calls = []
    kernel.on_idle.append(lambda: calls.append(sim.now))
    kernel.start()
    sim.run(until=seconds(0.01))
    assert not [label for label in sim.labels
                if label and label.startswith("work:idle:cpu")]
    assert sim.labels.count("work:idle") > 50
    assert len(calls) > 50
    for cpu in kernel.cpus[1:]:
        assert cpu.current_task.name == "idle:%s" % cpu.name
        assert cpu.busy_ns == 0
