"""Unit tests for the preemptive CPU model (IPLs, work conservation)."""

import pytest

from repro.sim import Signal, Simulator, Sleep, WaitSignal, Work
from repro.sim.units import cycles_to_ns
from repro.hw import (
    CLASS_IDLE,
    CLASS_KERNEL,
    CLASS_USER,
    CPU,
    IPL_DEVICE,
    IPL_NONE,
    IPL_SOFTNET,
    Spl,
)
from repro.hw.cpu import UNBOUNDED_CYCLES, UNBOUNDED_HORIZON_NS

HZ = 100_000_000  # 100 MHz -> 1 cycle = 10 ns, keeps arithmetic readable


def make_cpu(**kwargs):
    sim = Simulator()
    cpu = CPU(sim, hz=HZ, **kwargs)
    return sim, cpu


def test_work_consumes_simulated_time():
    sim, cpu = make_cpu()
    log = []

    def body():
        yield Work(1000)  # 10_000 ns at 100 MHz
        log.append(sim.now)

    cpu.spawn(body(), "t")
    sim.run()
    assert log == [10_000]


def test_sequential_work_chunks_accumulate():
    sim, cpu = make_cpu()
    log = []

    def body():
        yield Work(100)
        log.append(sim.now)
        yield Work(200)
        log.append(sim.now)

    cpu.spawn(body(), "t")
    sim.run()
    assert log == [1_000, 3_000]


def test_higher_ipl_preempts_lower():
    sim, cpu = make_cpu()
    log = []

    def thread():
        yield Work(1000)
        log.append(("thread-done", sim.now))

    def interrupt():
        yield Work(100)
        log.append(("irq-done", sim.now))

    cpu.spawn(thread(), "thread", ipl=IPL_NONE)
    sim.schedule(5_000, lambda: cpu.spawn(interrupt(), "irq", ipl=IPL_DEVICE))
    sim.run()
    # Interrupt runs 5000..6000; thread finishes its remaining 5000 ns after.
    assert log == [("irq-done", 6_000), ("thread-done", 11_000)]


def test_preempted_work_is_conserved():
    """Total busy time equals the sum of all work, regardless of slicing."""
    sim, cpu = make_cpu()

    def thread():
        yield Work(10_000)

    def interrupt():
        yield Work(500)

    cpu.spawn(thread(), "thread")
    for at in (10_000, 30_000, 77_000):
        sim.schedule(at, lambda: cpu.spawn(interrupt(), "irq", ipl=IPL_DEVICE))
    sim.run()
    total_cycles = 10_000 + 3 * 500
    assert sim.now == cycles_to_ns(total_cycles, HZ)
    assert cpu.busy_ns == sim.now


def test_equal_ipl_does_not_preempt():
    sim, cpu = make_cpu()
    log = []

    def first():
        yield Work(1000)
        log.append("first")

    def second():
        yield Work(100)
        log.append("second")

    cpu.spawn(first(), "first", ipl=IPL_DEVICE)
    sim.schedule(1_000, lambda: cpu.spawn(second(), "second", ipl=IPL_DEVICE))
    sim.run()
    assert log == ["first", "second"]


def test_priority_classes_order_threads():
    sim, cpu = make_cpu()
    log = []

    def worker(tag, cycles):
        yield Work(cycles)
        log.append(tag)

    # Started in reverse priority order; must run kernel > user > idle.
    cpu.spawn(worker("idle", 10), "idle", priority_class=CLASS_IDLE)
    cpu.spawn(worker("user", 10), "user", priority_class=CLASS_USER)
    cpu.spawn(worker("kernel", 10), "kernel", priority_class=CLASS_KERNEL)
    sim.run()
    assert log == ["kernel", "user", "idle"]


def test_fifo_within_priority_class():
    sim, cpu = make_cpu()
    log = []

    def worker(tag):
        yield Work(10)
        log.append(tag)

    for tag in ("a", "b", "c"):
        cpu.spawn(worker(tag), tag, priority_class=CLASS_USER)
    sim.run()
    assert log == ["a", "b", "c"]


def test_requeue_behind_rotates_round_robin():
    sim, cpu = make_cpu()
    log = []

    def worker(tag):
        yield Work(1000)
        log.append(tag)

    task_a = cpu.spawn(worker("a"), "a")
    cpu.spawn(worker("b"), "b")
    cpu.requeue_behind(task_a)
    sim.run()
    assert log == ["b", "a"]


def test_blocked_task_consumes_no_cpu():
    sim, cpu = make_cpu()
    signal = Signal(sim, "go")
    log = []

    def blocker():
        yield Work(100)
        yield WaitSignal(signal)
        yield Work(100)
        log.append(sim.now)

    def other():
        yield Work(1000)
        log.append(sim.now)

    cpu.spawn(blocker(), "blocker", priority_class=CLASS_KERNEL)
    cpu.spawn(other(), "other", priority_class=CLASS_USER)
    sim.schedule(50_000, signal.fire)
    sim.run()
    # blocker runs 0..1000, then other 1000..11000, then blocker resumes
    # at 50_000 despite its higher priority.
    assert log == [11_000, 50_000 + 1_000]


def test_woken_higher_priority_task_preempts():
    sim, cpu = make_cpu()
    signal = Signal(sim, "go")
    log = []

    def kernel_thread():
        yield WaitSignal(signal)
        yield Work(100)
        log.append(("kernel", sim.now))

    def user_thread():
        yield Work(10_000)
        log.append(("user", sim.now))

    cpu.spawn(kernel_thread(), "kt", priority_class=CLASS_KERNEL)
    cpu.spawn(user_thread(), "ut", priority_class=CLASS_USER)
    sim.schedule(10_000, signal.fire)
    sim.run()
    assert log == [("kernel", 11_000), ("user", 101_000)]


def test_spl_raises_and_lowers_effective_ipl():
    sim, cpu = make_cpu()
    log = []

    def thread():
        yield Spl(IPL_DEVICE)
        yield Work(1000)  # runs at device IPL; the interrupt must wait
        yield Spl(IPL_NONE)
        yield Work(1000)
        log.append(("thread", sim.now))

    def interrupt():
        yield Work(100)
        log.append(("irq", sim.now))

    cpu.spawn(thread(), "t")
    sim.schedule(2_000, lambda: cpu.spawn(interrupt(), "irq", ipl=IPL_SOFTNET))
    sim.run()
    # Interrupt becomes runnable at 2000 but thread holds IPL_DEVICE until
    # 10_000; then the softnet interrupt preempts the rest of the thread.
    assert log == [("irq", 11_000), ("thread", 21_000)]


def test_cycle_counter_tracks_time():
    sim, cpu = make_cpu()

    def body():
        yield Work(12345)

    cpu.spawn(body(), "t")
    sim.run()
    assert cpu.read_cycle_counter() == 12345


def test_cycles_used_accounting():
    sim, cpu = make_cpu()

    def worker(cycles):
        yield Work(cycles)

    task = cpu.spawn(worker(5000), "t")

    def interrupt():
        yield Work(300)

    sim.schedule(20_000, lambda: cpu.spawn(interrupt(), "irq", ipl=IPL_DEVICE))
    sim.run()
    assert task.cycles_used == 5000


def test_context_switch_cost_charged_between_threads():
    sim, cpu = make_cpu(context_switch_cycles=100)
    done = []

    def worker(tag):
        yield Work(1000)
        done.append((tag, sim.now))

    cpu.spawn(worker("a"), "a")
    cpu.spawn(worker("b"), "b")
    sim.run()
    # a: no switch charge (first thread); b: 100-cycle switch charge.
    assert done == [("a", 10_000), ("b", 21_000)]


def test_zero_work_completes_immediately():
    sim, cpu = make_cpu()
    log = []

    def body():
        yield Work(0)
        log.append(sim.now)

    cpu.spawn(body(), "t")
    sim.run()
    assert log == [0]


def test_idle_cpu_has_ipl_zero():
    sim, cpu = make_cpu()
    assert cpu.current_ipl == IPL_NONE
    assert cpu.current_task is None


def test_interrupt_at_exact_completion_boundary():
    """An interrupt landing exactly when a chunk completes must not lose
    or duplicate work."""
    sim, cpu = make_cpu()
    log = []

    def thread():
        yield Work(1000)  # completes at exactly 10_000 ns
        log.append(("thread", sim.now))

    def interrupt():
        yield Work(100)
        log.append(("irq", sim.now))

    cpu.spawn(thread(), "t")
    sim.schedule(10_000, lambda: cpu.spawn(interrupt(), "irq", ipl=IPL_DEVICE))
    sim.run()
    assert sorted(log) == [("irq", 11_000), ("thread", 10_000)]


def test_killed_task_work_is_withdrawn():
    sim, cpu = make_cpu()
    log = []

    def hog():
        yield Work(1_000_000)
        log.append("hog")

    def other():
        yield Work(100)
        log.append("other")

    task = cpu.spawn(hog(), "hog")
    cpu.spawn(other(), "other")
    sim.schedule(1_000, task.kill)
    sim.run()
    # The hog dies at t=1000; "other" then runs immediately instead of
    # waiting 10 ms for work that will never be wanted.
    assert log == ["other"]
    assert sim.now < 10_000
    assert cpu.runnable_count == 0


def test_killing_blocked_task_is_clean():
    sim, cpu = make_cpu()
    signal = Signal(sim, "never")

    def waiter():
        yield Work(10)
        yield WaitSignal(signal)

    task = cpu.spawn(waiter(), "waiter")
    sim.run()
    task.kill()
    assert task.state == "killed"
    assert signal.waiter_count == 0
    assert cpu.runnable_count == 0


def test_unbounded_work_is_never_scheduled():
    """An unbounded task runs with no completion event: preemption
    slices it and it resumes, but its remaining time never reaches the
    event queue, and it is never charged as busy time."""
    sim, cpu = make_cpu(context_switch_cycles=50)
    delays = []
    schedule = sim.schedule

    def recording(delay, callback, *args, label=None):
        delays.append(delay)
        return schedule(delay, callback, *args, label=label)

    sim.schedule = recording

    def idle():
        yield Work(UNBOUNDED_CYCLES)

    def thread():
        yield Work(1_000)

    idle_task = cpu.spawn(idle(), "idle", priority_class=CLASS_IDLE)
    for at in (5_000, 50_000, 51_000):
        sim.schedule(
            at, lambda: cpu.spawn(thread(), "t", priority_class=CLASS_KERNEL)
        )
    sim.run(until=1_000_000)
    assert max(delays) < UNBOUNDED_HORIZON_NS
    assert cpu.current_task is idle_task
    assert cpu._completion is None
    assert cpu._remaining[idle_task] >= UNBOUNDED_HORIZON_NS
    assert cpu.preemptions == 2 and cpu.switches == 5
    assert idle_task.cycles_used > 0
    assert cpu.busy_ns == 3 * cycles_to_ns(1_000 + 50, HZ)
