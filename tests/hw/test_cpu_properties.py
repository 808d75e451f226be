"""Property-based tests of the CPU model's conservation invariants."""

from hypothesis import given, settings, strategies as st

from repro.hw import CLASS_IDLE, CLASS_KERNEL, CPU, IPL_CLOCK, IPL_DEVICE
from repro.hw.cpu import UNBOUNDED_CYCLES
from repro.kernel.kernel import IDLE_CHUNK_US
from repro.sim import Simulator, Sleep, Work
from repro.sim.units import cycles_to_ns

HZ = 100_000_000


@given(
    st.lists(st.integers(min_value=1, max_value=50_000), min_size=1, max_size=10),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1_000_000),
            st.integers(min_value=1, max_value=5_000),
        ),
        max_size=10,
    ),
)
@settings(max_examples=60)
def test_work_is_conserved_under_arbitrary_preemption(thread_chunks, interrupts):
    """However interrupts slice the timeline, total busy time equals the
    total work submitted, and every task finishes."""
    sim = Simulator()
    cpu = CPU(sim, hz=HZ)
    finished = []

    def thread_body(chunks):
        for chunk in chunks:
            yield Work(chunk)
        finished.append("thread")

    def irq_body(cycles):
        yield Work(cycles)
        finished.append("irq")

    cpu.spawn(thread_body(thread_chunks), "thread")
    for at, cycles in interrupts:
        sim.schedule(
            at, lambda c=cycles: cpu.spawn(irq_body(c), "irq", ipl=IPL_DEVICE)
        )
    sim.run()

    total_cycles = sum(thread_chunks) + sum(c for _, c in interrupts)
    # Rounding: each chunk converts to ns independently (half-up), so
    # allow one ns of slack per chunk.
    chunk_count = len(thread_chunks) + len(interrupts)
    expected = sum(cycles_to_ns(c, HZ) for c in thread_chunks) + sum(
        cycles_to_ns(c, HZ) for _, c in interrupts
    )
    assert abs(cpu.busy_ns - expected) <= chunk_count
    assert finished.count("thread") == 1
    assert finished.count("irq") == len(interrupts)
    assert cpu.runnable_count == 0


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0, IPL_DEVICE, IPL_CLOCK]),
            st.integers(min_value=1, max_value=2_000),
            st.integers(min_value=0, max_value=100_000),
        ),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=60)
def test_higher_ipl_always_finishes_first_when_started_together(tasks):
    """Among tasks becoming runnable at the same instant, completion
    order never inverts IPL order at that instant."""
    sim = Simulator()
    cpu = CPU(sim, hz=HZ)
    completions = []

    def body(ipl, cycles, tag):
        yield Work(cycles)
        completions.append((sim.now, ipl, tag))

    for index, (ipl, cycles, at) in enumerate(tasks):
        sim.schedule(
            at,
            lambda i=ipl, c=cycles, t=index: cpu.spawn(
                body(i, c, t), "t%d" % t, ipl=i
            ),
        )
    sim.run()
    assert len(completions) == len(tasks)
    # Invariant: at any completion instant, no *higher*-IPL task is still
    # runnable (it would have preempted).
    done = set()
    for time, ipl, tag in completions:
        done.add(tag)
        for other_tag, (other_ipl, _c, other_at) in enumerate(tasks):
            if other_tag in done or other_at >= time:
                continue
            assert other_ipl <= ipl, (
                "task %d (ipl %d) finished while task %d (ipl %d) waited"
                % (tag, ipl, other_tag, other_ipl)
            )


@given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=20))
def test_cycles_used_matches_submitted_work(chunks):
    sim = Simulator()
    cpu = CPU(sim, hz=HZ)

    def body():
        for chunk in chunks:
            yield Work(chunk)

    task = cpu.spawn(body(), "t")
    sim.run()
    # Rounding slack: one cycle per chunk.
    assert abs(task.cycles_used - sum(chunks)) <= len(chunks)


IDLE_CHUNK_CYCLES = HZ // 1_000_000 * IDLE_CHUNK_US


def _chunked_idle():
    while True:
        yield Work(IDLE_CHUNK_CYCLES)


def _unbounded_idle():
    while True:
        yield Work(UNBOUNDED_CYCLES)


def _run_beside_idle(idle_body, tasks):
    """Run ``tasks`` over an idle loop; return what must not depend on
    how the idle loop is sliced."""
    sim = Simulator()
    cpu = CPU(sim, hz=HZ, context_switch_cycles=75)
    done = []

    def body(tag, cycles, pause_ns):
        yield Work(cycles)
        yield Sleep(pause_ns)
        yield Work(cycles)
        done.append((tag, sim.now))

    spawned = []

    def start(tag, ipl, cycles, pause_ns):
        spawned.append(cpu.spawn(
            body(tag, cycles, pause_ns), "t%d" % tag, ipl=ipl,
            priority_class=CLASS_KERNEL,
        ))

    cpu.spawn(idle_body(), "idle", priority_class=CLASS_IDLE)
    for tag, task in enumerate(tasks):
        sim.schedule(task[0], start, tag, *task[1:])
    sim.run(until=5_000_000)
    used = sorted((task.name, task.cycles_used) for task in spawned)
    return done, cpu.preemptions, cpu.switches, cpu.busy_ns, used


@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.integers(min_value=0, max_value=2_000_000),
                # Arrivals exactly on a 100 us idle-chunk boundary.
                st.integers(min_value=0, max_value=20).map(
                    lambda k: k * 100_000
                ),
            ),
            st.sampled_from([0, IPL_DEVICE]),
            st.integers(min_value=1, max_value=30_000),
            st.integers(min_value=0, max_value=300_000),
        ),
        max_size=12,
    )
)
@settings(max_examples=60)
def test_unbounded_idle_matches_chunked_idle(tasks):
    """Slicing the idle loop into 100 us chunks or running it as one
    unbounded piece of work is invisible to everything else on the
    CPU: the same preemptions and context switches, the same busy time,
    and every other task finishes at the same instant."""
    assert _run_beside_idle(_unbounded_idle, tasks) == _run_beside_idle(
        _chunked_idle, tasks
    )
