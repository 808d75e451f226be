"""Every drain loop is behaviourally identical.

The plain and sanitized drains are generated from one template
(:mod:`repro.sim._drain`), and the compiled fast-c core ports the plain
one; these tests pin the contract they share: same firing order, same
counter values observable from *inside* callbacks (what the livelock
watchdog samples), same final stats — under delay-0 chains,
cross-bucket and overflow scheduling, cancellation storms that trigger
mid-drain compaction, periodic timers, callbacks that raise, and
deadline-tiled runs. The fast-c variant joins when the extension is
built.
"""

from __future__ import annotations

import random

import pytest

from repro._fastcore import FastCore
from repro.sim._drain import DRAIN_SOURCES, drain_plain, drain_sanitized
from repro.sim.simulator import Simulator


def _sanitized(sim: Simulator) -> Simulator:
    sim.set_sanitize_hook(lambda: None, 97)
    return sim


VARIANTS = {
    "plain": lambda: Simulator(),
    "sanitized": lambda: _sanitized(Simulator()),
}
if FastCore is not None:
    VARIANTS["fast-c"] = FastCore

#: The variants checked against the plain drain.
OTHERS = [name for name in VARIANTS if name != "plain"]


def _stats(sim) -> dict:
    """Scheduler stats minus the attribution-only backend name."""
    stats = dict(sim.stats)
    del stats["backend"]
    return stats


# ----------------------------------------------------------------------
# Randomised scenario: one deterministic script of scheduling decisions,
# replayed against each variant. Callbacks schedule, cancel, and sample
# stats, so any divergence in *when* tombstones are reclaimed, when
# compaction runs, or how many triples are resident shows up directly.
# ----------------------------------------------------------------------


def _run_scenario(sim: Simulator, seed: int):
    rng = random.Random(seed)
    trace = []
    handles = []
    periodics = []

    def cb(tag):
        trace.append((sim.now, tag))
        roll = rng.random()
        if roll < 0.55:
            for _ in range(rng.randrange(1, 4)):
                delay = rng.choice(
                    (0, 0, 1, 17, 4_000, 70_000, 300_000, 20_000_000, 60_000_000)
                )
                handles.append(sim.schedule(delay, cb, "s%d" % rng.randrange(9)))
        if roll > 0.35 and handles:
            # Cancel a batch of pending handles from inside a callback:
            # this is what trips compaction mid-drain.
            for _ in range(rng.randrange(1, 6)):
                sim.cancel(handles[rng.randrange(len(handles))])
        if roll > 0.97 and periodics:
            periodics[rng.randrange(len(periodics))].cancel()
        if len(trace) % 23 == 0:
            snap = sim.stats
            trace.append(("stats", snap["pending"], snap["heap_size"]))

    for i in range(80):
        delay = rng.choice((0, 3, 900, 50_000, 200_000, 30_000_000))
        handles.append(sim.schedule(delay, cb, "seed%d" % i))
    for interval in (7_000, 65_536, 1_000_000):
        periodics.append(sim.schedule_periodic(interval, cb, "p%d" % interval))

    # Tile the timeline with deadlines (the harness's warmup/measure
    # pattern), then drain what's left of the non-periodic backlog.
    for deadline in (10_000, 10_001, 500_000, 2_000_000, 40_000_000):
        sim.run(deadline)
        trace.append(("window", sim.now, sim.stats["pending"]))
    for handle in periodics:
        handle.cancel()
    sim.run(80_000_000)

    stats = _stats(sim)
    trace.append(("final", sim.now, stats["pending"], stats["heap_size"]))
    return trace, stats


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_variants_identical_on_randomised_workload(seed):
    baseline = None
    base_stats = None
    for name, factory in VARIANTS.items():
        trace, stats = _run_scenario(factory(), seed)
        if baseline is None:
            baseline, base_stats = trace, stats
        else:
            assert trace == baseline, "drain %r diverged (seed %d)" % (name, seed)
            assert stats == base_stats, (
                "drain %r final stats diverged (seed %d)" % (name, seed)
            )


# ----------------------------------------------------------------------
# Targeted mid-drain edges, each against the plain drain.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", OTHERS)
def test_callback_scheduling_an_earlier_event_fires_in_order(name):
    """An event a callback schedules before already-queued ones must
    fire in global (time, seq) order."""

    def build(sim):
        fired = []
        for i in range(168):
            sim.schedule(1_000 * (i + 1), fired.append, 1_000 * (i + 1))
        # The first event schedules one *between* queued events.
        sim.schedule(500, lambda: sim.schedule(600, fired.append, 1_100))
        return fired

    plain = Simulator()
    expected = build(plain)
    plain.run()
    other = VARIANTS[name]()
    got = build(other)
    other.run()
    assert got == expected
    assert got.index(1_100) == 1
    assert _stats(other) == _stats(plain)


@pytest.mark.parametrize("name", OTHERS)
def test_callback_exception_leaves_the_queue_consistent(name):
    """A callback raising mid-drain loses no queued event: a later
    run() fires the rest in order."""

    class Boom(RuntimeError):
        pass

    def build(sim):
        fired = []
        for i in range(128):
            sim.schedule(10 * (i + 1), fired.append, i)

        def explode():
            raise Boom

        sim.schedule(35, explode)
        return fired

    plain = Simulator()
    expected = build(plain)
    with pytest.raises(Boom):
        plain.run()
    other = VARIANTS[name]()
    got = build(other)
    with pytest.raises(Boom):
        other.run()
    assert _stats(other) == _stats(plain)

    plain.run()
    other.run()
    assert got == expected
    assert _stats(other) == _stats(plain)


@pytest.mark.parametrize("name", OTHERS)
def test_cancel_storm_compacts_mid_drain(name):
    """Cancelling from inside callbacks keeps pending/heap_size exactly
    in step with the plain drain, through mid-drain compaction."""

    def run(sim):
        samples = []
        handles = []

        def victim():
            samples.append(("fired-victim", sim.now))

        def cancel_some(k):
            for handle in handles[k : k + 40]:
                sim.cancel(handle)
            snap = sim.stats
            samples.append((snap["pending"], snap["heap_size"], snap["compactions"]))

        for i in range(400):
            handles.append(sim.schedule(50_000 + i, victim))
        for j in range(8):
            sim.schedule(10 + j, cancel_some, j * 40)
        sim.run()
        return samples, _stats(sim)

    plain_samples, plain_stats = run(Simulator())
    other_samples, other_stats = run(VARIANTS[name]())
    assert other_samples == plain_samples
    assert other_stats == plain_stats
    assert plain_stats["compactions"] > 0


def test_scalar_sources_differ_only_by_sanitizer_fragments():
    """The sanitized scalar loop is the plain loop plus exactly the two
    sanitizer fragments — nothing else may diverge."""
    plain = DRAIN_SOURCES["plain"].replace("drain_plain", "drain_x")
    sanitized = DRAIN_SOURCES["sanitized"].replace("drain_sanitized", "drain_x")
    extra = [
        line
        for line in sanitized.splitlines()
        if line not in plain.splitlines()
    ]
    assert extra == [
        "    hook = self._sanitize_hook",
        "    every = self._sanitize_every",
        "    countdown = every",
        "            countdown -= 1",
        "            if countdown <= 0:",
        "                countdown = every",
        "                hook()",
    ]
    plain_residue = [
        line for line in plain.splitlines() if line not in sanitized.splitlines()
    ]
    assert plain_residue == []


def test_generated_drains_are_installed():
    assert sorted(DRAIN_SOURCES) == ["plain", "sanitized"]
    assert drain_plain.__name__ == "drain_plain"
    assert drain_sanitized.__name__ == "drain_sanitized"
    assert drain_sanitized is not drain_plain
