#!/usr/bin/env python
"""Calendar-queue event-core and warm-worker dispatch benchmark.

Emits ``BENCH_wheel.json`` so the performance trajectory is tracked
across PRs. The pre-PR implementations are frozen *in this script* so
every run measures the live code against a fixed baseline on identical
hardware, and every comparison asserts identity first — the wheel core
must fire the exact same event sequence as the heap core, and warm
dispatch must return bit-identical TrialResults — so a speedup can never
come from computing something different.

Four measurements:

* **event loop** — events/sec of the scheduler drain on three workload
  shapes (timer chains, schedule/cancel churn, periodic ticks spanning
  the wheel horizon), live calendar-queue ``Simulator`` vs the frozen
  pre-PR fused-heap core. Identity: per-fire checksum over
  ``(now, tag)``, fire counts, final clock.
* **cancel storm** — 200k far-future timers scheduled and immediately
  cancelled: tombstone + compaction cost, resident-size bound.
* **trials** — end-to-end ``run_trial`` wall clock per kernel variant,
  wheel vs frozen core (injected via ``Router(config, sim=...)``).
  Identity: every TrialResult field must match exactly.
* **dispatch** — a two-series figure-6-1-shaped sweep through the warm
  worker pool vs the frozen pre-PR dispatch (a fresh pool per series,
  per-spec submission, pickled TrialResults). Both sides use the same
  multiprocessing start method (spawn by default, ``$REPRO_MP_START``
  to override) so the comparison isolates dispatch strategy, not fork
  vs spawn cost. Identity: serial == frozen-pool == warm results.

Usage::

    PYTHONPATH=src python scripts/bench_wheel.py            # full run
    PYTHONPATH=src python scripts/bench_wheel.py --smoke    # CI-sized
    python scripts/bench_wheel.py --smoke --check-speedup 1.0
    python scripts/bench_wheel.py --smoke --check-parallel  # needs >1 CPU
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.errors import ClockError, SchedulingError
from repro.sim.simulator import Simulator

_MASK = 0xFFFFFFFFFFFFFFFF


# ----------------------------------------------------------------------
# Pre-PR baseline: the fused single-heap core, frozen here verbatim
# ----------------------------------------------------------------------

_FROZEN_COMPACT_MIN = 64


class _FrozenEvent:
    __slots__ = ("time", "seq", "callback", "args", "state", "label", "_key")

    def __init__(self, time, seq, callback, args, label=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.state = "pending"
        self.label = label
        self._key = (time, seq)

    def _rearm(self, time, seq):
        self.time = time
        self.seq = seq
        self.state = "pending"
        self._key = (time, seq)

    @property
    def pending(self):
        return self.state == "pending"

    @property
    def cancelled(self):
        return self.state == "cancelled"

    def sort_key(self):
        return self._key

    def __lt__(self, other):
        return self._key < other._key


class _FrozenPeriodicEvent:
    __slots__ = ("interval_ns", "fires", "_sim", "_event", "_active")

    def __init__(self, sim, interval_ns):
        self._sim = sim
        self._event = None
        self._active = True
        self.interval_ns = interval_ns
        self.fires = 0

    @property
    def active(self):
        return self._active

    def cancel(self):
        if not self._active:
            return False
        self._active = False
        event = self._event
        if event is not None and event.state == "pending":
            self._sim.cancel(event)
        return True


class _FrozenHeapSimulator:
    """The pre-PR core: one binary heap of Event objects, fused drain
    loop, tombstone compaction. API-complete, so a full trial can run
    on it through ``Router(config, sim=...)``."""

    #: Not frozen code: TrialResult.backend attribution postdates this
    #: core, and the heap loop *is* a pure-python oracle, so trials on
    #: it must stay dict-identical to current pure-backend trials.
    backend_name = "pure"

    def __init__(self):
        self._now = 0
        self._heap = []
        self._seq = 0
        self._running = False
        self._fired = 0
        self._scheduled = 0
        self._cancelled = 0
        self._pending = 0
        self._tombstones = 0
        self._compactions = 0
        self._sanitize_hook = None
        self._sanitize_every = 0

    @property
    def now(self):
        return self._now

    @property
    def running(self):
        return self._running

    def schedule(self, delay, callback, *args, label=None):
        if delay < 0:
            raise SchedulingError("cannot schedule into the past (delay=%d)" % delay)
        event = _FrozenEvent(self._now + delay, self._seq, callback, args, label=label)
        self._seq += 1
        self._scheduled += 1
        self._pending += 1
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time, callback, *args, label=None):
        if time < self._now:
            raise SchedulingError(
                "cannot schedule at t=%d, now is t=%d" % (time, self._now)
            )
        return self.schedule(time - self._now, callback, *args, label=label)

    def schedule_periodic(
        self, interval_ns, callback, *args, label=None, first_delay=None
    ):
        if interval_ns <= 0:
            raise SchedulingError(
                "periodic interval must be positive, got %d" % interval_ns
            )
        if first_delay is not None and first_delay < 0:
            raise SchedulingError(
                "cannot schedule into the past (first_delay=%d)" % first_delay
            )
        handle = _FrozenPeriodicEvent(self, interval_ns)

        def fire():
            handle.fires += 1
            callback(*args)
            if not handle._active:
                return
            event = handle._event
            event._rearm(event.time + interval_ns, self._seq)
            self._seq += 1
            self._scheduled += 1
            self._pending += 1
            heapq.heappush(self._heap, event)

        delay = interval_ns if first_delay is None else first_delay
        handle._event = self.schedule(delay, fire, label=label)
        return handle

    def cancel(self, event):
        if isinstance(event, _FrozenPeriodicEvent):
            return event.cancel()
        if event.state != "pending":
            return False
        event.state = "cancelled"
        self._cancelled += 1
        self._pending -= 1
        self._tombstones += 1
        self._maybe_compact()
        return True

    def _maybe_compact(self):
        heap = self._heap
        if len(heap) >= _FROZEN_COMPACT_MIN and self._tombstones * 2 > len(heap):
            self._heap = [e for e in heap if e.state == "pending"]
            heapq.heapify(self._heap)
            self._tombstones = 0
            self._compactions += 1

    def step(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.state == "cancelled":
                self._tombstones -= 1
                continue
            if event.time < self._now:
                raise ClockError(
                    "event at t=%d behind clock t=%d" % (event.time, self._now)
                )
            self._now = event.time
            event.state = "fired"
            self._fired += 1
            self._pending -= 1
            event.callback(*event.args)
            return True
        return False

    def peek_time(self):
        while self._heap and self._heap[0].state == "cancelled":
            heapq.heappop(self._heap)
            self._tombstones -= 1
        return self._heap[0].time if self._heap else None

    def run(self, until=None):
        if until is not None and until < self._now:
            raise SchedulingError(
                "deadline t=%d is in the past (now t=%d)" % (until, self._now)
            )
        deadline = float("inf") if until is None else until
        pop = heapq.heappop
        self._running = True
        try:
            if self._sanitize_hook is not None:
                self._drain_sanitized(deadline)
            else:
                while True:
                    heap = self._heap
                    if not heap:
                        break
                    event = heap[0]
                    if event.state == "cancelled":
                        pop(heap)
                        self._tombstones -= 1
                        continue
                    time_ = event.time
                    if time_ > deadline:
                        break
                    if time_ < self._now:
                        raise ClockError(
                            "event at t=%d behind clock t=%d" % (time_, self._now)
                        )
                    pop(heap)
                    self._now = time_
                    event.state = "fired"
                    self._fired += 1
                    self._pending -= 1
                    event.callback(*event.args)
        finally:
            self._running = False
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def set_sanitize_hook(self, hook, every_events):
        if every_events <= 0:
            raise SchedulingError(
                "sanitize period must be positive, got %d" % every_events
            )
        self._sanitize_hook = hook
        self._sanitize_every = every_events

    def clear_sanitize_hook(self):
        self._sanitize_hook = None
        self._sanitize_every = 0

    def _drain_sanitized(self, deadline):
        pop = heapq.heappop
        hook = self._sanitize_hook
        every = self._sanitize_every
        countdown = every
        while True:
            heap = self._heap
            if not heap:
                break
            event = heap[0]
            if event.state == "cancelled":
                pop(heap)
                self._tombstones -= 1
                continue
            time_ = event.time
            if time_ > deadline:
                break
            if time_ < self._now:
                raise ClockError(
                    "event at t=%d behind clock t=%d" % (time_, self._now)
                )
            pop(heap)
            self._now = time_
            event.state = "fired"
            self._fired += 1
            self._pending -= 1
            event.callback(*event.args)
            countdown -= 1
            if countdown <= 0:
                countdown = every
                hook()

    def run_for(self, duration):
        return self.run(self._now + duration)

    @property
    def stats(self):
        return {
            "scheduled": self._scheduled,
            "fired": self._fired,
            "cancelled": self._cancelled,
            "pending": self._pending,
            "heap_size": len(self._heap),
            "compactions": self._compactions,
        }


# ----------------------------------------------------------------------
# Event-loop workloads (identical builders driven against both cores)
# ----------------------------------------------------------------------

def _noop():
    pass


def _wl_chains(sim, total_fires, acc):
    """Interleaved self-rescheduling timer chains with microsecond-scale
    periods spread across many wheel buckets."""
    chains = 64
    fires_per_chain = max(1, total_fires // chains)
    remaining = [fires_per_chain] * chains

    if acc is None:

        def tick(index, period):
            remaining[index] -= 1
            if remaining[index] > 0:
                sim.schedule(period, tick, index, period)

    else:

        def tick(index, period):
            acc[0] = (acc[0] * 1000003 + sim.now) & _MASK
            remaining[index] -= 1
            if remaining[index] > 0:
                sim.schedule(period, tick, index, period)

    for index in range(chains):
        sim.schedule(index + 1, tick, index, 3_000 + 1_370 * index)


def _wl_churn(sim, total_fires, acc):
    """The CPU-engine pattern: every unit of work cancels a pending
    completion event and schedules a replacement — one cancellation per
    fire, constant live-event population."""
    decoys = [sim.schedule(13_000 + i, _noop) for i in range(32)]
    count = [0]

    if acc is None:

        def work(j):
            slot = j & 31
            sim.cancel(decoys[slot])
            decoys[slot] = sim.schedule(13_000 + (j % 97), _noop)
            count[0] += 1
            if count[0] < total_fires:
                sim.schedule(800 + (j % 53), work, j + 1)

    else:

        def work(j):
            acc[0] = (acc[0] * 1000003 + sim.now) & _MASK
            slot = j & 31
            sim.cancel(decoys[slot])
            decoys[slot] = sim.schedule(13_000 + (j % 97), _noop)
            count[0] += 1
            if count[0] < total_fires:
                sim.schedule(800 + (j % 53), work, j + 1)

    sim.schedule(1, work, 0)


def _wl_timers(sim, total_fires, acc):
    """A near-idle system: three periodic timers and nothing else. The
    scheduler's worst case — so sparse that bucket machinery cannot
    amortize over anything — kept as the honesty check that the wheel
    does not regress idle simulations."""

    if acc is None:

        def tick(tag):
            pass

    else:

        def tick(tag):
            acc[0] = (acc[0] * 1000003 + sim.now * 2 + tag) & _MASK

    sim.schedule_periodic(1_000_000, tick, 1)
    sim.schedule_periodic(107_000, tick, 2)
    sim.schedule_periodic(9_300, tick, 3)


def _wl_callouts(sim, total_fires, acc):
    """A kernel callout table: ~2k outstanding timers (think protocol
    retransmit/keepalive timers, one per connection), each rescheduling
    itself a few milliseconds out when it expires. The population the
    BSD callout wheel exists for: a binary heap pays O(log n) Python
    comparisons per operation at n=2048, the wheel a list append."""
    population = min(2048, max(1, total_fires // 4))
    fired = [0]

    if acc is None:

        def tick(j):
            fired[0] += 1
            if fired[0] + population <= total_fires:
                sim.schedule(5_000 + (j * 7919) % 5_000_000, tick, j + population)

    else:

        def tick(j):
            acc[0] = (acc[0] * 1000003 + sim.now + j) & _MASK
            fired[0] += 1
            if fired[0] + population <= total_fires:
                sim.schedule(5_000 + (j * 7919) % 5_000_000, tick, j + population)

    for j in range(population):
        sim.schedule(5_000 + (j * 7919) % 5_000_000, tick, j)


_CORES = (("wheel", Simulator), ("frozen", _FrozenHeapSimulator))


def _run_event_workload(name, build, total_fires, repeats, deadline=None):
    # One *verify* pass per core runs checksummed callbacks and asserts
    # the cores fire the identical event sequence. The *timed* passes
    # then use minimal callbacks (same scheduling arithmetic, no
    # checksum), so per-fire bookkeeping does not dilute the measured
    # scheduler difference; their (fired, now) must still match the
    # verify pass. Cores are interleaved and each side keeps its best
    # pass, so slow drift on a shared machine cannot bias the ratio.
    verify = {}
    for label, factory in _CORES:
        sim = factory()
        acc = [0]
        build(sim, total_fires, acc)
        sim.run(deadline)
        verify[label] = (sim.stats["fired"], sim.now, acc[0])
    if verify["wheel"] != verify["frozen"]:
        raise SystemExit(
            "FATAL: %s: wheel/frozen diverged on (fired, now, checksum): %r != %r"
            % (name, verify["wheel"], verify["frozen"])
        )
    best = {"wheel": float("inf"), "frozen": float("inf")}
    for _ in range(repeats):
        for label, factory in _CORES:
            sim = factory()
            build(sim, total_fires, None)
            start = time.perf_counter()
            sim.run(deadline)
            elapsed = time.perf_counter() - start
            best[label] = min(best[label], elapsed)
            if (sim.stats["fired"], sim.now) != verify[label][:2]:
                raise SystemExit(
                    "FATAL: %s: timed pass diverged from verify pass" % name
                )
    fired = verify["wheel"][0]
    return {
        "workload": name,
        "events": fired,
        "repeats": repeats,
        "wheel_s": round(best["wheel"], 6),
        "frozen_s": round(best["frozen"], 6),
        "wheel_events_per_sec": round(fired / best["wheel"]),
        "frozen_events_per_sec": round(fired / best["frozen"]),
        "speedup": round(best["frozen"] / best["wheel"], 3),
    }


def bench_event_loop(total_fires, repeats):
    workloads = [
        _run_event_workload("chains", _wl_chains, total_fires, repeats),
        _run_event_workload("churn", _wl_churn, total_fires, repeats),
        _run_event_workload("callouts", _wl_callouts, total_fires, repeats),
        _run_event_workload(
            "timers", _wl_timers, total_fires, repeats, deadline=total_fires * 9_300
        ),
    ]
    return {
        "workloads": workloads,
        "geomean_speedup": round(_geomean([w["speedup"] for w in workloads]), 3),
    }


def bench_cancel_storm(timers, repeats=3):
    # Interleaved best-of with the collector parked, like
    # _run_event_workload: a single-shot schedule+cancel pass over a
    # timers-sized handle list is dominated by GC pauses, not by
    # either scheduler.
    out = {"wheel_s": float("inf"), "frozen_s": float("inf")}
    for _ in range(repeats):
        for label, factory in (("wheel", Simulator), ("frozen", _FrozenHeapSimulator)):
            sim = factory()
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                events = [sim.schedule(10**9 + i, _noop) for i in range(timers)]
                for event in events:
                    sim.cancel(event)
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            out[label + "_s"] = round(min(out[label + "_s"], elapsed), 6)
            out[label + "_resident"] = sim.stats["heap_size"]
            if sim.stats["pending"] != 0:
                raise SystemExit("FATAL: cancel storm left pending events")
            del sim, events
    out["timers"] = timers
    out["speedup"] = round(out["frozen_s"] / out["wheel_s"], 3)
    if out["wheel_resident"] > 2 * _FROZEN_COMPACT_MIN:
        raise SystemExit(
            "FATAL: cancel storm left %d resident tombstones" % out["wheel_resident"]
        )
    return out


# ----------------------------------------------------------------------
# Full-trial identity + speedup (frozen core injected into the Router)
# ----------------------------------------------------------------------

def bench_trials(timing, repeats, smoke):
    from repro.core import variants
    from repro.experiments.harness import run_trial
    from repro.experiments.results import trial_to_dict
    from repro.experiments.spec import TrialSpec
    from repro.experiments.topology import Router

    cells = [
        ("unmodified", variants.unmodified, 12_000),
        ("polling-q5", lambda: variants.polling(quota=5), 12_000),
    ]
    if not smoke:
        cells += [
            ("unmodified", variants.unmodified, 5_000),
            ("polling-q5", lambda: variants.polling(quota=5), 5_000),
        ]

    # Untimed warmup of both paths: module imports and code-object
    # warm-up must not be charged to whichever side runs first.
    run_trial(TrialSpec(variants.unmodified(), 1_000, duration_s=0.01,
                        warmup_s=0.0))
    warm_config = variants.unmodified()
    run_trial(
        TrialSpec(warm_config, 1_000, duration_s=0.01, warmup_s=0.0),
        router=Router(warm_config, sim=_FrozenHeapSimulator()),
    )

    rows = []
    for name, make_config, rate in cells:
        wheel_best = frozen_best = float("inf")
        wheel_dict = frozen_dict = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_trial(TrialSpec.from_kwargs(make_config(), rate, **timing))
            wheel_best = min(wheel_best, time.perf_counter() - start)
            wheel_dict = trial_to_dict(result)

            config = make_config()
            start = time.perf_counter()
            result = run_trial(
                TrialSpec.from_kwargs(config, rate, **timing),
                router=Router(config, sim=_FrozenHeapSimulator()),
            )
            frozen_best = min(frozen_best, time.perf_counter() - start)
            frozen_dict = trial_to_dict(result)
        if wheel_dict != frozen_dict:
            raise SystemExit(
                "FATAL: trial %s @ %d pps diverged between wheel and frozen core"
                % (name, rate)
            )
        rows.append(
            {
                "variant": name,
                "rate_pps": rate,
                "wheel_s": round(wheel_best, 4),
                "frozen_s": round(frozen_best, 4),
                "speedup": round(frozen_best / wheel_best, 3),
            }
        )
    return {
        "timing": timing,
        "repeats": repeats,
        "cells": rows,
        "geomean_speedup": round(_geomean([r["speedup"] for r in rows]), 3),
    }


# ----------------------------------------------------------------------
# Sweep dispatch: frozen pool-per-series vs warm workers
# ----------------------------------------------------------------------

def _dispatch_specs(smoke):
    from repro.core import variants
    from repro.experiments.spec import TrialSpec

    if smoke:
        rates = (1_000, 8_000)
        kwargs = dict(duration_s=0.05, warmup_s=0.02)
    else:
        rates = (1_000, 3_000, 5_000, 8_000, 12_000)
        kwargs = dict(duration_s=0.3, warmup_s=0.1)
    series_a = [TrialSpec(variants.unmodified(), r, **kwargs) for r in rates]
    series_b = [
        TrialSpec(variants.unmodified(screend=True), r, **kwargs) for r in rates
    ]
    return series_a, series_b


def _frozen_dispatch(series_list, jobs):
    """The pre-PR dispatch, frozen: every ``run_trials`` call (one per
    figure series) boots a fresh worker pool, submits one spec per
    future, and receives full pickled TrialResults back."""
    from repro.experiments.engine import _mp_context, _run_spec

    results = []
    for series in series_list:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(series)), mp_context=_mp_context()
        ) as pool:
            results.append(list(pool.map(_run_spec, series)))
    return results


def bench_dispatch(jobs, smoke):
    from repro.experiments import engine
    from repro.experiments.results import trial_to_dict

    series_a, series_b = _dispatch_specs(smoke)

    start = time.perf_counter()
    serial = [engine.run_trials(series_a), engine.run_trials(series_b)]
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    frozen = _frozen_dispatch([series_a, series_b], jobs)
    frozen_s = time.perf_counter() - start

    engine.shutdown_warm_pool()
    start = time.perf_counter()
    warm = [
        engine.run_trials(series_a, jobs=jobs),
        engine.run_trials(series_b, jobs=jobs),
    ]
    warm_first_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = [
        engine.run_trials(series_a, jobs=jobs),
        engine.run_trials(series_b, jobs=jobs),
    ]
    warm_steady_s = time.perf_counter() - start

    def flatten(group):
        return [trial_to_dict(t) for series in group for t in series]

    if not (flatten(serial) == flatten(frozen) == flatten(warm)):
        raise SystemExit("FATAL: dispatch results diverged (serial/frozen/warm)")

    return {
        "jobs": jobs,
        "trials": len(series_a) + len(series_b),
        "serial_s": round(serial_s, 4),
        "frozen_pool_s": round(frozen_s, 4),
        "warm_first_s": round(warm_first_s, 4),
        "warm_steady_s": round(warm_steady_s, 4),
        #: headline: warm workers vs the pre-PR dispatch at the same job
        #: count and start method (pool boot amortized away, chunked
        #: submission, wire-packed results)
        "sweep_speedup_at_jobs": round(frozen_s / warm_steady_s, 3),
        "warm_vs_serial": round(serial_s / warm_steady_s, 3),
        "start_method": os.environ.get(engine.MP_START_ENV, "spawn"),
    }


#: The parallel gate fails below this serial/parallel ratio. On a
#: single-core box warm dispatch can only tie serial (the workers share
#: the CPU), and the tie lands within timing noise of exactly 1.0 — the
#: tolerance rejects genuine regressions ("parallel is *slower* than
#: serial") without flaking on a tie.
PARALLEL_GATE_FLOOR = 0.9


def check_parallel(report, jobs=2):
    """CI gate (multi-core runners only): a warm parallel sweep on
    ``jobs`` workers must not be slower than serial."""
    from repro.experiments import engine
    from repro.experiments.results import trial_to_dict

    series_a, series_b = _dispatch_specs(smoke=True)
    specs = series_a + series_b
    start = time.perf_counter()
    serial = engine.run_trials(specs)
    serial_s = time.perf_counter() - start
    engine.run_trials(specs, jobs=jobs)  # boot + warm the pool
    start = time.perf_counter()
    parallel = engine.run_trials(specs, jobs=jobs)
    parallel_s = time.perf_counter() - start
    if [trial_to_dict(t) for t in serial] != [trial_to_dict(t) for t in parallel]:
        raise SystemExit("FATAL: parallel results diverged from serial")
    speedup = serial_s / parallel_s
    report["parallel_gate"] = {
        "jobs": jobs,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(speedup, 3),
    }
    print(
        "parallel gate: serial %.2fs vs warm jobs=%d %.2fs (%.2fx)"
        % (serial_s, jobs, parallel_s, speedup)
    )
    if speedup < PARALLEL_GATE_FLOOR:
        raise SystemExit(
            "FATAL: warm parallel sweep slower than serial: %.2fx" % speedup
        )


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (seconds, not minutes)"
    )
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "-o",
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_wheel.json"),
        help="output JSON path",
    )
    parser.add_argument(
        "--check-speedup",
        type=float,
        metavar="FLOOR",
        help="fail if the event-loop geomean speedup vs the frozen heap "
        "core is below FLOOR (CI uses 1.0 as a no-regression gate)",
    )
    parser.add_argument(
        "--check-parallel",
        action="store_true",
        help="fail unless a warm parallel sweep on 2 jobs is at least as "
        "fast as serial (needs >1 CPU; meant for CI runners)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        fires = 120_000
        loop_repeats = 2
        storm_timers = 20_000
        timing = dict(duration_s=0.08, warmup_s=0.03, seed=0)
        repeats = 2
    else:
        fires = 800_000
        loop_repeats = 3
        storm_timers = 200_000
        timing = dict(duration_s=0.4, warmup_s=0.1, seed=0)
        repeats = 4

    print("wheel benchmark (%s mode)" % ("smoke" if args.smoke else "full"))
    report = {
        "benchmark": "wheel",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "event_loop": bench_event_loop(fires, loop_repeats),
        "cancel_storm": bench_cancel_storm(storm_timers),
        "trials": bench_trials(timing, repeats, args.smoke),
        "dispatch": bench_dispatch(args.jobs, args.smoke),
    }

    loop = report["event_loop"]
    dispatch = report["dispatch"]
    print(
        "event loop: geomean %.2fx vs frozen heap core (%s)"
        % (
            loop["geomean_speedup"],
            ", ".join(
                "%s %.2fx" % (w["workload"], w["speedup"]) for w in loop["workloads"]
            ),
        )
    )
    storm = report["cancel_storm"]
    print(
        "cancel storm: %.2fx vs frozen heap core (%d timers, %d resident)"
        % (storm["speedup"], storm["timers"], storm["wheel_resident"])
    )
    print(
        "trials:     geomean %.2fx end-to-end" % report["trials"]["geomean_speedup"]
    )
    print(
        "dispatch:   frozen pools %.2fs vs warm %.2fs at jobs=%d -> %.2fx "
        "(serial %.2fs, warm-first %.2fs)"
        % (
            dispatch["frozen_pool_s"],
            dispatch["warm_steady_s"],
            dispatch["jobs"],
            dispatch["sweep_speedup_at_jobs"],
            dispatch["serial_s"],
            dispatch["warm_first_s"],
        )
    )

    if args.check_speedup is not None:
        current = loop["geomean_speedup"]
        print(
            "speedup gate: %.2fx vs floor %.2fx" % (current, args.check_speedup)
        )
        if current < args.check_speedup:
            raise SystemExit(
                "FATAL: event-loop speedup %.2fx below floor %.2fx"
                % (current, args.check_speedup)
            )
        # The cancel storm is gated by the same floor: it regressed to
        # 0.812x once (per-cancel len() sums in the compaction trigger)
        # without moving the event-loop geomean at all.
        if storm["speedup"] < args.check_speedup:
            raise SystemExit(
                "FATAL: cancel-storm speedup %.2fx below floor %.2fx"
                % (storm["speedup"], args.check_speedup)
            )
    if args.check_parallel:
        check_parallel(report)

    from repro.experiments.engine import shutdown_warm_pool

    shutdown_warm_pool()
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
