#!/usr/bin/env python
"""End-to-end packet-path benchmark (``BENCH_packetpath.json``).

Measures the wall-clock cost of full ``run_trial`` executions for the
four kernel variants at several offered rates, comparing the current
zero-allocation fast path against a **frozen copy of the pre-PR path**
compiled into this script:

* per-emission ``Packet`` construction (no pool) and coroutine-based
  traffic generators (``Process`` + ``Sleep`` trampolining);
* the old NIC (``_TxSlot`` list, ``hasattr`` timestamp probing,
  scan-based ``tx_done_slots``/``tx_reclaim``);
* the unbounded list ``LatencyRecorder``;
* the old CPU engine and interrupt controller (sort keys and effective
  IPLs recomputed per pick, per-command ``Work`` allocation, handler
  bodies re-yielded through ``for command in ...`` trampolines);
* the old IP-layer and driver hot bodies (fresh ``Work``/``Sleep``
  objects per packet, no ``yield from`` delegation).

Both paths are required to produce **bit-identical** ``TrialResult``s
(the benchmark aborts otherwise), so the speedup is apples-to-apples:
same events, same timestamps, same RNG draws, same counters — only the
Python-level execution cost differs. The legacy baseline runs in-process
on the same interpreter and hardware, which keeps the speedup ratio
meaningful across machines; the CI regression gate therefore compares
ratios, not absolute seconds.

A long-duration memory check verifies the other half of the PR's claim:
with packet pooling and reservoir-sampled latencies, a trial's live-set
stays bounded no matter how long it runs.

Usage::

    PYTHONPATH=src python scripts/bench_packetpath.py            # full
    PYTHONPATH=src python scripts/bench_packetpath.py --smoke    # CI
    python scripts/bench_packetpath.py --check-regression BENCH_packetpath.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import variants
from repro.drivers import base as base_mod
from repro.drivers import bsd as bsd_mod
from repro.drivers import clocked as clocked_mod
from repro.drivers import highipl as highipl_mod
from repro.drivers import polled as polled_mod
from repro.experiments import harness, topology
from repro.experiments.spec import TrialSpec
from repro.hw.cpu import IPL_NONE, CLASS_USER, Spl
from repro.hw.link import MIN_PACKET_TIME_NS, packet_time_ns
from repro.kernel import kernel as kernel_mod
from repro.metrics.latency import LatencyRecorder
from repro.metrics.stats import summarize
from repro.net import ip as ip_mod
from repro.net.addresses import parse_ip
from repro.net.packet import Packet, PacketPool
from repro.sim.errors import ProcessError
from repro.sim.process import Process, Sleep, WaitSignal, Work
from repro.sim.units import NS_PER_SEC, NS_PER_US, cycles_to_ns, ns_to_cycles

VARIANTS = [
    ("unmodified", variants.unmodified),
    ("polling", variants.polling),
    ("high_ipl", variants.high_ipl),
    ("clocked", variants.clocked),
]
RATES = (4_000, 12_000, 25_000)
GATE_RATE = 12_000  # the rate the acceptance / regression gates read

# ======================================================================
# Frozen pre-PR CPU engine
# ======================================================================


class LegacyCpuTask(Process):
    """Pre-PR CpuTask: effective IPL and sort key recomputed on demand."""

    def __init__(self, cpu, body, name, ipl=IPL_NONE, priority_class=CLASS_USER):
        super().__init__(cpu.sim, body, name=name)
        self.cpu = cpu
        self.base_ipl = ipl
        self.spl_level = 0
        self.priority_class = priority_class
        self.cycles_used = 0
        self._ready_seq = 0

    @property
    def effective_ipl(self):
        return max(self.base_ipl, self.spl_level)

    def runnable_key(self):
        return (self.effective_ipl, self.priority_class, -self._ready_seq)

    def kill(self):
        self.cpu.remove_task(self)
        super().kill()

    def _dispatch(self, command):
        if isinstance(command, Work):
            self.cpu.add_work(self, command.cycles)
        elif isinstance(command, Spl):
            old = self.effective_ipl
            self.spl_level = command.level
            self.cpu.on_task_ipl_changed(self, old)
            self.deliver(None)
        else:
            super()._dispatch(command)


class LegacyCPU:
    """Pre-PR CPU dispatcher (per-pick key tuples, uncached IPL reads)."""

    def __init__(self, sim, hz=150_000_000, context_switch_cycles=0, name="cpu0"):
        self.sim = sim
        self.hz = hz
        self.name = name
        self.context_switch_cycles = context_switch_cycles
        self._remaining = {}
        self._current = None
        self._completion = None
        self._chunk_started = 0
        self._seq = 0
        self._last_thread = None
        self.busy_ns = 0
        self.switches = 0
        self.preemptions = 0
        self.ipl_observers = []
        self.account_observers = []

    def task(self, body, name, ipl=IPL_NONE, priority_class=CLASS_USER):
        return LegacyCpuTask(
            self, body, name=name, ipl=ipl, priority_class=priority_class
        )

    def spawn(self, body, name, ipl=IPL_NONE, priority_class=CLASS_USER):
        return self.task(body, name, ipl=ipl, priority_class=priority_class).start()

    def read_cycle_counter(self):
        return ns_to_cycles(self.sim.now, self.hz)

    @property
    def current_task(self):
        return self._current

    @property
    def last_thread(self):
        return self._last_thread

    @property
    def current_ipl(self):
        return self._current.effective_ipl if self._current is not None else IPL_NONE

    @property
    def runnable_count(self):
        return len(self._remaining)

    def add_work(self, task, cycles):
        ns = cycles_to_ns(cycles, self.hz)
        if task not in self._remaining:
            self._seq += 1
            task._ready_seq = self._seq
            self._remaining[task] = 0
        self._remaining[task] += ns
        self._reschedule()

    def requeue_behind(self, task):
        if task in self._remaining:
            self._seq += 1
            task._ready_seq = self._seq
            self._reschedule()

    def on_task_ipl_changed(self, task, old_ipl):
        self._reschedule()
        if task.effective_ipl < old_ipl:
            self._notify_ipl()

    def remove_task(self, task):
        if task is self._current:
            self._stop_current(account=True)
        self._remaining.pop(task, None)
        self._reschedule()

    def _pick(self):
        best = None
        best_key = None
        for task in self._remaining:
            key = task.runnable_key()
            if best_key is None or key > best_key:
                best, best_key = task, key
        return best

    def _stop_current(self, account):
        task = self._current
        if task is None:
            return
        if self._completion is not None:
            self.sim.cancel(self._completion)
            self._completion = None
        if account:
            elapsed = self.sim.now - self._chunk_started
            if elapsed > 0:
                if task in self._remaining:
                    self._remaining[task] = max(0, self._remaining[task] - elapsed)
                task.cycles_used += ns_to_cycles(elapsed, self.hz)
                self.busy_ns += elapsed
                for observer in self.account_observers:
                    observer(task, elapsed)
        self._current = None

    def _reschedule(self):
        best = self._pick()
        if best is self._current:
            return
        if self._current is not None:
            self.preemptions += 1
            self._stop_current(account=True)
        if best is None:
            self._notify_ipl()
            return
        if (
            best.effective_ipl == IPL_NONE
            and self.context_switch_cycles > 0
            and self._last_thread is not best
            and self._last_thread is not None
        ):
            self._remaining[best] += cycles_to_ns(self.context_switch_cycles, self.hz)
            self.switches += 1
        if best.effective_ipl == IPL_NONE:
            self._last_thread = best
        self._current = best
        self._chunk_started = self.sim.now
        remaining = self._remaining[best]
        self._completion = self.sim.schedule(
            remaining, self._complete, best, label="work:" + best.name
        )

    def _complete(self, task):
        if task is not self._current:  # pragma: no cover - defensive
            raise ProcessError("completion for non-current task %s" % task.name)
        self._completion = None
        elapsed = self.sim.now - self._chunk_started
        task.cycles_used += ns_to_cycles(elapsed, self.hz)
        self.busy_ns += elapsed
        if elapsed > 0:
            for observer in self.account_observers:
                observer(task, elapsed)
        self._current = None
        del self._remaining[task]
        was_ipl = task.effective_ipl
        task.deliver(None)
        self._reschedule()
        if was_ipl > self.current_ipl:
            self._notify_ipl()

    def _notify_ipl(self):
        ipl = self.current_ipl
        for observer in self.ipl_observers:
            observer(ipl)

    def utilization(self, since_ns, now_ns=None):
        now = self.sim.now if now_ns is None else now_ns
        window = now - since_ns
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_ns / window)


class LegacyInterruptLine:
    """Pre-PR interrupt line (no early-out on disabled requests)."""

    def __init__(self, controller, name, ipl, handler_factory, dispatch_cycles=0):
        self.controller = controller
        self.name = name
        self.ipl = ipl
        self.handler_factory = handler_factory
        self.dispatch_cycles = dispatch_cycles
        self.enabled = True
        self.requested = False
        self.in_service = False
        self.request_count = 0
        self.dispatch_count = 0
        self.suppressed_while_disabled = 0

    def request(self):
        self.request_count += 1
        if not self.enabled:
            self.suppressed_while_disabled += 1
        if not self.requested:
            self.requested = True
        self.controller.try_deliver(self)

    def enable(self):
        if not self.enabled:
            self.enabled = True
            self.controller.try_deliver(self)

    def disable(self):
        self.enabled = False

    def acknowledge(self):
        self.requested = False


class LegacyInterruptController:
    """Pre-PR controller: trampolined handler bodies, uncached checks."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.lines = []
        cpu.ipl_observers.append(self._on_ipl_change)

    def line(self, name, ipl, handler_factory, dispatch_cycles=0):
        created = LegacyInterruptLine(
            self, name, ipl, handler_factory, dispatch_cycles
        )
        self.lines.append(created)
        return created

    def try_deliver(self, line):
        if not (line.requested and line.enabled and not line.in_service):
            return False
        if line.ipl <= self.cpu.current_ipl:
            return False
        line.requested = False
        line.in_service = True
        line.dispatch_count += 1
        task = self.cpu.task(
            self._handler_body(line), name="irq:" + line.name, ipl=line.ipl
        )
        task.on_exit(lambda _proc, _line=line: self._handler_done(_line))
        task.start()
        return True

    def _handler_body(self, line):
        if line.dispatch_cycles > 0:
            yield Work(line.dispatch_cycles)
        handler = line.handler_factory()
        if handler is not None:
            for command in handler:
                yield command

    def _handler_done(self, line):
        line.in_service = False
        self.try_deliver(line)
        self._on_ipl_change(self.cpu.current_ipl)

    def _on_ipl_change(self, ipl):
        for line in self.lines:
            if line.ipl > ipl:
                self.try_deliver(line)

    def stats(self):
        return {
            line.name: {
                "requests": line.request_count,
                "dispatches": line.dispatch_count,
                "suppressed_while_disabled": line.suppressed_while_disabled,
            }
            for line in self.lines
        }


# ======================================================================
# Frozen pre-PR NIC and latency recorder
# ======================================================================


class _LegacyTxSlot:
    __slots__ = ("packet", "done")

    def __init__(self, packet):
        self.packet = packet
        self.done = False


class LegacyNIC:
    """Pre-PR NIC: slot list, hasattr probing, scan-based TX reclaim."""

    def __init__(
        self,
        sim,
        name,
        probes,
        rx_ring_capacity=64,
        tx_ring_capacity=32,
        tx_packet_time_ns=MIN_PACKET_TIME_NS,
    ):
        if rx_ring_capacity <= 0 or tx_ring_capacity <= 0:
            raise ValueError("ring capacities must be positive")
        self.sim = sim
        self.name = name
        self.probes = probes
        self.rx_ring_capacity = rx_ring_capacity
        self.tx_ring_capacity = tx_ring_capacity
        self.tx_packet_time_ns = tx_packet_time_ns
        self._rx_ring = deque()
        self._tx_slots = []
        self._tx_busy = False
        self.rx_line = None
        self.tx_line = None
        self.on_transmit = None
        self.rx_accepted = probes.counter("nic.%s.rx_accepted" % name)
        self.rx_overflow_drops = probes.counter("nic.%s.rx_overflow_drops" % name)
        self.tx_completed = probes.counter("nic.%s.tx_completed" % name)

    def attach_lines(self, rx_line, tx_line):
        # Today's drivers bind their lines through this call; the
        # pre-PR drivers assigned the two attributes directly.
        self.rx_line = rx_line
        self.tx_line = tx_line

    def receive_from_wire(self, packet):
        if len(self._rx_ring) >= self.rx_ring_capacity:
            self.rx_overflow_drops.increment()
            return False
        if hasattr(packet, "mark_nic_arrival"):
            packet.mark_nic_arrival(self.sim.now)
        self._rx_ring.append(packet)
        self.rx_accepted.increment()
        if self.rx_line is not None:
            self.rx_line.request()
        return True

    def rx_pending(self):
        return len(self._rx_ring)

    def rx_pull(self):
        if not self._rx_ring:
            return None
        return self._rx_ring.popleft()

    def tx_free_slots(self):
        return self.tx_ring_capacity - len(self._tx_slots)

    def tx_done_slots(self):
        return sum(1 for slot in self._tx_slots if slot.done)

    def tx_enqueue(self, packet):
        if len(self._tx_slots) >= self.tx_ring_capacity:
            return False
        self._tx_slots.append(_LegacyTxSlot(packet))
        self._kick_transmitter()
        return True

    def tx_reclaim(self):
        before = len(self._tx_slots)
        self._tx_slots = [slot for slot in self._tx_slots if not slot.done]
        return before - len(self._tx_slots)

    def _kick_transmitter(self):
        if self._tx_busy:
            return
        pending = next((slot for slot in self._tx_slots if not slot.done), None)
        if pending is None:
            return
        self._tx_busy = True
        self.sim.schedule(
            self.tx_packet_time_ns,
            self._transmit_complete,
            pending,
            label="tx:" + self.name,
        )

    def _transmit_complete(self, slot):
        slot.done = True
        self._tx_busy = False
        self.tx_completed.increment()
        packet = slot.packet
        if hasattr(packet, "mark_transmitted"):
            packet.mark_transmitted(self.sim.now)
        if self.on_transmit is not None:
            self.on_transmit(packet)
        if self.tx_line is not None:
            self.tx_line.request()
        self._kick_transmitter()

    @property
    def tx_idle(self):
        return not self._tx_busy


class LegacyLatencyRecorder:
    """Pre-PR recorder: every latency appended to an unbounded list."""

    def __init__(self, sim, name="latency"):
        self.sim = sim
        self.name = name
        self._samples_ns = []
        self._recording = False
        self._window_start = None

    def start(self):
        self._recording = True
        self._window_start = self.sim.now
        self._samples_ns = []

    def stop(self):
        self._recording = False

    def observe(self, packet):
        if not self._recording:
            return
        latency = packet.latency_ns()
        if latency is not None:
            self._samples_ns.append(latency)

    @property
    def count(self):
        return len(self._samples_ns)

    def samples_us(self):
        return [ns / NS_PER_US for ns in self._samples_ns]

    def summary_us(self):
        return summarize(self.samples_us())


# ======================================================================
# Frozen pre-PR traffic generators (coroutine trampolining, one Packet
# allocation per emission). They accept and ignore the ``pool`` kwarg so
# the current harness can construct them unmodified.
# ======================================================================


class _LegacyGenerator:
    def __init__(
        self,
        sim,
        nic,
        src="10.1.0.2",
        dst="10.2.0.2",
        dst_port=9,
        payload_bytes=4,
        flow="default",
        name="traffic",
        pool=None,
        wire=None,  # link faults came later; legacy trials are fault-free
    ):
        self.sim = sim
        self.nic = nic
        self.src = parse_ip(src)
        self.dst = parse_ip(dst)
        self.dst_port = dst_port
        self.payload_bytes = payload_bytes
        self.flow = flow
        self.name = name
        self.min_interval_ns = packet_time_ns(payload_bytes)
        self.sent = 0
        self.process = None

    def start(self):
        if self.process is not None:
            raise RuntimeError("generator %s already started" % self.name)
        self.process = Process(self.sim, self._body(), name=self.name).start()
        return self

    def stop(self):
        if self.process is not None:
            self.process.kill()

    def _emit(self):
        packet = Packet(
            src=self.src,
            dst=self.dst,
            dst_port=self.dst_port,
            payload_bytes=self.payload_bytes,
            created_ns=self.sim.now,
            flow=self.flow,
        )
        self.nic.receive_from_wire(packet)
        self.sent += 1
        return packet


class LegacyConstantRateGenerator(_LegacyGenerator):
    def __init__(self, sim, nic, rate_pps, jitter_fraction=0.0, rng=None, **kwargs):
        super().__init__(sim, nic, **kwargs)
        self.jitter_fraction = jitter_fraction
        self.rng = rng
        self.interval_ns = max(self.min_interval_ns, int(round(NS_PER_SEC / rate_pps)))

    def _body(self):
        while True:
            gap = self.interval_ns
            if self.jitter_fraction > 0.0:
                spread = self.jitter_fraction
                gap = int(gap * self.rng.uniform(1.0 - spread, 1.0 + spread))
                gap = max(self.min_interval_ns, gap)
            yield Sleep(gap)
            self._emit()


class LegacyPoissonGenerator(_LegacyGenerator):
    def __init__(self, sim, nic, rate_pps, rng, **kwargs):
        super().__init__(sim, nic, **kwargs)
        self.rng = rng
        self.mean_interval_ns = NS_PER_SEC / rate_pps

    def _body(self):
        while True:
            gap = int(self.rng.expovariate(1.0) * self.mean_interval_ns)
            yield Sleep(max(self.min_interval_ns, gap))
            self._emit()


class LegacyBurstyGenerator(_LegacyGenerator):
    def __init__(self, sim, nic, rate_pps, burst_size=32, rng=None, **kwargs):
        super().__init__(sim, nic, **kwargs)
        self.burst_size = burst_size
        self.rng = rng
        burst_span_ns = burst_size * self.min_interval_ns
        period_ns = burst_size * NS_PER_SEC / rate_pps
        self.gap_ns = max(0, int(period_ns - burst_span_ns))

    def _body(self):
        while True:
            for _ in range(self.burst_size):
                yield Sleep(self.min_interval_ns)
                self._emit()
            gap = self.gap_ns
            if self.rng is not None and gap > 0:
                gap = int(gap * self.rng.uniform(0.5, 1.5))
            if gap > 0:
                yield Sleep(gap)


# ======================================================================
# Frozen pre-PR IP-layer and driver hot bodies (installed onto the real
# classes while the legacy run executes). Fresh Work/Sleep objects per
# packet, ``for command in ...`` trampolines instead of ``yield from``.
# ======================================================================


def _legacy_input_packet(self, packet):
    for tap in self.taps:
        yield Work(self.costs.packet_filter_tap)
        tap.deliver(packet)
    if self.screen_path is not None:
        yield Work(self.costs.ip_input_to_screen_queue)
        if self.screen_path.deliver(packet):
            self.screened_in.increment()
        return
    yield Work(self.costs.ip_forward)
    self._dispatch(packet)


def _legacy_output_after_screen(self, packet):
    yield Work(self.costs.ip_output_after_screen)
    self._dispatch(packet)


def _legacy_tx_service(self, quota=None):
    done = self.nic.tx_done_slots()
    if done:
        yield Work(self.costs.tx_reclaim_per_packet * done)
        self.nic.tx_reclaim()
    moved = 0
    while (
        (quota is None or moved < quota)
        and self.nic.tx_free_slots() > 0
        and not self.ifqueue.empty
    ):
        yield Work(self.costs.tx_start_per_packet)
        packet = self.ifqueue.dequeue()
        if packet is None:  # pragma: no cover - guarded by loop condition
            break
        self.nic.tx_enqueue(packet)
        self.tx_packets_started.increment()
        moved += 1
    return moved


def _legacy_rx_handler(self):
    per_packet = self.costs.rx_device_per_packet + self.extra_rx_cycles
    while True:
        if not self.rx_line.enabled:
            return
        self.rx_line.acknowledge()
        packet = self.nic.rx_pull()
        if packet is None:
            return
        yield Work(per_packet)
        self.rx_packets_processed.increment()
        accepted = self.ip_input.enqueue(packet)
        if accepted:
            yield Work(self.costs.softirq_post)


def _legacy_softirq_body(self):
    while True:
        self._softnet_line.acknowledge()
        packet = self.ipintrq.dequeue()
        if packet is None:
            return
        yield Work(self.costs.ipintrq_dequeue)
        for command in self.ip.input_packet(packet):
            yield command


def _legacy_netisr_body(self):
    while True:
        packet = self.ipintrq.dequeue()
        if packet is None:
            yield WaitSignal(self._netisr_signal)
            continue
        yield Work(self.costs.ipintrq_dequeue)
        for command in self.ip.input_packet(packet):
            yield command


def _legacy_rx_callback(self, quota):
    self.rx_callback_runs.increment()
    self.rx_service_needed = False
    handled = 0
    while quota is None or handled < quota:
        if self.polling is not None and not self.polling.input_allowed:
            break
        packet = self.nic.rx_pull()
        if packet is None:
            break
        yield Work(self.costs.polled_rx_per_packet)
        self.rx_packets_processed.increment()
        for command in self.ip.input_packet(packet):
            yield command
        handled += 1
    if self.nic.rx_pending() > 0:
        self.rx_service_needed = True
    return handled


def _legacy_service_handler(self):
    while True:
        self.rx_line.acknowledge()
        self.tx_line.acknowledge()
        self.service_rounds.increment()
        handled = 0
        while self.quota is None or handled < self.quota:
            packet = self.nic.rx_pull()
            if packet is None:
                break
            yield Work(self.costs.polled_rx_per_packet)
            self.rx_packets_processed.increment()
            for command in self.ip.input_packet(packet):
                yield command
            handled += 1
        moved = yield from self._tx_service(self.quota)
        if handled == 0 and moved == 0:
            return


def _legacy_poll_body(self):
    costs = self.costs
    while True:
        yield Sleep(self.poll_interval_ns)
        self.polls.increment()
        yield Work(costs.poll_loop_overhead + costs.poll_device_check)
        worked = False
        handled = 0
        while self.quota is None or handled < self.quota:
            packet = self.nic.rx_pull()
            if packet is None:
                break
            yield Work(costs.polled_rx_per_packet)
            self.rx_packets_processed.increment()
            for command in self.ip.input_packet(packet):
                yield command
            handled += 1
            worked = True
        moved = yield from self._tx_service(self.quota)
        if moved:
            worked = True
        if not worked:
            self.idle_polls.increment()


# ======================================================================
# Patch plumbing
# ======================================================================


def _disabled_pool(enabled=True, **kwargs):
    """Stand-in for ``topology.PacketPool``: pooling did not exist."""
    return PacketPool(enabled=False)


_PATCHES = [
    # Engine: the kernel instantiates CPU/InterruptController through
    # these module-level names (kernel.py), so swapping them swaps the
    # whole scheduling substrate.
    (kernel_mod, "CPU", LegacyCPU),
    (kernel_mod, "InterruptController", LegacyInterruptController),
    # Topology-level components.
    (topology, "NIC", LegacyNIC),
    (topology, "LatencyRecorder", LegacyLatencyRecorder),
    (topology, "PacketPool", _disabled_pool),
    # Generators (constructed via the harness module namespace).
    (harness, "ConstantRateGenerator", LegacyConstantRateGenerator),
    (harness, "PoissonGenerator", LegacyPoissonGenerator),
    (harness, "BurstyGenerator", LegacyBurstyGenerator),
    # Hot method bodies on the real classes.
    (ip_mod.IPLayer, "input_packet", _legacy_input_packet),
    (ip_mod.IPLayer, "output_after_screen", _legacy_output_after_screen),
    (base_mod.Driver, "_tx_service", _legacy_tx_service),
    (bsd_mod.BsdDriver, "_rx_handler", _legacy_rx_handler),
    (bsd_mod.ClassicIPInput, "_softirq_body", _legacy_softirq_body),
    (bsd_mod.ClassicIPInput, "_netisr_body", _legacy_netisr_body),
    (polled_mod.PolledDriver, "rx_callback", _legacy_rx_callback),
    (highipl_mod.HighIplDriver, "_service_handler", _legacy_service_handler),
    (clocked_mod.ClockedPollingDriver, "_poll_body", _legacy_poll_body),
]


@contextmanager
def legacy_path():
    """Temporarily swap the pre-PR packet path into the live modules."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in _PATCHES]
    for obj, name, replacement in _PATCHES:
        setattr(obj, name, replacement)
    try:
        yield
    finally:
        for obj, name, original in saved:
            setattr(obj, name, original)


# ======================================================================
# Measurement
# ======================================================================


def _time_trials(factory, rate, timing, repeats):
    """Best-of-``repeats`` wall time for one run_trial cell; the (fully
    deterministic) TrialResult of the last repeat is returned with it."""
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = harness.run_trial(
            TrialSpec.from_kwargs(factory(), rate, **timing)
        )
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def bench_cells(timing, rates, variant_list, repeats):
    cells = []
    for vname, factory in variant_list:
        for rate in rates:
            new_s, new_res = _time_trials(factory, rate, timing, repeats)
            with legacy_path():
                legacy_s, legacy_res = _time_trials(factory, rate, timing, repeats)
            identical = asdict(legacy_res) == asdict(new_res)
            if not identical:
                raise SystemExit(
                    "FATAL: legacy and current paths diverged for %s @ %d pps "
                    "— the fast path is no longer result-identical" % (vname, rate)
                )
            packets = new_res.generated + new_res.delivered
            cells.append(
                {
                    "variant": vname,
                    "rate_pps": rate,
                    "legacy_s": round(legacy_s, 4),
                    "new_s": round(new_s, 4),
                    "speedup": round(legacy_s / new_s, 3),
                    "identical": True,
                    "packets": packets,
                    "new_packets_per_wall_s": int(packets / new_s),
                    "legacy_packets_per_wall_s": int(packets / legacy_s),
                }
            )
            print(
                "  %-10s %6d pps  legacy %.3fs  new %.3fs  speedup %.2fx"
                % (vname, rate, legacy_s, new_s, legacy_s / new_s)
            )
    return cells


def memory_check(duration_s, rate=12_000, sample_cap=512):
    """Long-duration bounded-memory check: a capped reservoir recorder
    and the packet pool must keep the live set flat while the trial's
    observation count grows without bound."""
    config = variants.polling()
    router = topology.Router(config)
    router.latency = LatencyRecorder(router.sim, sample_cap=sample_cap)
    result = harness.run_trial(
        TrialSpec(config, rate, duration_s=duration_s, warmup_s=0.05, seed=0),
        router=router,
    )
    recorder = router.latency
    pool = router.packet_pool
    # Steady-state live packets are bounded by ring/queue capacities, so
    # pool allocations must be a tiny fraction of the packets emitted.
    pool_bound = config.rx_ring_capacity + config.tx_ring_capacity + 128
    check = {
        "duration_s": duration_s,
        "rate_pps": rate,
        "observations": recorder.count,
        "sample_cap": sample_cap,
        "samples_held": recorder.samples_held,
        "packets_generated": result.generated,
        "pool_allocated": pool.allocated,
        "pool_reused": pool.reused,
        "pool_free": pool.free_count,
        "latency_bounded": recorder.samples_held <= sample_cap < recorder.count,
        "pool_bounded": pool.allocated <= pool_bound
        and pool.free_count <= pool.max_free,
    }
    if not (check["latency_bounded"] and check["pool_bounded"]):
        raise SystemExit("FATAL: memory check failed: %r" % check)
    print(
        "  memory: %d observations in %d-sample reservoir, %d packets from "
        "%d pooled allocations (%d reuses)"
        % (
            check["observations"],
            check["samples_held"],
            check["packets_generated"],
            check["pool_allocated"],
            check["pool_reused"],
        )
    )
    return check


def check_regression(report, baseline_file, threshold=0.8):
    """Fail if the 12k-pps speedup ratio fell below ``threshold`` times
    the committed baseline's. Ratios (not seconds) transfer across
    hardware, since legacy and current run on the same interpreter."""
    with open(baseline_file) as handle:
        baseline = json.load(handle)
    reference = baseline.get("overall_speedup_12k")
    current = report["overall_speedup_12k"]
    if not reference:
        print("baseline %s has no overall_speedup_12k; skipping" % baseline_file)
        return
    floor = threshold * reference
    print(
        "regression gate: current %.2fx vs baseline %.2fx (floor %.2fx)"
        % (current, reference, floor)
    )
    if current < floor:
        raise SystemExit(
            "FATAL: packet-path speedup regressed: %.2fx < %.2fx" % (current, floor)
        )


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (fewer cells, shorter)"
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_packetpath.json"),
        help="output JSON path",
    )
    parser.add_argument(
        "--check-regression",
        metavar="BASELINE",
        help="compare against a committed BENCH_packetpath.json and fail "
        "if the 12k-pps speedup drops below 0.8x the baseline's",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        timing = dict(duration_s=0.1, warmup_s=0.03, seed=0)
        rates = (GATE_RATE,)
        variant_list = [VARIANTS[0], VARIANTS[1]]  # unmodified + polling
        repeats = 1
        memory_duration = 0.3
    else:
        timing = dict(duration_s=0.4, warmup_s=0.1, seed=0)
        rates = RATES
        variant_list = VARIANTS
        repeats = 3
        memory_duration = 1.5

    print("packet-path benchmark (%s mode)" % ("smoke" if args.smoke else "full"))
    cells = bench_cells(timing, rates, variant_list, repeats)
    memory = memory_check(memory_duration)

    gate_speedups = [c["speedup"] for c in cells if c["rate_pps"] == GATE_RATE]
    report = {
        "benchmark": "packetpath",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "timing": timing,
        "repeats": repeats,
        "cells": cells,
        "overall_speedup_12k": round(_geomean(gate_speedups), 3),
        "memory": memory,
    }
    print("overall speedup at %d pps: %.2fx" % (GATE_RATE, report["overall_speedup_12k"]))

    if args.check_regression:
        check_regression(report, args.check_regression)

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)


if __name__ == "__main__":
    main()
