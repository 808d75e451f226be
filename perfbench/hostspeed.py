"""The host-speed reference: a fixed piece of pure-Python work.

The benchmark's timings are scaled by how long this takes at the same
moment, because the host's speed drifts by a third or more within
minutes (see README.md, "Steadiness"). It is a small discrete-event
loop, like the simulator: a heap of slotted event objects, dicts,
list queues and a seeded random generator.

Do not change it. Every scaled timing is relative to this code, so a
change here moves every end-to-end timing of every workload.
"""

import heapq
import random
import time

#: Seconds the reference takes at the reference host speed. A timing
#: is scaled to that speed: ``measured × reference_s() / REFERENCE_S``.
REFERENCE_S = 0.1


class _Event:
    __slots__ = ("at", "seq", "kind", "data")

    def __init__(self, at, seq, kind, data):
        self.at = at
        self.seq = seq
        self.kind = kind
        self.data = data

    def __lt__(self, other):
        return (self.at, self.seq) < (other.at, other.seq)


def work(events=40_000):
    """Arrivals and departures over eight bounded queues."""
    rng = random.Random(12345)
    heap = []
    seq = 0
    queues = {flow: [] for flow in range(8)}
    counts = {"in": 0, "out": 0, "drop": 0}
    for flow in range(32):
        seq += 1
        heapq.heappush(heap, _Event(rng.random(), seq, 0, {"flow": flow}))
    for _ in range(events):
        event = heapq.heappop(heap)
        queue = queues[event.data["flow"] & 7]
        seq += 1
        if event.kind == 0:
            if len(queue) < 50:
                queue.append(event.data)
                counts["in"] += 1
            else:
                counts["drop"] += 1
            heapq.heappush(heap, _Event(
                event.at + rng.expovariate(12.0), seq, 1, event.data))
        else:
            if queue:
                queue.pop(0)
                counts["out"] += 1
            heapq.heappush(heap, _Event(
                event.at + rng.expovariate(10.0), seq, 0,
                {"flow": event.data["flow"]}))
    return counts


def reference_s():
    """Wall seconds one run of :func:`work` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
