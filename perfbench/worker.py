"""Functions the benchmark sends to the sweep engine's worker processes.

Workers are spawned, so these are looked up by module path; the
benchmark's directory is on ``sys.path`` in every worker because spawn
copies the parent's path.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import tempfile
import time
from concurrent.futures import wait
from pathlib import Path

from hostspeed import reference_s

#: Directory a traced worker writes its per-chunk layer totals into.
#: Set by the parent before the pool is spawned; workers inherit it.
LAYER_DIR_ENV = "PERFBENCH_LAYER_DIR"


def checkin(barrier_dir, count, measure_speed):
    """Block until ``count`` workers have checked in; then, if asked,
    time the host-speed reference work. Returns this worker's
    ``(pid, peak RSS in KiB, reference seconds or None)``.

    Submitting ``count`` of these at once needs ``count`` distinct
    workers (each holds its task until all arrive), so their return
    proves every worker has finished its initializer, and the reference
    runs on all of them at once, as the trials do.
    """
    Path(barrier_dir, str(os.getpid())).touch()
    deadline = time.monotonic() + 60.0
    while (len(os.listdir(barrier_dir)) < count
           and time.monotonic() < deadline):
        time.sleep(0.0005)
    speed = reference_s() if measure_speed else None
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return os.getpid(), rss_kib, speed


def ready_pool(pool, count, work_dir, measure_speed=False):
    """Wait until all ``count`` workers of ``pool`` are up; returns one
    :func:`checkin` result per worker. The check-in directory is made
    fresh under ``work_dir``."""
    barrier_dir = tempfile.mkdtemp(prefix="checkin-", dir=work_dir)
    futures = [pool.submit(checkin, barrier_dir, count, measure_speed)
               for _ in range(count)]
    # Read results only once all are done: a traced sweep times
    # Future.result as engine dispatch wait, and this is not that.
    wait(futures, timeout=120)
    return [future.result(timeout=0) for future in futures]


def stop_workers():
    """Stop the engine's worker pool and this process's multiprocessing
    resource tracker, waiting for each to exit.

    The tracker is a helper process that spawn pools start; left alone it
    exits only some time after its parent does, so it would outlive the
    benchmark. Closing its pipe once no worker holds a copy stops it now.
    """
    from multiprocessing import resource_tracker

    from repro.experiments import engine

    engine.shutdown_warm_pool(wait=True)
    resource_tracker._resource_tracker._stop()


def reap_group(process, timeout=10.0):
    """Kill whatever is left of the process group that ``process`` (a
    ``Popen`` started with ``start_new_session``) leads, reap
    ``process`` and wait until the group is empty."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise RuntimeError("perfbench: process group %d did not exit"
                       % process.pid)


def traced_chunk(specs):
    """Stand-in for the engine's ``_run_chunk`` during a traced sweep:
    runs the real one under a :class:`layers.LayerProfile` and records
    the worker's busy time and wire-encode time next to it."""
    from layers import LayerProfile, patched, timed_into
    from repro.experiments import engine, wire

    profile = LayerProfile()
    start = time.perf_counter()
    with patched(wire, "pack_trial",
                 timed_into(profile.totals, "wire.encode_s")):
        with profile.measure():
            out = engine._run_chunk(specs)
    profile.totals["engine.worker_busy_s"] += time.perf_counter() - start
    path = Path(os.environ[LAYER_DIR_ENV],
                "%d-%d.json" % (os.getpid(), time.monotonic_ns()))
    path.write_text(json.dumps(profile.as_dict()))
    return out
