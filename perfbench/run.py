"""Benchmark of the receive-livelock simulator: one command, every metric.

    python3 perfbench/run.py --workload uni-fast --seed 1 --seconds 15 --trace 0

Runs one workload closed-loop (the next trial starts when the previous
one ends) for ``--seconds``, checks every trial's output against a
reference, and prints one JSON object as its last line. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. The
metric names and units are read from ``BENCHMARK.json``; see
``perfbench/README.md`` for what each one means.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for result caches and worker files; removed on exit.
WORK_ROOT = ROOT / ".perfbench-work"

RATE_PPS = 12_000
#: Fresh-interpreter starts per run for ``setup_s``; the first fills
#: ``__pycache__`` and the page cache and is discarded.
SETUP_STARTS = 12
#: Cached re-reads of the workload's trials after each compute pass.
WARM_PASSES = 10
#: Share of a traced run spent untraced, to measure tracing overhead.
UNTRACED_SHARE = 1 / 3

sys.path.insert(0, str(HERE))
from layers import (  # noqa: E402
    LayerProfile, patched, timed_into, trial_counters)
from hostspeed import REFERENCE_S, reference_s  # noqa: E402
from worker import (  # noqa: E402
    LAYER_DIR_ENV, reap_group, ready_pool, stop_workers, traced_chunk)


class Workload:
    """A named set of trials and how to run them."""

    def __init__(self, name, backend, cores=1, jobs=0):
        self.name = name
        self.backend = backend
        self.cores = cores
        self.jobs = jobs


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("uni-fast", "fast"),
        Workload("smp4-fast", "fast", cores=4),
        # At least two workers, so the engine's parallel path always runs.
        Workload("fig-sweep", "pure",
                 jobs=min(4, max(2, len(os.sched_getaffinity(0))))),
    )
}


def fast_specs(workload, seed):
    """The driver × traffic-shape cells of a fast workload, at 12k pps."""
    from repro.core import variants
    from repro.experiments.spec import TrialSpec
    from repro.hw.machine import MachineSpec

    if workload.cores == 1:
        configs = [variants.unmodified(), variants.high_ipl(quota=10),
                   variants.polling(quota=10), variants.clocked()]
        timing = dict(warmup_s=0.1, duration_s=0.4)
        machine = None
    else:
        configs = [variants.unmodified(), variants.polling(quota=10),
                   variants.hybrid(quota=10)]
        timing = dict(warmup_s=0.05, duration_s=0.25)
        machine = MachineSpec(cores=workload.cores, steering="rss")
    return [
        TrialSpec.from_kwargs(config, RATE_PPS, backend="fast", seed=seed,
                              workload=shape, machine=machine, **timing)
        for config in configs
        for shape in ("constant", "bursty", "poisson")
    ]


#: Figure 6-3 and 6-4 trial timing (simulated seconds) for fig-sweep.
SWEEP_TIMING = dict(warmup_s=0.025, duration_s=0.05)


def run_figures(seed, **engine_kwargs):
    """Figures 6-3 and 6-4 over the default rate grid on the pure
    backend; returns every ``TrialResult`` the engine handed back."""
    from repro.experiments import figures
    from repro.experiments.harness import DEFAULT_RATE_GRID

    results = []

    def record(run_trials):
        def wrapper(specs, **kwargs):
            out = run_trials(specs, **kwargs)
            results.extend(out)
            return out
        return wrapper

    kwargs = dict(SWEEP_TIMING, backend="pure", seed=seed, strict=False,
                  **engine_kwargs)
    with patched(figures, "run_trials", record):
        figures.figure_6_3(DEFAULT_RATE_GRID, **kwargs)
        figures.figure_6_4(DEFAULT_RATE_GRID, **kwargs)
    return results


def trial_checksum(result):
    """Checksum of everything a trial measured (not which core ran it);
    None for a trial that failed."""
    from repro.experiments.results import trial_to_dict

    if getattr(result, "failed", False):
        return None
    data = trial_to_dict(result)
    data.pop("backend", None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def combined_checksum(checksums):
    return hashlib.sha256(" ".join(map(str, checksums)).encode()).hexdigest()[:16]


def ensure_fast_c():
    """Build the C extension if it is missing or older than its source,
    then refuse to go on unless this process loaded a fresh ``fast-c``.

    The ``.so`` is gitignored, so a fresh checkout always builds here;
    without the guard a stale or missing extension would silently time
    ``fast-py`` or the previous commit's C.
    """
    spec = importlib.util.spec_from_file_location(
        "build_fastcore", ROOT / "scripts" / "build_fastcore.py")
    build_script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_script)
    if build_script.corec_stale():
        with redirect_stdout(sys.stderr):
            build_script.build_corec(verbose=True)
    from repro._fastcore import FASTCORE_ERROR, FASTCORE_KIND

    if FASTCORE_KIND != "fast-c" or build_script.corec_stale():
        raise SystemExit("perfbench: refusing to time backend %r (%s); the "
                         "compiled fast-c core is required"
                         % (FASTCORE_KIND, FASTCORE_ERROR or "stale build"))
    return FASTCORE_KIND


def slowdown():
    """How much slower the host runs the reference work now than at the
    reference speed."""
    return reference_s() / REFERENCE_S


def measure_setup(workload, work):
    """Medians of (setup, import, pool-ready) seconds over fresh
    interpreters, the first start dropped."""
    starts = []
    for index in range(SETUP_STARTS):
        command = [sys.executable, str(HERE / "probe.py"),
                   "--backend", workload.backend]
        if workload.jobs:
            command += ["--jobs", str(workload.jobs), "--workdir", str(work)]
        launched = time.monotonic()
        # Its own process group, so nothing it starts can outlive it.
        probe_process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            stdout, stderr = probe_process.communicate(timeout=120)
        finally:
            reap_group(probe_process)
        if probe_process.returncode:
            raise subprocess.CalledProcessError(
                probe_process.returncode, command, stdout, stderr)
        probe = json.loads(stdout.splitlines()[-1])
        if index:
            starts.append((probe["ready"] - launched, probe["import_s"],
                           probe["pool_ready_s"]))
    return [statistics.median(column) for column in zip(*starts)]


@contextmanager
def engine_instruments(totals):
    """Time the sweep engine's dispatch, cache and wire calls, and run
    every worker chunk under a layer profile (``worker.traced_chunk``)."""
    from concurrent.futures import Future

    from repro.experiments import engine, wire

    def count_chunks(build_chunks):
        def wrapper(*args, **kwargs):
            chunks = build_chunks(*args, **kwargs)
            totals["engine.chunks"] += len(chunks)
            return chunks
        return wrapper

    with ExitStack() as stack:
        for owner, name, make_wrapper in (
            (Future, "result", timed_into(totals, "engine.dispatch_wait_s")),
            (engine.ResultCache, "get",
             timed_into(totals, "engine.cache_get_s")),
            (engine.ResultCache, "put",
             timed_into(totals, "engine.cache_put_s")),
            (wire, "unpack_trial", timed_into(totals, "wire.decode_s")),
            (engine, "_build_chunks", count_chunks),
            (engine, "_run_chunk", lambda _original: traced_chunk),
        ):
            stack.enter_context(patched(owner, name, make_wrapper))
        yield


class Runner:
    """One run of one workload: closed-loop rounds until time is up.

    A round computes the workload's trials once (timed), fills a fresh
    result cache with them, and reads them back ``WARM_PASSES`` times
    (each timed). Every result is checksummed against the reference.
    """

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.specs = (fast_specs(workload, seed) if not workload.jobs
                      else None)
        #: Per round: sim-s per wall-s and cached trials per second, both
        #: scaled to the reference host speed; wall seconds of the
        #: computing part; the host's slowdown.
        self.compute_rates = []
        self.warm_rates = []
        self.compute_walls = []
        self.slowdowns = []
        # Distinct checksum lists and how many passes returned each:
        # memory stays flat however many rounds fit in the run.
        self.outcomes = Counter()
        self.stores = []
        self.last_results = []

    # -- one round --------------------------------------------------

    def compute(self, store):
        """Run every trial once; returns (results, simulated s, wall s)."""
        from repro.experiments.harness import run_trial

        if self.workload.jobs:
            start = time.perf_counter()
            results = run_figures(self.seed, jobs=self.workload.jobs,
                                  cache=store)
            wall = time.perf_counter() - start
            sim_s = len(results) * sum(SWEEP_TIMING.values())
            return results, sim_s, wall
        results = []
        wall = sim_s = 0.0
        for spec in self.specs:
            start = time.perf_counter()
            try:
                result = run_trial(spec)
            except Exception as exc:  # counted, and the run goes on
                print("perfbench: trial failed: %r" % (exc,), file=sys.stderr)
                result = None
            wall += time.perf_counter() - start
            sim_s += spec.warmup_s + spec.duration_s
            results.append(result)
        for spec, result in zip(self.specs, results):
            if result is not None:
                store.put(spec.fingerprint(), result)
        return results, sim_s, wall

    def warm(self, store):
        from repro.experiments.engine import run_trials

        start = time.perf_counter()
        if self.workload.jobs:
            results = run_figures(self.seed, jobs=self.workload.jobs,
                                  cache=store)
        else:
            results = run_trials(self.specs, cache=store, strict=False)
        return results, time.perf_counter() - start

    def round(self):
        """One round; its rates are scaled to the reference host speed
        by the slowdown measured right after it."""
        from repro.experiments.engine import ResultCache

        store = ResultCache(self.work / ("cache-%d" % len(self.stores)))
        self.stores.append(store)
        results, sim_s, wall = self.compute(store)
        self.record(results)
        self.last_results = results
        compute_factor = self.worker_slowdown() if self.workload.jobs else None
        warm_rates = []
        for _ in range(WARM_PASSES):
            warm_results, warm_wall = self.warm(store)
            warm_rates.append(len(warm_results) / warm_wall)
            self.record(warm_results)
        shutil.rmtree(store.root)
        factor = slowdown()
        self.slowdowns.append(factor)
        self.compute_walls.append(wall)
        self.compute_rates.append(sim_s / wall * (compute_factor or factor))
        self.warm_rates.append(statistics.median(warm_rates) * factor)

    def worker_slowdown(self):
        """The host's slowdown where fig-sweep trials run: the reference
        work timed on every worker at once."""
        from repro.experiments import engine

        checkins = ready_pool(engine.warm_pool(self.workload.jobs),
                              self.workload.jobs, self.work,
                              measure_speed=True)
        return statistics.mean(speed for _, _, speed in checkins) / REFERENCE_S

    def record(self, results):
        self.outcomes[tuple(trial_checksum(r) if r is not None else None
                            for r in results)] += 1

    def rounds_until(self, deadline):
        """Rounds until ``deadline`` (at least one)."""
        while True:
            self.round()
            if time.monotonic() >= deadline:
                return

    # -- checks -----------------------------------------------------

    def oracle(self):
        """Reference results: the pure backend for fast trials, a serial
        uncached sweep for the figure sweep."""
        from repro.experiments.harness import run_trial

        if self.workload.jobs:
            return run_figures(self.seed)
        return [run_trial(spec.replace(backend="pure"))
                for spec in self.specs]

    def check(self, reference):
        """Count results that differ from the reference; returns
        (attempted, failed, reference checksums)."""
        expected = [trial_checksum(result) for result in reference]
        attempted = failed = 0
        for checksums, passes in self.outcomes.items():
            attempted += passes * len(expected)
            if len(checksums) != len(expected):
                failed += passes * len(expected)
                continue
            failed += passes * sum(1 for got, want in zip(checksums, expected)
                                   if want is None or got != want)
        return attempted, failed, expected


def run(workload, args, work):
    from repro.sim.backend import make_simulator

    setup = measure_setup(workload, work)
    flavour = make_simulator(workload.backend).backend_name
    if workload.jobs:
        from repro.experiments import engine

        ready_pool(engine.warm_pool(workload.jobs), workload.jobs, work)
    # One untimed round first: lazy imports, first-call set-up and the
    # workers' first trials are not charged to the timed rounds.
    Runner(workload, args.seed, work).round()
    runner = Runner(workload, args.seed, work)

    start = time.monotonic()
    deadline = start + args.seconds
    if args.trace:
        runner.rounds_until(start + args.seconds * UNTRACED_SHARE)
        untraced_rounds = len(runner.compute_rates)
        profile = LayerProfile()
        # Fig-sweep trials run in the workers, which profile themselves.
        with engine_instruments(profile.totals), (
                nullcontext() if workload.jobs else profile.measure()):
            runner.rounds_until(deadline)
    else:
        runner.rounds_until(deadline)

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.jobs:
        from repro.experiments import engine

        rss_kib += max(rss for _, rss, _ in ready_pool(
            engine.warm_pool(workload.jobs), workload.jobs, work))
        stop_workers()

    reference = runner.oracle()
    attempted, failed, expected = runner.check(reference)
    checksum = combined_checksum(expected)
    correct = failed == 0
    if args.expect is not None and args.expect != checksum:
        print("perfbench: checksum %s differs from the expected %s"
              % (checksum, args.expect), file=sys.stderr)
        failed = attempted
        correct = False

    print("perfbench: %s seed %d, backend %s: %s" % (
        workload.name, args.seed, flavour, describe_inputs(workload, runner)))
    print("perfbench: %d timed rounds, %d trials checked, %d failed; "
          "checksum %s" % (len(runner.compute_rates), attempted, failed,
                           checksum))
    # Set-up is scaled by the run's median slowdown: a single reference
    # timing next to each start is too noisy.
    run_slowdown = statistics.median(runner.slowdowns)
    setup_s, import_s, pool_ready_s = (value / run_slowdown
                                       for value in setup)
    print("perfbench: host slowdown %.3f (median); unscaled medians: "
          "sim_s_per_wall_s %.4f, cached_trials_per_s %.1f, setup_s %.4f"
          % (run_slowdown,
             statistics.median(rate / factor for rate, factor in zip(
                 runner.compute_rates, runner.slowdowns)),
             statistics.median(rate / factor for rate, factor in zip(
                 runner.warm_rates, runner.slowdowns)),
             setup[0]))

    if args.trace:
        rates = runner.compute_rates
        metrics = per_layer(profile, runner, workload,
                            len(rates) - untraced_rounds, work)
        metrics["setup.import_s"] = import_s
        metrics["setup.pool_ready_s"] = pool_ready_s
        metrics["trace.overhead"] = (
            statistics.median(rates[:untraced_rounds])
            / statistics.median(rates[untraced_rounds:]))
    else:
        outputs = [r.output_rate_pps for r in reference]
        metrics = {
            "sim_s_per_wall_s": statistics.median(runner.compute_rates),
            "cached_trials_per_s": statistics.median(runner.warm_rates),
            "setup_s": setup_s,
            "peak_rss_mib": rss_kib / 1024,
            "fwd_pps": sum(outputs) / len(outputs),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(metrics, "per_layer" if args.trace
                              else "end_to_end"),
    }


def per_layer(profile, runner, workload, rounds, work):
    """Per-layer metrics per traced round (a round computes every trial
    once and reads them back ``WARM_PASSES`` times)."""
    if workload.jobs:
        for path in (work / "layers").glob("*.json"):
            profile.merge(json.loads(path.read_text()))
    totals = profile.totals
    busy_s = totals.pop("engine.worker_busy_s", 0.0)
    run_s = totals.pop("fastcore.run_s", 0.0)
    stores = runner.stores[-rounds:]
    totals["engine.cache_hits"] = sum(store.hits for store in stores)
    totals["engine.cache_misses"] = sum(store.misses for store in stores)
    totals["engine.cache_evictions"] = sum(
        store.evictions for store in stores)
    metrics = {name: value / rounds for name, value in totals.items()}
    metrics["sim.slab_high_water"] = profile.slab_high_water
    metrics["fastcore.compiled_share"] = (
        totals["fastcore.compiled_s"] / run_s if run_s else 0.0)
    if workload.jobs:
        metrics["engine.worker_busy_frac"] = busy_s / (
            workload.jobs * sum(runner.compute_walls[-rounds:]))
    # One round's trials: the counts are exact.
    metrics.update(trial_counters(
        r for r in runner.last_results if not getattr(r, "failed", False)))
    return metrics


def describe_inputs(workload, runner):
    if workload.jobs:
        return ("figures 6-3 and 6-4, 7 series x 12 rates, %.3f sim-s per "
                "trial, jobs=%d, %d cached re-reads per sweep"
                % (sum(SWEEP_TIMING.values()), workload.jobs, WARM_PASSES))
    spec = runner.specs[0]
    return ("%d cells x %.2f sim-s at %d pps, cores=%d, %d cached re-reads "
            "per round" % (len(runner.specs), spec.warmup_s + spec.duration_s,
                           RATE_PPS, workload.cores, WARM_PASSES))


def with_units(metrics, kind):
    """Attach units from BENCHMARK.json; every declared metric, no other."""
    declared = {m["name"]: m["unit"]
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    for name in declared:
        metrics.setdefault(name, 0)
    extra = set(metrics) - set(declared)
    if extra:
        raise SystemExit("perfbench: undeclared metrics %s" % sorted(extra))
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect", metavar="CHECKSUM",
                        help="fail every trial unless the workload's "
                        "combined checksum equals CHECKSUM")
    args = parser.parse_args(argv)
    # A terminated run still stops its workers (the ``finally`` below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator sources under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    os.environ.pop("REPRO_BACKEND", None)
    workload = WORKLOADS[args.workload]
    if workload.backend == "fast":
        ensure_fast_c()

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    os.environ[LAYER_DIR_ENV] = str(work / "layers")
    (work / "layers").mkdir()
    try:
        report = run(workload, args, work)
    finally:
        stop_workers()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
