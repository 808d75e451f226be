"""Per-layer accounting for the traced run.

The layers are the ``repro`` modules. Everything here wraps calls into
their public functions from outside; nothing in ``src/`` is changed:

* a cProfile rollup: each function's self time and call count is
  charged to the module that defines it. Time in builtins and the
  standard library is charged to the repro module that called them,
  so ``list.append`` inside ``hw/cpu.py`` counts as ``hw.cpu``;
* the compiled core's wall-clock buckets (``_corec.profile_buckets``),
  which split the compiled event loop from the Python callbacks it
  makes. cProfile cannot see inside compiled code;
* event-core counters, read from every simulator ``run_trial`` builds;
* trial counters (NIC accepts and drops, queue drops, deliveries) read
  from the ``TrialResult``s.
"""

from __future__ import annotations

import cProfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import PurePath

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "sim", "hw.cpu", "hw.interrupts", "hw.machine", "hw.nic", "kernel",
    "drivers", "core", "workloads", "apps", "metrics", "net",
)
#: Layers whose call count is reported as ``<layer>.calls``.
CALL_COUNT_LAYERS = ("hw.cpu", "hw.interrupts", "hw.machine")


def layer_of(code_key):
    """The layer of a cProfile key ``(filename, line, name)``, or None
    for code outside ``repro`` (builtins other than the compiled core,
    the standard library)."""
    filename, _line, name = code_key
    if filename == "~":
        return "fastcore" if "_corec" in name else None
    parts = PurePath(filename).parts
    if "repro" not in parts[:-1]:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    package = parts[index + 1]
    if package.endswith(".py"):
        return None  # repro/cli.py, repro/__init__.py
    if package == "_fastcore":
        return "fastcore"
    if package in ("hw", "experiments"):
        return "%s.%s" % (package, PurePath(parts[-1]).stem)
    return package


def rollup(stats):
    """(self seconds by layer, calls by layer) from ``Profile.stats``."""
    self_s = Counter()
    calls = Counter()
    for key, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = layer_of(key)
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        for caller, (_ccc, _cnc, caller_tt, _cct) in callers.items():
            caller_layer = layer_of(caller)
            if caller_layer is not None:
                self_s[caller_layer] += caller_tt
    return self_s, calls


def _cumtime(stats, function):
    code = function.__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[3] if entry is not None else 0.0


@contextmanager
def patched(owner, name, make_wrapper):
    """Replace ``owner.name`` with ``make_wrapper(original)`` for the
    duration of the block."""
    original = getattr(owner, name)
    setattr(owner, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def timed_into(totals, key):
    """Wrapper factory: add each call's wall time to ``totals[key]``."""
    def make(function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                totals[key] += time.perf_counter() - start
        return wrapper
    return make


class LayerProfile:
    """Profile blocks of trials and roll the cost up by layer.

    Totals accumulate over every ``measure()`` block. :meth:`as_dict` is
    plain numbers, so profiles taken in worker processes can be shipped
    back as JSON and added with :meth:`merge`.
    """

    def __init__(self):
        self.totals = Counter()
        self.slab_high_water = 0

    @contextmanager
    def measure(self):
        from repro.experiments import harness, topology
        try:
            from repro._fastcore import _corec
        except ImportError:
            _corec = None

        simulators = []

        def capture(make_simulator):
            def wrapper(*args, **kwargs):
                sim = make_simulator(*args, **kwargs)
                simulators.append(sim)
                return sim
            return wrapper

        profiler = cProfile.Profile()
        if _corec is not None:
            _corec.profile_buckets(True)
        try:
            with patched(harness, "make_simulator", capture):
                profiler.enable()
                try:
                    yield
                finally:
                    profiler.disable()
        finally:
            if _corec is not None:
                split = _corec.profile_snapshot()
                _corec.profile_buckets(False)
                self.totals["fastcore.run_s"] += split["run_s"]
                self.totals["fastcore.compiled_s"] += split["compiled_s"]
                self.totals["fastcore.py_callback_s"] += split[
                    "python_callback_s"]
                self.totals["fastcore.py_callback_calls"] += split[
                    "python_callback_calls"]
        profiler.create_stats()
        stats = profiler.stats
        self_s, calls = rollup(stats)
        for layer in SELF_TIME_LAYERS:
            self.totals[layer + ".self_s"] += self_s[layer]
        for layer in CALL_COUNT_LAYERS:
            self.totals[layer + ".calls"] += calls[layer]
        self.totals["harness.build_s"] += _cumtime(
            stats, topology.Router.__init__) + _cumtime(
            stats, topology.Router.start)
        for sim in simulators:
            counters = sim.stats
            self.totals["sim.events_fired"] += counters["fired"]
            self.totals["sim.events_cancelled"] += counters["cancelled"]
            self.slab_high_water = max(self.slab_high_water,
                                       counters["slab_high_water"])

    def as_dict(self):
        return dict(self.totals, **{"sim.slab_high_water":
                                    self.slab_high_water})

    def merge(self, data):
        """Add another profile's :meth:`as_dict` (e.g. a worker's)."""
        data = dict(data)
        self.slab_high_water = max(self.slab_high_water,
                                   data.pop("sim.slab_high_water"))
        self.totals.update(data)


def trial_counters(results):
    """NIC, queue and delivery counts summed over finished trials, and
    the share of accepted packets that were delivered."""
    counts = Counter()
    for result in results:
        for name, value in result.counters.items():
            if name.startswith("nic.") and name.endswith(".rx_accepted"):
                counts["hw.nic.rx_accepted"] += value
            elif name.startswith("nic.") and name.endswith(
                    ".rx_overflow_drops"):
                counts["hw.nic.rx_overflow_drops"] += value
            elif name.startswith("queue.") and name.endswith(".dropped"):
                counts["kernel.queue_drops"] += value
            elif name == "router.delivered":
                counts["delivered"] += value
    delivered = counts.pop("delivered")
    accepted = counts["hw.nic.rx_accepted"]
    counts["net.useful_frac"] = delivered / accepted if accepted else 0.0
    return counts
