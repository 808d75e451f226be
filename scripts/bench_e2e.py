#!/usr/bin/env python
"""End-to-end trial benchmark: compiled packet path vs the pure oracle.

Emits ``BENCH_e2e.json``. Every cell asserts bit-identity before it
reports a speedup — the fast backend must produce a byte-identical
``TrialResult`` dict (checksummed, recorded in the report) — so a
speedup can never come from computing something different.

Where ``bench_fastcore.py`` isolates the event loop, this benchmark
times ``run_trial`` wall clock across the driver-variant × workload
matrix with the compiled packet path installed: NIC ring ops, queue
enqueue/RED, CPU-engine dispatch, IRQ delivery, and the driver/IP
bodies all run in C on the fast backend, escaping to Python only at
observable seams (traces, faults, apps, mitigation sampling).

Two measurements:

* **cells** — interleaved best-of ``run_trial`` timings per
  (variant, workload) cell, fast vs pure, with a checksummed identity
  verify on every pass. The gated geomean over all cells is the
  headline number (target ≥3×; the CI smoke floor is 2.0 to tolerate
  shared-runner noise at smoke sizes).
* **pure residue** (``--check-pure``) — the pure backend vs the frozen
  pre-PR bodies. The packet-path port added only per-trial install
  hooks to the pure path (no per-packet code), so this re-times pure
  trials with those hooks stubbed out and fails if the live pure path
  falls below the floor (CI uses 0.97).

Usage::

    PYTHONPATH=src python scripts/bench_e2e.py            # full run
    PYTHONPATH=src python scripts/bench_e2e.py --smoke    # CI-sized
    python scripts/bench_e2e.py --smoke --check-speedup 2.0 \
        --check-pure 0.97

Both need the compiled fast-c core (``scripts/build_fastcore.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro._fastcore import (  # noqa: E402
    FASTCORE_ERROR,
    FASTCORE_KIND,
    packetpath,
)
from repro.core import variants  # noqa: E402
from repro.experiments.harness import run_trial  # noqa: E402
from repro.experiments.spec import TrialSpec  # noqa: E402
from repro.experiments.results import trial_to_dict  # noqa: E402

#: The driver-variant × workload matrix. Every cell is gated: the
#: acceptance geomean is taken over all of them.
_CELLS = [
    ("unmodified", variants.unmodified, "constant", {}),
    ("unmodified", variants.unmodified, "bursty", {"burst_size": 16}),
    ("high_ipl-q10", variants.high_ipl, "constant", {}),
    ("high_ipl-q10", variants.high_ipl, "poisson", {}),
    ("polling-q10", variants.polling, "constant", {}),
    ("polling-q10", variants.polling, "bursty", {"burst_size": 16}),
    ("clocked", variants.clocked, "constant", {}),
    ("clocked", variants.clocked, "poisson", {}),
]

#: Smoke keeps one workload per driver so the CI job stays in seconds.
_SMOKE_CELLS = [cell for cell in _CELLS if cell[2] == "constant"]

_RATE_PPS = 12_000


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _comparable(result):
    data = trial_to_dict(result)
    data.pop("backend", None)
    return data


def _checksum(data):
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _run_cell(name, make_config, workload, extra, timing, repeats):
    """Interleaved best-of with a checksummed identity assert per pass.

    The identity check is free: ``trial_to_dict`` is needed anyway to
    compare, and serialising it is microseconds next to the trial.
    """
    kwargs = dict(timing, workload=workload, **extra)
    fast_best = pure_best = float("inf")
    reference = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_trial(TrialSpec.from_kwargs(
            make_config(), _RATE_PPS, backend="fast", **kwargs))
        fast_best = min(fast_best, time.perf_counter() - start)
        fast_dict = _comparable(result)

        start = time.perf_counter()
        result = run_trial(TrialSpec.from_kwargs(
            make_config(), _RATE_PPS, backend="pure", **kwargs))
        pure_best = min(pure_best, time.perf_counter() - start)
        pure_dict = _comparable(result)

        if fast_dict != pure_dict:
            diverged = sorted(
                key for key in pure_dict if pure_dict[key] != fast_dict.get(key)
            )
            raise SystemExit(
                "FATAL: cell %s/%s diverged between fast and pure: %s"
                % (name, workload, ", ".join(diverged[:8]))
            )
        if reference is None:
            reference = fast_dict
        elif fast_dict != reference:
            raise SystemExit(
                "FATAL: cell %s/%s is not deterministic across repeats"
                % (name, workload)
            )
    return {
        "variant": name,
        "workload": workload,
        "rate_pps": _RATE_PPS,
        "checksum": _checksum(reference),
        "fast_s": round(fast_best, 4),
        "pure_s": round(pure_best, 4),
        "speedup": round(pure_best / fast_best, 3),
    }


def bench_cells(cells, timing, repeats):
    # Untimed warmup so imports/code-object warm-up are not charged to
    # whichever backend runs first.
    run_trial(TrialSpec(variants.unmodified(), 1_000, duration_s=0.01,
                        warmup_s=0.0, backend="pure"))
    run_trial(TrialSpec(variants.unmodified(), 1_000, duration_s=0.01,
                        warmup_s=0.0, backend="fast"))
    rows = [
        _run_cell(name, make_config, workload, extra, timing, repeats)
        for name, make_config, workload, extra in cells
    ]
    return {
        "timing": timing,
        "repeats": repeats,
        "cells": rows,
        "gated_geomean_speedup": round(
            _geomean([r["speedup"] for r in rows]), 3
        ),
    }


def bench_pure_residue(timing, repeats):
    """Pure backend vs the frozen pre-PR bodies.

    The packet-path port touched the pure path only at per-trial seams
    (``Router.__init__``/``start`` install hooks, the generator
    ``start`` hook) — all of which no-op off the fast-c backend.
    Stubbing them reproduces the pre-PR call sequence exactly, so the
    ratio measures precisely what the PR added to the pure path.
    """
    frozen = {
        "install": packetpath.install,
        "install_started": packetpath.install_started,
        "bind_generator": packetpath.bind_generator,
        "uninstall": packetpath.uninstall,
    }

    def _stub(*_args, **_kwargs):
        return False

    def _time_once():
        start = time.perf_counter()
        run_trial(TrialSpec.from_kwargs(
            variants.unmodified(), _RATE_PPS, backend="pure", **timing))
        return time.perf_counter() - start

    # Interleaved best-of: alternating frozen/live passes per repeat so
    # thermal and cache drift never lands entirely on one side. The true
    # difference is a handful of early-return calls per trial, far below
    # per-pass noise, so the repeat count is doubled to let both best-of
    # floors converge before the ratio is taken.
    frozen_best = pure_best = float("inf")
    for _ in range(max(repeats * 2, 6)):
        try:
            packetpath.install = _stub
            packetpath.install_started = _stub
            packetpath.bind_generator = _stub
            packetpath.uninstall = _stub
            frozen_best = min(frozen_best, _time_once())
        finally:
            for attr, func in frozen.items():
                setattr(packetpath, attr, func)
        pure_best = min(pure_best, _time_once())
    return {
        "variant": "unmodified",
        "rate_pps": _RATE_PPS,
        "repeats": repeats,
        "pure_s": round(pure_best, 4),
        "frozen_s": round(frozen_best, 4),
        "speedup": round(frozen_best / pure_best, 3),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (seconds, not minutes)"
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_e2e.json"),
        help="output JSON path",
    )
    parser.add_argument(
        "--check-speedup",
        type=float,
        metavar="FLOOR",
        help="fail if the gated end-to-end geomean (fast vs pure) is "
        "below FLOOR (CI smoke floor: 2.0; the full-run target is 3.0)",
    )
    parser.add_argument(
        "--check-pure",
        type=float,
        metavar="FLOOR",
        help="also compare pure vs the frozen pre-PR bodies and fail "
        "below FLOOR (CI uses 0.97)",
    )
    args = parser.parse_args(argv)

    # Without the extension backend="fast" runs pure and the packet path
    # never installs, so every cell would time pure against itself.
    if FASTCORE_KIND != "fast-c":
        raise SystemExit(
            "FATAL: the compiled fast-c core is required (build it with "
            "scripts/build_fastcore.py): %s" % (FASTCORE_ERROR,)
        )

    if args.smoke:
        cells = _SMOKE_CELLS
        timing = dict(duration_s=0.08, warmup_s=0.03, seed=0)
        repeats = 2
    else:
        cells = _CELLS
        timing = dict(duration_s=0.4, warmup_s=0.1, seed=0)
        repeats = 4

    print(
        "e2e benchmark (%s mode, backend flavour %s, %d cells)"
        % ("smoke" if args.smoke else "full", FASTCORE_KIND, len(cells))
    )
    report = {
        "benchmark": "e2e",
        "mode": "smoke" if args.smoke else "full",
        "fastcore_kind": FASTCORE_KIND,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "trials": bench_cells(cells, timing, repeats),
    }
    if args.check_pure is not None:
        report["pure_vs_frozen"] = bench_pure_residue(timing, repeats)

    trials = report["trials"]
    for row in trials["cells"]:
        print(
            "  %-14s %-9s pure %.3fs  fast %.3fs  %.2fx  [%s]"
            % (
                row["variant"],
                row["workload"],
                row["pure_s"],
                row["fast_s"],
                row["speedup"],
                row["checksum"],
            )
        )
    print(
        "trials: gated geomean %.2fx end-to-end (backend=fast vs "
        "backend=pure, %d cells, identity checked)"
        % (trials["gated_geomean_speedup"], len(trials["cells"]))
    )

    if args.check_speedup is not None:
        current = trials["gated_geomean_speedup"]
        print(
            "speedup gate: %.2fx vs floor %.2fx" % (current, args.check_speedup)
        )
        if current < args.check_speedup:
            raise SystemExit(
                "FATAL: e2e gated speedup %.2fx below floor %.2fx"
                % (current, args.check_speedup)
            )
    if args.check_pure is not None:
        current = report["pure_vs_frozen"]["speedup"]
        print("pure gate:    %.2fx vs floor %.2fx" % (current, args.check_pure))
        if current < args.check_pure:
            raise SystemExit(
                "FATAL: pure backend %.2fx below floor %.2fx vs the frozen "
                "pre-PR bodies" % (current, args.check_pure)
            )

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
