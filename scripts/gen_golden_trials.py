#!/usr/bin/env python
"""Regenerate the golden TrialResult fixtures used by the determinism tests.

``golden_trials.json`` pins ``run_trial`` output — every field,
including the ``drops`` and ``counters`` dicts — for a matrix of kernel
variants, workloads and rates at fixed seeds on one core.
``golden_trials_smp.json`` pins plain multi-core trials: every driver
at cores 2 and 4, both IRQ steering policies, with and without polling
isolation. The packet fast path (pooling, callback generators, NIC
batching) and the CPU engine must keep these bit-identical; any
intentional semantic change must regenerate them and explain why.

Usage::

    PYTHONPATH=src python scripts/gen_golden_trials.py
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import asdict
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import variants
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec
from repro.hw.machine import STEERING_AFFINITY, STEERING_RSS, MachineSpec

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "experiments"
OUTPUT = FIXTURES / "golden_trials.json"
SMP_OUTPUT = FIXTURES / "golden_trials_smp.json"

#: The trial matrix: every kernel variant x every workload, at a light
#: rate and an overload (livelock-regime) rate, two seeds.
VARIANTS = {
    "unmodified": variants.unmodified,
    "polling": variants.polling,
    "high_ipl": variants.high_ipl,
    "clocked": variants.clocked,
}
WORKLOADS = ("constant", "poisson", "bursty")
RATES = (3_000, 12_000)
SEEDS = (0, 7)
TIMING = dict(duration_s=0.08, warmup_s=0.03)


#: TrialResult fields the fixtures leave out: diagnostics that are
#: None on a plain trial, and ``backend``, which is attribution only
#: (the backends are bit-identical by contract).
DIAGNOSTICS = ("backend", "watchdog", "faults", "timeline", "slo")


def comparable(result):
    data = asdict(result)
    for field in DIAGNOSTICS:
        data.pop(field)
    return data


def trial_key(variant, workload, rate, seed):
    return "%s|%s|%d|%d" % (variant, workload, rate, seed)


def generate():
    golden = {}
    for variant_name, factory in VARIANTS.items():
        for workload in WORKLOADS:
            for rate in RATES:
                for seed in SEEDS:
                    result = run_trial(TrialSpec.from_kwargs(
                        factory(),
                        rate,
                        seed=seed,
                        workload=workload,
                        **TIMING,
                    ))
                    golden[trial_key(variant_name, workload, rate, seed)] = (
                        comparable(result)
                    )
    return golden


#: The multi-core matrix: every driver x cores x steering x isolation,
#: at a light and an overload rate, one seed.
SMP_DRIVERS = dict(VARIANTS, hybrid=variants.hybrid)
SMP_CORES = (2, 4)
SMP_STEERING = (STEERING_AFFINITY, STEERING_RSS)
SMP_ISOLATE = (False, True)
SMP_SEED = 3
SMP_TIMING = dict(duration_s=0.03, warmup_s=0.01)


def smp_key(driver, cores, steering, isolate, rate):
    return "%s|%d|%s|%d|%d" % (driver, cores, steering, isolate, rate)


def generate_smp():
    golden = {}
    for cell in itertools.product(
        SMP_DRIVERS, SMP_CORES, SMP_STEERING, SMP_ISOLATE, RATES
    ):
        driver, cores, steering, isolate, rate = cell
        result = run_trial(TrialSpec.from_kwargs(
            SMP_DRIVERS[driver](),
            rate,
            seed=SMP_SEED,
            machine=MachineSpec(cores=cores, steering=steering,
                                isolate_polling=isolate),
            **SMP_TIMING
        ))
        golden[smp_key(*cell)] = comparable(result)
    return golden


def _write(path, golden):
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print("wrote %d golden trials to %s" % (len(golden), path))


def main():
    _write(OUTPUT, generate())
    _write(SMP_OUTPUT, generate_smp())
    return 0


if __name__ == "__main__":
    sys.exit(main())
