"""Warm-worker dispatch: pool persistence, cost-balanced chunking, and
the serial == parallel == cached identity under the new transport.

The engine's performance story rests on three mechanisms — a pool that
outlives sweeps, chunks sized by trial cost estimate, and wire-packed
results — none of which may change a single result bit. These tests pin
the mechanisms directly (pool object identity, chunk shapes) and the
contract end-to-end (dict-identical results across every execution
path).
"""

import pytest

from repro.core import variants
from repro.experiments import engine
from repro.experiments.engine import (
    CHUNKS_PER_WORKER,
    _build_chunks,
    run_trials,
    shutdown_warm_pool,
    warm_pool,
)
from repro.experiments.results import trial_to_dict
from repro.experiments.spec import TrialSpec

TIMING = dict(duration_s=0.02, warmup_s=0.01)


def _specs(n=6):
    configs = [variants.unmodified(), variants.polling()]
    return [
        TrialSpec(configs[i % 2], 1_000 + 500 * i, **TIMING)
        for i in range(n)
    ]


@pytest.fixture
def fresh_pool():
    """Each test starts and ends with no warm pool."""
    shutdown_warm_pool()
    yield
    shutdown_warm_pool()


# ----------------------------------------------------------------------
# Pool persistence
# ----------------------------------------------------------------------


def test_warm_pool_is_reused_across_calls(fresh_pool):
    pool = warm_pool(2)
    assert warm_pool(2) is pool  # the point: no per-sweep pool boot


def test_warm_pool_resizes_by_teardown(fresh_pool):
    pool = warm_pool(1)
    resized = warm_pool(2)
    assert resized is not pool
    assert engine._WARM_WORKERS == 2


def test_shutdown_forgets_the_pool(fresh_pool):
    pool = warm_pool(1)
    shutdown_warm_pool()
    assert engine._WARM_POOL is None
    assert warm_pool(1) is not pool


def test_run_trials_leaves_the_pool_warm(fresh_pool):
    """A clean parallel sweep must not tear its pool down: the next
    sweep's speedup depends on reusing the booted workers."""
    specs = _specs(4)
    run_trials(specs, jobs=2)
    pool = engine._WARM_POOL
    assert pool is not None
    run_trials(specs, jobs=2)
    assert engine._WARM_POOL is pool


# ----------------------------------------------------------------------
# Chunking
# ----------------------------------------------------------------------


def test_chunks_are_contiguous_and_complete():
    indexed = list(enumerate(_specs(10)))
    chunks = _build_chunks(indexed, workers=2, timeout_s=None)
    flattened = [pair for chunk in chunks for pair in chunk]
    assert flattened == indexed  # order-preserving, nothing lost
    assert all(chunk for chunk in chunks)
    assert len(chunks) <= 2 * CHUNKS_PER_WORKER


def test_chunks_amortize_submission():
    """Many cheap specs collapse into ~workers*CHUNKS_PER_WORKER chunks
    instead of one future per spec."""
    indexed = list(enumerate(_specs(40)))
    chunks = _build_chunks(indexed, workers=4, timeout_s=None)
    # Greedy cost accumulation may merge trailing chunks, so the target
    # is a ceiling — the point is amortization, not one future per spec.
    assert 1 < len(chunks) <= 4 * CHUNKS_PER_WORKER


def test_per_trial_timeout_forces_singleton_chunks():
    """With a wall-clock limit every chunk is one spec, so a timeout is
    charged to exactly the trial that hung."""
    indexed = list(enumerate(_specs(8)))
    chunks = _build_chunks(indexed, workers=4, timeout_s=5.0)
    assert [len(chunk) for chunk in chunks] == [1] * 8


def test_chunks_balance_by_cost_estimate():
    """A spec list with one 10x-longer trial must not drag its whole
    chunk-mates behind it: the expensive spec dominates its own chunk."""
    cheap = dict(duration_s=0.02, warmup_s=0.01)
    dear = dict(duration_s=0.2, warmup_s=0.01)
    config = variants.unmodified()
    specs = [TrialSpec(config, 2_000, **dear)] + [
        TrialSpec(config, 2_000, **cheap) for _ in range(7)
    ]
    chunks = _build_chunks(list(enumerate(specs)), workers=2, timeout_s=None)
    assert len(chunks[0]) == 1  # the expensive spec rides alone


# ----------------------------------------------------------------------
# The identity: serial == parallel == cached
# ----------------------------------------------------------------------


def test_serial_parallel_and_cached_results_are_identical(fresh_pool):
    specs = _specs(4)
    serial = run_trials(specs)
    parallel = run_trials(specs, jobs=2)
    cached_fill = run_trials(specs, cache=True)
    cached_hit = run_trials(specs, cache=True)
    for a, b, c, d in zip(serial, parallel, cached_fill, cached_hit):
        expected = trial_to_dict(a)
        assert trial_to_dict(b) == expected
        assert trial_to_dict(c) == expected
        assert trial_to_dict(d) == expected
