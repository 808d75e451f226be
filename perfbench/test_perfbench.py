"""Tests of the benchmark itself, at the smallest run length.

    python3 -m pytest perfbench -q

Every workload runs with two seeds, one untraced and one traced, so
both metric sets are checked on every workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd, "perfbench", "run.py")), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done):
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("seed,trace", [(1, 0), (2, 1)])
def test_every_metric_reported_and_every_trial_correct(workload, seed, trace):
    done = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "0.1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_shows_where_the_compiled_path_runs():
    shares = {}
    for workload in ("uni-fast", "smp4-fast"):
        done = bench("--workload", workload, "--seed", "3",
                     "--seconds", "0.1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        metrics = result_of(done)["metrics"]
        shares[workload] = metrics["fastcore.compiled_share"]["value"]
    assert shares["uni-fast"] > 0.9
    assert shares["smp4-fast"] < 0.1


def test_wrong_reference_checksum_counts_as_failure():
    done = bench("--workload", "uni-fast", "--seed", "1", "--seconds", "0.1",
                 "--trace", "0", "--expect", "0" * 16)
    assert done.returncode == 1
    result = result_of(done)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "uni-fast", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


#: Runs the argv it is given as a child subreaper (Linux), then prints
#: how many processes it started are still alive or unreaped.
REAPER = r"""
import ctypes, os, subprocess, sys
if ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
    sys.exit(3)
subprocess.run(sys.argv[1:], check=True, capture_output=True, timeout=600)
left = 0
while True:
    try:
        pid, _ = os.waitpid(-1, 0)
    except ChildProcessError:
        break
    left += 1
print(left)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs PR_SET_CHILD_SUBREAPER")
def test_fig_sweep_leaves_no_process_behind():
    done = subprocess.run(
        [sys.executable, "-c", REAPER, sys.executable,
         str(HERE / "run.py"), "--workload", "fig-sweep", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=660)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
