"""Tests of the benchmark itself, on the smoke size of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
from harness import BENCH_DIR, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("trainer.steps", "trainer.evals", "trainer.step_samples",
                "mil.bags_per_step", "mil.usable_bag_frac", "nncore.param_count")


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """Two smoke runs of every workload, untraced and traced."""
    return {(w, t, k): smoke(w, t) for w in WORKLOADS for t in (0, 1) for k in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_its_unit(results, workload, trace):
    result = results[workload, trace, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_and_auuc_repeat(results, workload):
    for name in EXACT_COUNTS:
        first = results[workload, 1, 0]["metrics"][name]["value"]
        assert first == results[workload, 1, 1]["metrics"][name]["value"], name
    auucs = {results[workload, 0, k]["metrics"]["test_auuc"]["value"] for k in (0, 1)}
    assert len(auucs) == 1


def test_layers_separate(results):
    """The workloads stress different layers even at smoke size."""
    tarnet = results["train_tarnet", 1, 0]["metrics"]
    bag2 = results["train_sdr_bag2", 1, 0]["metrics"]
    assert bag2["mil.overhead_ratio"]["value"] >= 1.0
    assert tarnet["mil.overhead_ratio"]["value"] < bag2["mil.overhead_ratio"]["value"] / 10
    assert bag2["mil.bags_per_step"]["value"] == 512
    # Per probe batch the four costs add up to the step exactly.
    parts = ("models.forward_share", "models.backward_share",
             "nncore.adam_share", "mil.overhead_share")
    assert abs(sum(tarnet[name]["value"] for name in parts) - 1.0) < 0.15


def test_single_arm_eval_set_is_a_failed_operation(tmp_path):
    harness.import_package()
    from upliftmil import data
    from workloads import WORKLOADS as SPECS, Run

    run = Run(SPECS["eval_large"].smoke(), seed=3, workdir=tmp_path)
    model, ds = run.prepare()
    treated_only = data.Dataset(ds.features, np.ones(ds.n, dtype=np.int64), ds.outcome)
    assert run.ops.failed == 0
    assert run.operate((model, treated_only))[0] is None
    assert run.ops.failed == 1
    assert "MetricError" in run.ops.failures[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
