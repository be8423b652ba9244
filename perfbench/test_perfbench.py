"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seconds", "1", "--trace", str(trace),
                     "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["chain", "witness", "cli"])
def test_span_self_times_are_nonnegative_and_fit_in_the_pass(workload):
    result = workloads.run_pass(workload, 0, traced=True, smoke=True)
    assert not result["failures"]
    assert result["spans"]
    assert min(result["self_s"]) >= 0
    assert sum(result["self_s"]) <= result["wall_s"]
    layers = result["layers"]
    assert layers.get("algebras.mul.calls", 0) > 0


def test_traced_and_untraced_outputs_agree():
    plain = workloads.run_pass("cli", 0, smoke=True)
    traced = workloads.run_pass("cli", 0, traced=True, smoke=True)
    assert plain["outputs"] == traced["outputs"]
    assert not plain["failures"] and not traced["failures"]


def _goldens(workload):
    return workloads.load_goldens(workloads.GOLDENS, workload, 0)


def test_corrupted_output_golden_is_a_failed_operation():
    goldens = json.loads(json.dumps(_goldens("chain")))
    goldens["outputs"]["M2"] = "0" * 20
    result = workloads.run_pass("chain", 0, smoke=True, goldens=goldens)
    assert result["failures"] == [["M2", "output differs from golden"]]


def test_corrupted_input_golden_is_a_failed_operation():
    goldens = json.loads(json.dumps(_goldens("batch")))
    goldens["inputs"]["alg3"] = "0" * 20
    result = workloads.run_pass("batch", 0, smoke=True, goldens=goldens)
    assert result["failures"] == [["alg3", "input alg3 differs from golden"]]


def test_goldens_cover_the_default_seed_and_every_workload():
    data = json.loads(workloads.GOLDENS.read_text())
    assert data["seed"] == run.DEFAULT_SEED
    assert set(data["workloads"]) == set(run.WORKLOADS)
    assert len(data["workloads"]["batch"]["outputs"]) == workloads.BATCH_SIZE
    assert _goldens("batch") and not workloads.load_goldens(workloads.GOLDENS, "batch", 5)
    assert workloads.load_goldens(workloads.GOLDENS, "chain", 5)


def test_inputs_depend_on_the_seed_only():
    digests = [[workloads.algebra_digest(M) for M in workloads.batch_inputs(s)]
               for s in (3, 3, 4)]
    assert digests[0] == digests[1] != digests[2]
    assert max(M.n_states for M in workloads.batch_inputs(3)) <= 12


def test_clock_leaves_out_its_reference_timings():
    clock = workloads.Clock(0.01)
    t0 = time.perf_counter()
    assert clock.run(lambda: workloads._queens(9)) == 352
    elapsed = time.perf_counter() - t0
    assert 0 < clock.wall < elapsed
    assert clock.wall_units > 0 and clock.cpu_units > 0


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert run.tail(list(range(1, 101))) == (90, 90.0)
    assert run.tail([3, 1, 4, 2]) == (3, 75.0)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "chain", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
