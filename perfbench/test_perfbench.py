"""Tests of the benchmark itself, at seconds-long smoke sizes.

    python3 -m pytest perfbench

They check that every metric is reported with its unit, that the counts
repeat exactly, that the output checks catch bad outputs, and that the
benchmark refuses to run without the library. They never check timings.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = ("solver.sweeps", "solver.sweeps_to_target", "solver.block_solves",
          "solver.reduced_bytes")


def bench(workload, trace, seed=5, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload, trace, seed=5):
    path = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}-smoke.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_present_with_units(workload):
    out = result_line(bench(workload, trace=0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics_present_and_counts_repeat(workload):
    first = result_line(bench(workload, trace=1))
    first_values = record(workload, 1)["values"]
    second = result_line(bench(workload, trace=1))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == run.PER_LAYER
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name]
    if WORKLOADS[workload].cli:
        assert set(run.CLI_LAYER) <= set(first_values)
        assert first_values["cli.trace_rows"] == record(workload, 1)["values"]["cli.trace_rows"]


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_checks_catch_bad_outputs():
    checks = worker.Checks()
    checks.non_increasing([3.0, 2.0, 2.0, 1.0])
    checks.mse_identity(0.5, 0.5 * (1 + 1e-12), "ok")
    assert checks.errors == []
    checks.non_increasing([3.0, 2.0, 2.5])
    checks.mse_identity(0.5, 0.5 * (1 + 1e-6), "bad")
    checks.reference(
        {"final_mse": 0.25, "chosen": [0, 1], "sha256": {"trace_csv": "a"}},
        {"final_mse": 0.25, "chosen": [1, 0], "sha256": {"trace_csv": "b"}},
    )
    assert len(checks.errors) == 4


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("cli_trace", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
