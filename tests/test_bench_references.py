"""Each benchmark workload, run once at the reference seed, reproduces the
recorded final MSE, chosen blocks and output sha256 digests.

Only the worker's result checks are asserted, never its timings, so the
test cannot be made flaky by a slow or busy machine. Each workload also runs
traced, as the benchmark's per-layer runs do: the worker then wraps every
library function the benchmark times, found by its module and name.
"""

import json
import pathlib
import subprocess
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
WORKLOADS = ["many_sensors", "cli_trace", "sample_heavy"]


@pytest.mark.parametrize(
    "workload, traced",
    [pytest.param(w, False, id=w) for w in WORKLOADS]
    + [pytest.param(w, True, id=f"{w}-traced") for w in WORKLOADS],
)
def test_reference_seed_matches(workload, traced, tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(PERFBENCH / "worker.py"),
            "--workload",
            workload,
            "--seed",
            "1",
            "--workdir",
            str(tmp_path),
            *(["--traced"] if traced else []),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["errors"] == []
    assert report["ok"]
