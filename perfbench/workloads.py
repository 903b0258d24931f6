"""Workload table of the klt-mbi benchmark.

Each workload is one scenario with a fixed size and MBI sweep budget. The
scenario seed comes from the command line; everything else is fixed here.
This module imports nothing from the library, so the orchestrator can read
it before it knows whether the library is present.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

DEFAULT_SEED = 1  # the seed whose outputs are pinned in references.json
SIGMA = 0.3  # noise scale of every sensor
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # scenario kind, as in ScenarioSpec.kind
    m: int  # source dimension; also n_j, which both scenario kinds require
    p: int  # sensors
    r_j: int  # compression rank of every sensor
    s: int  # training samples
    budget: int  # MBI sweeps
    cli: bool  # driven through ``kltmbi.cli.main`` rather than the library


WORKLOADS = {
    w.name: w
    for w in (
        # the solver and reduce_problem do most of the work; outputs almost none
        Workload(
            "many_sensors", "linear_mixing", m=32, p=16, r_j=8, s=2000,
            budget=80, cli=False,
        ),
        # the trace CSV's per-row analytic_mse dominates
        Workload(
            "cli_trace", "linear_mixing", m=32, p=8, r_j=8, s=2000,
            budget=100, cli=True,
        ),
        # bound by s: generate, estimate_moments and per-row empirical_mse
        Workload(
            "sample_heavy", "additive_noise", m=32, p=4, r_j=8, s=100_000,
            budget=40, cli=True,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """A seconds-long version of a workload for the benchmark's own tests."""
    return replace(w, m=6, p=3, r_j=2, s=300, budget=6)


def references() -> dict:
    """Outputs of every workload at DEFAULT_SEED, recorded from the seed code
    by ``run.py --write-references``."""
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)
