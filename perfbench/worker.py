"""One run of one benchmark workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--traced] [--outputs both|trace|json|none] [--smoke] [--record]

The run is timed from outside the library: the library workload calls the
public functions of the README quick start, the CLI workloads call
``kltmbi.cli.main``. Untraced runs wrap only ``init_bank`` and ``mbi_solve``
at the CLI's call sites, to read when set-up ends and when the solution
exists; traced runs wrap every public call into ``scenarios``,
``covariance``, ``solver`` and ``wsn`` and report the time spent in each.
The run's outputs are then checked. The last line of stdout is one JSON
object with the timings, counts, peak RSS and any failed checks.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import DEFAULT_SEED, SIGMA, WORKLOADS, Workload, references, smoke  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REL_TOL = 1e-9

# Public functions the benchmark times, by layer (module) name. The CLI
# imports each of them under the same name.
LAYER_CALLS = (
    "scenarios.generate",
    "covariance.estimate_moments",
    "solver.reduce_problem",
    "solver.init_bank",
    "solver.mbi_solve",
    "wsn.analytic_mse",
    "wsn.empirical_mse",
    "wsn.factorize_wsn",
    "wsn.save_wsn_json",
)
UNTRACED_CALLS = ("solver.init_bank", "solver.mbi_solve")


def import_library():
    """Import ``kltmbi`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import kltmbi

    if not os.path.abspath(kltmbi.__file__).startswith(src + os.sep):
        raise ImportError(f"kltmbi was imported from {kltmbi.__file__}, not {src}")
    return kltmbi


class Probe:
    """Wraps library functions; each call appends (name, start, end) to
    ``spans`` and keeps its latest return value in ``last``."""

    def __init__(self, names):
        self.names = tuple(names)
        self.spans: list[tuple[str, float, float]] = []
        self.last: dict = {}

    def wrap(self, name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.spans.append((name, start, time.perf_counter()))
            self.last[name] = out
            return out

        return call

    def functions(self) -> dict:
        """Name -> callable: wrapped for probed names, the plain function
        otherwise."""
        out = {}
        for name in LAYER_CALLS:
            module, attr = name.split(".")
            fn = getattr(importlib.import_module(f"kltmbi.{module}"), attr)
            out[name] = self.wrap(name, fn) if name in self.names else fn
        return out

    @contextlib.contextmanager
    def patched(self, module):
        """Replace the probed names where ``module`` imported them."""
        saved = {}
        for name in self.names:
            attr = name.split(".")[1]
            if hasattr(module, attr):
                saved[attr] = getattr(module, attr)
                setattr(module, attr, self.wrap(name, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def totals(self) -> dict:
        out = dict.fromkeys(self.names, 0.0)
        for name, start, end in self.spans:
            out[name] += end - start
        return out

    def last_end(self, name) -> float:
        return max(end for n, _, end in self.spans if n == name)


def array_bytes(obj) -> int:
    """Sum of ``nbytes`` over the arrays held by a dataclass or sequence."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(o) for o in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    def __init__(self):
        self.errors: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def non_increasing(self, values) -> None:
        bad = [i for i in range(1, len(values)) if values[i] > values[i - 1]]
        self.expect(not bad, f"objective increased at iterations {bad[:5]}")

    def mse_identity(self, analytic: float, empirical: float, where: str) -> None:
        d = rel_diff(analytic, empirical)
        self.expect(
            d <= REL_TOL,
            f"{where}: analytic {analytic!r} and empirical {empirical!r} MSE "
            f"differ by {d:.3g} relative",
        )

    def factorization(self, wsn, bank) -> None:
        import numpy as np

        for j, f_j in enumerate(bank.blocks):
            prod = wsn.decoder_blocks[j] @ wsn.encoders[j]
            err = np.linalg.norm(prod - f_j)
            self.expect(
                err <= REL_TOL * max(np.linalg.norm(f_j), 1.0),
                f"factorize_wsn does not reproduce F_{j} (error {err:.3g})",
            )

    def reference(self, result: dict, ref: dict) -> None:
        """Compare a default-seed run with the stored reference outputs."""
        d = rel_diff(result["final_mse"], ref["final_mse"])
        self.expect(
            d <= REL_TOL,
            f"final MSE {result['final_mse']!r} differs from reference "
            f"{ref['final_mse']!r} by {d:.3g} relative",
        )
        self.expect(
            result["chosen"] == ref["chosen"],
            "chosen-block sequence differs from the reference",
        )
        for label, digest in result.get("sha256", {}).items():
            self.expect(
                digest == ref["sha256"][label],
                f"{label} sha256 {digest[:12]} differs from reference "
                f"{ref['sha256'][label][:12]}",
            )


def partition_and_spec(kltmbi, w: Workload, seed: int):
    part = kltmbi.SensorPartition(m=w.m, n=(w.m,) * w.p, r=(w.r_j,) * w.p)
    spec = kltmbi.ScenarioSpec(
        kind=w.kind, partition=part, s=w.s, sigmas=(SIGMA,) * w.p, seed=seed
    )
    return part, spec


def run_library(kltmbi, w, seed, probe, workdir, target, checks):
    """The README quick-start pipeline, solved one MBI sweep per
    ``mbi_solve`` call so the time at which the analytic MSE first reaches
    ``target`` can be read. A warm-started one-sweep call redoes exactly
    what the next sweep of one long call would do."""
    fn = probe.functions()
    part, spec = partition_and_spec(kltmbi, w, seed)
    one_sweep = kltmbi.MbiConfig(epsilon=0.0, max_iterations=1, record_trace=False)

    t0 = time.perf_counter()
    ens = fn["scenarios.generate"](spec)
    model = fn["covariance.estimate_moments"](ens, part)
    rp = fn["solver.reduce_problem"](model)
    bank = fn["solver.init_bank"](model)
    t_setup = time.perf_counter()
    baseline_mse = fn["wsn.analytic_mse"](model, bank)

    objectives: list[float] = []
    chosen: list[int] = []
    solve_s = [0.0]  # cumulative solve time after each sweep
    offset = 0.0  # analytic MSE minus objective; constant over a solve
    sweeps = committed = 0
    reached = None
    while sweeps < 2 * w.budget:
        start = time.perf_counter()
        bank, trace = fn["solver.mbi_solve"](rp, bank, one_sweep)
        solve_s.append(solve_s[-1] + time.perf_counter() - start)
        if not objectives:
            objectives.append(trace.objective_per_iteration[0])
            offset = baseline_mse - objectives[0]
        else:
            checks.expect(
                trace.objective_per_iteration[0] <= objectives[-1],
                f"warm-started sweep {sweeps + 1} starts above the last objective",
            )
        sweeps += 1
        if trace.iterations_used == 0:  # exact fixed point: nothing to improve
            break
        committed += trace.iterations_used
        objectives.append(trace.objective_per_iteration[-1])
        chosen.extend(trace.chosen_block_per_iteration)
        if reached is None and target is not None and (
            objectives[-1] + offset <= target * (1 + REL_TOL)
        ):
            reached = sweeps
        if sweeps >= w.budget and (target is None or reached is not None):
            break

    final_mse = fn["wsn.analytic_mse"](model, bank)
    emp = fn["wsn.empirical_mse"](ens, bank)
    wsn = fn["wsn.factorize_wsn"](bank)
    json_path = os.path.join(workdir, "network.json")
    fn["wsn.save_wsn_json"](wsn, json_path, {"scenario_kind": w.kind, "seed": seed})
    t_end = time.perf_counter()
    rss = peak_rss_mb()

    mse_at_budget = objectives[w.budget] + offset if len(objectives) > w.budget else None
    if target is None:  # no stored target: the run's own MSE at the budget
        target = mse_at_budget if mse_at_budget is not None else objectives[-1] + offset
        reached = next(
            k for k, f in enumerate(objectives) if f + offset <= target * (1 + REL_TOL)
        )
    checks.expect(
        reached is not None,
        f"analytic MSE {objectives[-1] + offset!r} did not reach the target "
        f"{target!r} within {2 * w.budget} sweeps",
    )
    checks.non_increasing(objectives)
    checks.mse_identity(final_mse, emp, "final bank")
    d = rel_diff(final_mse, objectives[-1] + offset)
    checks.expect(
        d <= REL_TOL,
        f"analytic MSE is not objective + constant ({d:.3g} relative)",
    )
    checks.factorization(wsn, bank)
    checks.factorization(kltmbi.load_wsn_json(json_path), bank)

    return {
        "run_s": t_end - t0,
        "setup_s": t_setup - t0,
        "time_to_target_s": t_setup - t0 + solve_s[reached or 0],
        "peak_rss_mb": rss,
        "counts": {
            "solver.sweeps": sweeps,
            "solver.sweeps_to_target": reached,
            "solver.committed": committed,
            "solver.reduced_bytes": array_bytes(rp),
        },
        "result": {
            "final_mse": final_mse,
            "chosen": chosen,
            "mse_at_budget": mse_at_budget,
            "sha256": {"wsn_json": sha256(json_path)},
        },
    }


TRACE_HEADER = "iteration,objective,chosen_block,analytic_mse,empirical_mse"


def run_cli(kltmbi, w, seed, probe, workdir, outputs, checks):
    """``klt-mbi run`` on a config file holding the workload."""
    import kltmbi.cli as cli

    part, _ = partition_and_spec(kltmbi, w, seed)
    paths = {
        "trace_csv": os.path.join(workdir, "trace.csv"),
        "wsn_json": os.path.join(workdir, "network.json"),
    }
    wanted = {"both": paths, "trace": {"trace_csv": paths["trace_csv"]},
              "json": {"wsn_json": paths["wsn_json"]}, "none": {}}[outputs]
    config = {
        "scenario": {
            "kind": w.kind, "m": w.m, "n": list(part.n), "r": list(part.r),
            "s": w.s, "sigmas": [SIGMA] * w.p, "seed": seed,
        },
        "mbi": {"epsilon": 0, "max_iterations": w.budget},
        "outputs": wanted,
    }
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)

    stdout = io.StringIO()
    with probe.patched(cli), contextlib.redirect_stdout(stdout):
        t0 = time.perf_counter()
        code = cli.main(["run", "--config", config_path])
        t_end = time.perf_counter()
    rss = peak_rss_mb()

    checks.expect(code == 0, f"klt-mbi run exited with {code}")
    fields = dict(kv.split("=", 1) for kv in stdout.getvalue().split())
    final_mse = float(fields["final_mse"])
    bank, trace = probe.last["solver.mbi_solve"]
    sweeps = trace.iterations_used + (1 if trace.converged else 0)
    result = {"final_mse": final_mse, "chosen": trace.chosen_block_per_iteration}
    counts = {
        "solver.sweeps": sweeps,
        "solver.sweeps_to_target": sweeps,
        "solver.committed": trace.iterations_used,
    }
    if "solver.reduce_problem" in probe.last:
        counts["solver.reduced_bytes"] = array_bytes(probe.last["solver.reduce_problem"])

    checks.non_increasing(trace.objective_per_iteration)
    if "trace_csv" in wanted:
        with open(paths["trace_csv"]) as fh:
            lines = fh.read().splitlines()
        checks.expect(lines[0] == TRACE_HEADER, f"trace CSV header is {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        counts["cli.trace_rows"] = len(rows)
        checks.expect(
            len(rows) == trace.iterations_used + 1,
            f"trace CSV has {len(rows)} rows for {trace.iterations_used} iterations",
        )
        checks.non_increasing([float(r[1]) for r in rows])
        checks.expect(
            [int(r[2]) for r in rows[1:]] == result["chosen"],
            "trace CSV chosen blocks differ from the solver's",
        )
        bad = [r[0] for r in rows if rel_diff(float(r[3]), float(r[4])) > REL_TOL]
        checks.expect(
            not bad, f"analytic and empirical MSE differ in trace rows {bad[:5]}"
        )
        checks.expect(
            rel_diff(float(rows[-1][3]), final_mse) <= REL_TOL,
            "last trace row and final_mse disagree",
        )
    if "wsn_json" in wanted:
        checks.factorization(kltmbi.load_wsn_json(paths["wsn_json"]), bank)
    if outputs == "both":
        result["sha256"] = {label: sha256(path) for label, path in paths.items()}

    return {
        "run_s": t_end - t0,
        "setup_s": probe.last_end("solver.init_bank") - t0,
        # The CLI solves its whole budget; its result exists once mbi_solve returns.
        "time_to_target_s": probe.last_end("solver.mbi_solve") - t0,
        "peak_rss_mb": rss,
        "counts": counts,
        "result": result,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--outputs", default="both", choices=("both", "trace", "json", "none"))
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    ap.add_argument("--record", action="store_true",
                    help="skip the reference checks (used to write them)")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    use_refs = not (args.smoke or args.record)
    ref = references().get(w.name, {}) if use_refs else {}
    checks = Checks()
    report: dict = {"ok": False}
    try:
        kltmbi = import_library()
        probe = Probe(LAYER_CALLS if args.traced else UNTRACED_CALLS if w.cli else ())
        if w.cli:
            out = run_cli(kltmbi, w, args.seed, probe, args.workdir, args.outputs, checks)
        else:
            out = run_library(
                kltmbi, w, args.seed, probe, args.workdir, ref.get("target_mse"), checks
            )
        if use_refs and args.seed == DEFAULT_SEED and args.outputs == "both":
            checks.reference(out["result"], ref)
        counts = out["counts"]
        counts["solver.block_solves"] = w.p * counts["solver.sweeps"]
        report.update(out)
        if args.traced:
            report["spans"] = probe.totals()
    except Exception:  # the run failed; report it instead of dying
        checks.errors.append(traceback.format_exc())
    report["errors"] = checks.errors
    report["ok"] = not checks.errors
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
