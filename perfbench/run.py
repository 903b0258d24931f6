"""The klt-mbi benchmark.

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Runs one workload again and again, one run per fresh process
(``worker.py``), one process at a time, for about S seconds. It checks each
run's outputs and prints the medians of the metrics by name and unit. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Without ``--workload`` it does
this for every workload, one after another.

With ``--trace 0`` the runs are untraced and give the end-to-end metrics.
With ``--trace 1`` untraced and traced runs alternate. For the CLI
workloads, traced runs that write only the trace CSV, only the network JSON,
or neither are added too. Together they give the per-layer metrics and the
cost of the tracing itself.

The exit status is 0 when every run passed its checks and 1 otherwise. It is
2, with nothing printed on stdout, when the library is not in the checkout.
A full record of each invocation, with the environment, goes to
``perfbench/results/``.
``--write-references`` re-records ``references.json`` from the current code.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, WORKLOADS, smoke  # noqa: E402

RUN_TIMEOUT_S = 170
THREAD_VARS = ("KLT_MBI_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "time_to_target_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "scenarios.generate_s": "s",
    "covariance.estimate_moments_s": "s",
    "solver.reduce_problem_s": "s",
    "solver.init_bank_s": "s",
    "solver.mbi_solve_s": "s",
    "solver.sweep_ms": "ms",
    "solver.sweeps": "count",
    "solver.sweeps_to_target": "count",
    "solver.block_solves": "count",
    "solver.commit_ratio": "ratio",
    "solver.reduced_bytes": "bytes",
    "wsn.analytic_mse_s": "s",
    "wsn.empirical_mse_s": "s",
    "wsn.factorize_wsn_s": "s",
    "wsn.save_wsn_json_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}
# Reported by traced runs of the CLI workloads only; the library workload
# has no CLI layer, so these are kept out of the result line.
CLI_LAYER = {
    "cli.run_s": "s",
    "cli.trace_csv_s": "s",
    "cli.wsn_json_s": "s",
    "cli.trace_rows": "count",
}


def blas_info() -> dict:
    """BLAS vendor from NumPy's build record; runtime thread count and
    configuration from the loaded OpenBLAS, when that is the BLAS."""
    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["vendor"] = "unknown"
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get is not None:
                get.restype = ctypes.c_int
                info["threads"] = get()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                return info
    info["threads"] = None
    return info


def environment() -> dict:
    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "kltmbi")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_worker(workload, seed, workdir, *, traced=False, outputs="both",
               smoke_size=False, record=False) -> dict:
    """One run in a fresh process. A crash, timeout or failed check comes
    back as ``ok: False`` with the reason in ``errors``."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--workdir", workdir,
           "--outputs", outputs]
    cmd += ["--traced"] * traced + ["--smoke"] * smoke_size + ["--record"] * record
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"run timed out after {RUN_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False,
                "errors": [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    return json.loads(lines[-1])


def median(values):
    return statistics.median(list(values))


def quartiles(values):
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(runs) -> dict:
    ok = [r for r in runs if r["ok"]]  # a failed run is never a fast time
    return {name: median(r[name] for r in ok) for name in END_TO_END}


def layer_metrics(traced, plain, variants, p) -> dict:
    """Per-layer medians over the traced full runs. ``variants`` maps each
    output setting of the CLI to its traced runs."""
    ok = [r for r in traced if r["ok"]]
    out = {}
    for name in PER_LAYER:
        if name.endswith("_s") and name[:-2] in ok[0]["spans"]:
            out[name] = median(r["spans"][name[:-2]] for r in ok)
    counts = ok[0]["counts"]
    for name in ("solver.sweeps", "solver.sweeps_to_target", "solver.block_solves",
                 "solver.reduced_bytes"):
        out[name] = counts[name]
    out["solver.commit_ratio"] = counts["solver.committed"] / (p * counts["solver.sweeps"])
    out["solver.sweep_ms"] = median(
        1000 * r["spans"]["solver.mbi_solve"] / r["counts"]["solver.sweeps"] for r in ok
    )
    out["unattributed_s"] = median(r["run_s"] - sum(r["spans"].values()) for r in ok)
    out["trace_overhead_s"] = median(r["run_s"] for r in ok) - median(
        r["run_s"] for r in plain if r["ok"]
    )
    if variants:
        none = median(r["run_s"] for r in variants["none"] if r["ok"])
        out["cli.run_s"] = median(r["run_s"] for r in ok)
        out["cli.trace_csv_s"] = median(r["run_s"] for r in variants["trace"] if r["ok"]) - none
        out["cli.wsn_json_s"] = median(r["run_s"] for r in variants["json"] if r["ok"]) - none
        out["cli.trace_rows"] = counts["cli.trace_rows"]
    return out


def repeat_for(seconds, rounds):
    """Call ``rounds()`` until the next call would overrun ``seconds``;
    always at least once."""
    start = time.perf_counter()
    done = 0
    while True:
        rounds()
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def measure(workload, seed, seconds, trace, smoke_size, scratch) -> tuple[dict, list]:
    w = WORKLOADS[workload]
    plain, traced = [], []
    variants = {"trace": [], "json": [], "none": []} if (trace and w.cli) else {}
    counter = itertools.count()

    def run(**kwargs):
        workdir = os.path.join(scratch, f"run{next(counter)}")
        return run_worker(workload, seed, workdir, smoke_size=smoke_size, **kwargs)

    def one_round():
        if not trace:
            plain.append(run())
            return
        # alternate which of the untraced and traced runs goes first
        pair = [(plain, {}), (traced, {"traced": True})]
        for runs, kwargs in pair[:: 1 if len(plain) % 2 == 0 else -1]:
            runs.append(run(**kwargs))
        for outputs, runs in variants.items():
            runs.append(run(traced=True, outputs=outputs))

    repeat_for(seconds, one_round)
    runs = plain + traced + [r for v in variants.values() for r in v]
    if any(not r["ok"] for r in runs):
        return {}, runs
    p = (smoke(w) if smoke_size else w).p
    values = layer_metrics(traced, plain, variants, p) if trace else end_to_end(plain)
    return values, runs


def write_references() -> int:
    """Record the default-seed outputs of every workload from the current
    code into references.json."""
    refs = {}
    scratch = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        for name in WORKLOADS:
            r = run_worker(name, DEFAULT_SEED, os.path.join(scratch, name), record=True)
            if not r["ok"]:
                print(f"{name}: {r['errors']}", file=sys.stderr)
                return 1
            res = r["result"]
            refs[name] = {"seed": DEFAULT_SEED, "final_mse": res["final_mse"],
                          "chosen": res["chosen"], "sha256": res["sha256"]}
            if res.get("mse_at_budget") is not None:
                refs[name]["target_mse"] = res["mse_at_budget"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


def benchmark(workload, args, env) -> bool:
    """Measure one workload, print its metrics and result line, and write
    its record. True when every run passed its checks."""
    scratch = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        values, runs = measure(workload, args.seed, args.seconds, args.trace,
                               args.smoke, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(not r["ok"] for r in runs)
    units = PER_LAYER if args.trace else END_TO_END
    for r in runs:
        for err in r.get("errors", []):
            print(f"FAILED: {err}")
    for name, value in values.items():
        unit = units.get(name) or CLI_LAYER[name]
        line = f"{workload} {name} = {value:.6g} {unit}"
        if name in END_TO_END:
            q1, q3 = quartiles(r[name] for r in runs)
            line += f" (median of {len(runs)}; quartiles {q1:.6g}, {q3:.6g})"
        print(line)
    print(f"{workload} error_rate = {failed}/{len(runs)} = {failed / len(runs):.3g}")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": env,
              "error_rate": failed / len(runs), "values": values, "runs": runs}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}{'-smoke' * args.smoke}"
    with open(os.path.join(HERE, "results", name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return failed == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="klt-mbi benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload; all of them, one after another, if omitted")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long sizes, no reference checks (for tests)")
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kltmbi", "__init__.py")):
        print(f"error: the library is missing: no {ROOT}/src/kltmbi", file=sys.stderr)
        return 2
    if args.write_references:
        return write_references()

    # On SIGTERM, unwind so that subprocess.run kills the running worker and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment()
    inherited = {k: v for k, v in env["thread_env"].items() if v is not None}
    if inherited:
        print(f"warning: inherited thread settings apply to every run: {inherited}",
              file=sys.stderr)
    print(f"env {json.dumps(env)}")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    passed = [benchmark(workload, args, env) for workload in workloads]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
