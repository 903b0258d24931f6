"""Command-line front end.

``klt-mbi run --config cfg.json`` executes one scenario end to end
(generation, moment estimation, reduction, MBI solve, factorization, error
evaluation) and writes a per-iteration trace CSV, the factorized WSN as JSON
and, for image scenarios, reconstruction and error-map PGMs.
``klt-mbi validate --config cfg.json`` checks a config without side effects.

Exit codes: 0 success, 2 bad config, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covariance import SensorPartition, estimate_moments
from .errors import InvalidInput, NotPsd, ParseError
from .scenarios import ScenarioSpec, generate, image_scenario, save_pgm
from .solver import MbiConfig, init_bank, mbi_solve, reduce_problem
from .wsn import analytic_mse, atomic_write, empirical_mse, factorize_wsn, save_wsn_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioSpec
    mbi: MbiConfig
    trace_csv_path: str | None
    wsn_json_path: str | None
    image_out_dir: str | None
    report_baseline: bool


def _float_field(value, name: str) -> float:
    # JSON has no infinity literal; accept the strings "inf"/"infinity"
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ParseError(f"{name} is not a number: {value!r}") from None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{name} must be a number, got {value!r}")
    return _as_float(value, name)


def _as_float(value: int | float, name: str) -> float:
    # a JSON integer literal can lie beyond the float range
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{name} is out of range: {value!r}") from None


def _int_field(value, name: str) -> int:
    # bool is an int subclass; a float, even 3.0, is not an integer field
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{name} must be an integer, got {value!r}")
    return value


def _int_list_field(value, name: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{name} must be a list of integers, got {value!r}")
    return tuple(_int_field(v, f"{name}[{i}]") for i, v in enumerate(value))


def _number_list_field(value, name: str) -> tuple[float, ...]:
    if not isinstance(value, list) or any(
        not isinstance(v, (int, float)) or isinstance(v, bool) for v in value
    ):
        raise ParseError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_as_float(v, f"{name}[{i}]") for i, v in enumerate(value))


def _str_field(value, name: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ParseError(f"{name} must be a string, got {value!r}")
    return value


def parse_config(
    doc: dict,
    *,
    seed: int | None = None,
    epsilon: float | None = None,
    max_iters: int | None = None,
) -> RunConfig:
    """Build a RunConfig from a parsed JSON document plus flag overrides."""
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")
    sc = doc.get("scenario")
    if not isinstance(sc, dict):
        raise ParseError("missing 'scenario' object")
    kind = _str_field(sc.get("kind"), "scenario.kind")
    try:
        if kind == "exact_example1":
            m = sc.get("m", 3)
            n = sc.get("n", [3, 3])
            r = sc.get("r", [1, 1])
        else:
            m, n, r = sc["m"], sc["n"], sc["r"]
        part = SensorPartition(
            m=_int_field(m, "scenario.m"),
            n=_int_list_field(n, "scenario.n"),
            r=_int_list_field(r, "scenario.r"),
        )
        spec = ScenarioSpec(
            kind=kind,
            partition=part,
            s=_int_field(sc.get("s", 1), "scenario.s"),
            sigmas=_number_list_field(sc.get("sigmas", []), "scenario.sigmas"),
            seed=_int_field(sc["seed"], "scenario.seed") if seed is None else seed,
            image_path=_str_field(sc.get("image_path"), "scenario.image_path"),
        )
    except KeyError as exc:
        raise ParseError(f"scenario is missing field {exc}") from None
    except InvalidInput as exc:
        raise ParseError(f"invalid scenario: {exc}") from None

    mbi_doc = doc.get("mbi", {})
    if not isinstance(mbi_doc, dict):
        raise ParseError("'mbi' must be an object")
    eps = (
        _float_field(mbi_doc.get("epsilon", 1e-8), "mbi.epsilon")
        if epsilon is None
        else epsilon
    )
    iters = (
        _int_field(mbi_doc.get("max_iterations", 100), "mbi.max_iterations")
        if max_iters is None
        else max_iters
    )
    try:
        mbi = MbiConfig(epsilon=eps, max_iterations=iters, record_trace=True)
    except InvalidInput as exc:
        raise ParseError(f"invalid mbi settings: {exc}") from None

    outputs = doc.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ParseError("'outputs' must be an object")
    report_baseline = doc.get("report_baseline", False)
    if not isinstance(report_baseline, bool):
        raise ParseError(
            f"report_baseline must be true or false, got {report_baseline!r}"
        )
    cfg = RunConfig(
        scenario=spec,
        mbi=mbi,
        trace_csv_path=_str_field(outputs.get("trace_csv"), "outputs.trace_csv"),
        wsn_json_path=_str_field(outputs.get("wsn_json"), "outputs.wsn_json"),
        image_out_dir=_str_field(
            outputs.get("image_out_dir"), "outputs.image_out_dir"
        ),
        report_baseline=report_baseline,
    )
    if spec.kind == "image" and cfg.image_out_dir is None:
        raise ParseError("image scenario requires outputs.image_out_dir")
    return cfg


def load_config(path, **overrides) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc, **overrides)


def _atomic_save_pgm(a, path) -> None:
    atomic_write(path, lambda tmp: save_pgm(a, tmp))


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def run(config: RunConfig, quiet: bool = False) -> int:
    """Execute one configured scenario. Returns a process exit status."""
    spec = config.scenario
    image_data = None
    if spec.kind == "exact_example1":
        model = generate(spec)
        ens = None
    elif spec.kind == "image":
        image_data = image_scenario(spec)
        ens = image_data.ensemble
        model = estimate_moments(ens, spec.partition)
    else:
        ens = generate(spec)
        model = estimate_moments(ens, spec.partition)

    rp = reduce_problem(model)
    start = init_bank(model)
    bank, trace = mbi_solve(rp, start, config.mbi)
    final_mse = analytic_mse(model, bank)

    if config.trace_csv_path:
        lines = ["iteration,objective,chosen_block,analytic_mse,empirical_mse"]
        for i, f_i in enumerate(trace.objective_per_iteration):
            bank_i = trace.banks[i]
            chosen = "" if i == 0 else str(trace.chosen_block_per_iteration[i - 1])
            emp = "" if ens is None else _fmt(empirical_mse(ens, bank_i))
            lines.append(
                f"{i},{_fmt(f_i)},{chosen},{_fmt(analytic_mse(model, bank_i))},{emp}"
            )
        text = "\n".join(lines) + "\n"
        atomic_write(
            config.trace_csv_path, lambda tmp: Path(tmp).write_text(text, newline="")
        )

    if config.wsn_json_path:
        provenance = {
            "scenario_kind": spec.kind,
            "seed": spec.seed,
            "moments": model.provenance,
            "iterations": trace.iterations_used,
            "converged": trace.converged,
        }
        save_wsn_json(factorize_wsn(bank), config.wsn_json_path, provenance)

    # the warm start is the per-sensor baseline the report compares against
    baseline = start if config.report_baseline else None
    baseline_mse = None if baseline is None else analytic_mse(model, baseline)

    if image_data is not None:
        out = config.image_out_dir
        os.makedirs(out, exist_ok=True)
        x_hat = bank.apply(image_data.y_full)
        _atomic_save_pgm(x_hat, os.path.join(out, "reconstruction.pgm"))
        _atomic_save_pgm(
            np.abs(image_data.x_full - x_hat), os.path.join(out, "error_map.pgm")
        )
        if baseline is not None:
            b_hat = baseline.apply(image_data.y_full)
            _atomic_save_pgm(b_hat, os.path.join(out, "baseline_reconstruction.pgm"))
            _atomic_save_pgm(
                np.abs(image_data.x_full - b_hat),
                os.path.join(out, "baseline_error_map.pgm"),
            )

    if not quiet:
        print(
            f"final_mse={_fmt(final_mse)} iterations={trace.iterations_used} "
            f"converged={str(trace.converged).lower()}"
        )
        if baseline_mse is not None:
            print(f"baseline_mse={_fmt(baseline_mse)}")
    return EXIT_OK


def validate(config_path) -> tuple[bool, list[str]]:
    """Check a config file without running it: partition invariants, scenario
    completeness and output-path writability. Returns (ok, report lines)."""
    report: list[str] = []
    try:
        cfg = load_config(config_path)
    except ParseError as exc:
        return False, [f"invalid: {exc}"]
    report.append(f"scenario: {cfg.scenario.kind} (seed {cfg.scenario.seed})")
    part = cfg.scenario.partition
    report.append(f"partition: m={part.m} n={list(part.n)} r={list(part.r)}")
    ok = True
    if cfg.scenario.kind == "image":
        path = cfg.scenario.image_path
        if not os.path.isfile(path):
            report.append(f"invalid: image file not found: {path}")
            ok = False
    for label, path in (
        ("trace_csv", cfg.trace_csv_path),
        ("wsn_json", cfg.wsn_json_path),
    ):
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(path)) or "."
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            report.append(f"invalid: {label} directory not writable: {parent}")
            ok = False
    if cfg.image_out_dir is not None:
        parent = os.path.abspath(cfg.image_out_dir)
        probe = parent if os.path.isdir(parent) else os.path.dirname(parent) or "."
        if not os.access(probe, os.W_OK):
            report.append(f"invalid: image_out_dir not writable: {parent}")
            ok = False
    if ok:
        report.append("config ok")
    return ok, report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klt-mbi",
        description="Distributed-signal compression via the multi-compressor "
        "KLT with maximum block improvement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario end to end")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--seed", type=int, default=None, help="override seed")
    p_run.add_argument(
        "--epsilon", type=float, default=None, help="override stopping tolerance"
    )
    p_run.add_argument(
        "--max-iters", type=int, default=None, help="override iteration budget"
    )
    p_run.add_argument("--quiet", action="store_true", help="suppress stdout")
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True, help="JSON config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        ok, report = validate(args.config)
        for line in report:
            print(line)
        return EXIT_OK if ok else EXIT_CONFIG
    try:
        cfg = load_config(
            args.config,
            seed=args.seed,
            epsilon=args.epsilon,
            max_iters=args.max_iters,
        )
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(cfg, quiet=args.quiet)
    except NotPsd as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
