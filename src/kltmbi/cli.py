"""Command-line front end.

``klt-mbi run --config cfg.json`` executes one scenario end to end
(generation, moment estimation, MBI solve, factorization, error evaluation)
and writes a per-iteration trace CSV, the factorized WSN as JSON and, for
image scenarios, reconstruction and error-map PGMs.
``klt-mbi validate --config cfg.json`` checks a config without side effects.

Exit codes: 0 success, 2 bad config, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .covariance import (
    EXAMPLE1_PARTITION,
    SensorPartition,
    estimate_moments,
    example1_model,
)
from .errors import InvalidInput, NotPsd, ParseError
from .scenarios import (
    KIND_FIELDS,
    ScenarioSpec,
    _load_image,
    generate,
    image_scenario,
    save_pgm,
)
from .solver import MbiConfig, init_bank, mbi_solve, reduce_problem
from .wsn import (
    _read_json,
    _running_empirical_mse,
    atomic_write,
    factorize_wsn,
    save_wsn_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioSpec
    mbi: MbiConfig
    outputs: dict[str, str]  # each file run writes, by name, to its path
    report_baseline: bool


# the images an image run writes to image_out_dir: a bank's estimate x_hat of
# the source image x and |x - x_hat|; "baseline_" + name holds the warm start's
_IMAGES = ("reconstruction.pgm", "error_map.pgm")


# The config's numbers go on as JSON gave them: SensorPartition, ScenarioSpec
# and MbiConfig raise InvalidInput for a bool, a string, a float where an
# integer is due or an integer beyond the float range, and supply the
# defaults of the fields a config leaves out. The helpers below check only
# the JSON shapes.
def _list_field(value, name: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{name} must be a list, got {value!r}")
    return value


def _path_field(value, name: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{name} must be a string, got {value!r}")
    try:  # a name the OS takes: not empty, no NUL, in the file-system encoding
        ok = value and "\0" not in value and os.fsencode(value)
    except UnicodeEncodeError:
        ok = False
    if not ok:
        raise ParseError(f"{name} is not a file name: {value!r}")
    return value


def _object(value, name: str, keys: tuple[str, ...], kind: str | None = None) -> dict:
    """A JSON object whose every key is one of ``keys``; the error for any
    other key names the scenario ``kind`` that reads only ``keys``, if given."""
    if not isinstance(value, dict):
        raise ParseError(f"{name} must be an object")
    unknown = ", ".join(repr(k) for k in value if k not in keys)
    if unknown:
        owner = "" if kind is None else f" for kind {kind!r}"
        raise ParseError(f"{name} has unknown keys: {unknown}{owner}")
    return value


def parse_config(doc: dict, source=None) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, read from the file
    ``source`` if given. Each scenario kind accepts the fields
    :data:`~kltmbi.scenarios.KIND_FIELDS` says it reads, and
    ``image_out_dir`` only when it reads an image. No output may be another
    output, the image the run reads or ``source``."""
    doc = _object(doc, "config", ("scenario", "mbi", "outputs", "report_baseline"))
    sc = doc.get("scenario")
    if not isinstance(sc, dict):
        raise ParseError("config needs a 'scenario' object")
    kind = sc.get("kind")
    if not isinstance(kind, str) or kind not in KIND_FIELDS:
        raise ParseError(f"unknown scenario kind {kind!r}")
    reads = KIND_FIELDS[kind]
    _object(sc, "scenario", ("kind", "m", "n", "r", "seed", *reads), kind)
    for key in ("n", "r", "sigmas"):
        if key in sc:
            _list_field(sc[key], f"scenario.{key}")
    if "image_path" in sc:
        _path_field(sc["image_path"], "scenario.image_path")
    # exact_example1 takes the dimensions it is not given from example 1
    ex1 = asdict(EXAMPLE1_PARTITION) if kind == "exact_example1" else {}
    try:
        part = SensorPartition(
            **{k: sc[k] if k in sc else ex1[k] for k in ("m", "n", "r")}
        )
        spec = ScenarioSpec(
            kind=kind,
            partition=part,
            seed=sc["seed"],
            **{k: sc[k] for k in reads if k in sc},
        )
    except KeyError as exc:
        raise ParseError(f"scenario is missing field {exc}") from None
    except InvalidInput as exc:
        raise ParseError(f"invalid scenario: {exc}") from None

    # a kind that reads an image writes its reconstructions to image_out_dir
    writes_images = "image_path" in reads
    keys = ("trace_csv", "wsn_json") + (("image_out_dir",) if writes_images else ())
    outputs = _object(doc.get("outputs", {}), "outputs", keys, kind)
    files = {k: _path_field(v, f"outputs.{k}") for k, v in outputs.items()}
    report_baseline = doc.get("report_baseline", False)
    if not isinstance(report_baseline, bool):
        raise ParseError(
            f"report_baseline must be true or false, got {report_baseline!r}"
        )
    if writes_images:
        out = files.pop("image_out_dir", None)
        if out is None:
            raise ParseError(f"{kind} scenario requires outputs.image_out_dir")
        for prefix in ("", "baseline_") if report_baseline else ("",):
            files.update({prefix + f: os.path.join(out, prefix + f) for f in _IMAGES})
    # no output may overwrite another, the image the run reads or the config
    inputs = {"config": source} if source is not None else {}
    if spec.image_path:
        inputs["scenario.image_path"] = spec.image_path
    seen = {}
    for label, path in {**inputs, **files}.items():
        first = seen.setdefault(os.path.realpath(path), label)
        if first != label:
            raise ParseError(f"{first} and {label} are one file: {path}")

    # MbiConfig supplies epsilon and max_iterations when they are left out
    mbi_doc = _object(doc.get("mbi", {}), "mbi", ("epsilon", "max_iterations"))
    try:
        # only the trace CSV reads the intermediate banks
        mbi = MbiConfig(record_trace="trace_csv" in files, **mbi_doc)
    except InvalidInput as exc:
        raise ParseError(f"invalid mbi settings: {exc}") from None
    return RunConfig(spec, mbi, files, report_baseline)


def load_config(path) -> RunConfig:
    try:
        doc = _read_json(path)
    except OSError as exc:
        raise ParseError(f"config file cannot be read: {exc}") from None
    return parse_config(doc, source=path)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def run(config: RunConfig, quiet: bool = False) -> int:
    """Execute one configured scenario. Returns a process exit status. An
    output it could not write raises :class:`OSError` before any work."""
    problems = _unwritable(config)
    if problems:
        raise OSError("; ".join(problems))
    spec, files = config.scenario, config.outputs
    image_data = image_scenario(spec) if spec.kind == "image" else None
    if spec.kind == "exact_example1":  # the exact model, without samples
        model, ens = example1_model(spec.partition.r), None
    else:
        ens = generate(spec) if image_data is None else image_data.ensemble
        model = estimate_moments(ens, spec.partition)

    # mbi_solve would form the set-up itself; the benchmark's traced runs
    # time it, and the size of what it returns, through this call
    reduce_problem(model)
    start = init_bank(model)
    bank, trace = mbi_solve(model, start, config.mbi)
    # analytic_mse of the bank after step i, bit for bit; step 0 is the warm start
    mse = trace.mse_per_iteration

    if "trace_csv" in files:
        # the empirical column replays each committed block step on the
        # samples, one column chunk at a time
        if ens is None:
            emp = [""] * len(mse)
        else:
            emp = [_fmt(v) for v in _running_empirical_mse(ens, trace)]
        lines = ["iteration,objective,chosen_block,analytic_mse,empirical_mse"]
        for i, f_i in enumerate(trace.objective_per_iteration):
            chosen = "" if i == 0 else str(trace.chosen_block_per_iteration[i - 1])
            lines.append(f"{i},{_fmt(f_i)},{chosen},{_fmt(mse[i])},{emp[i]}")
        text = ("\n".join(lines) + "\n").encode()
        atomic_write(files["trace_csv"], lambda tmp: Path(tmp).write_bytes(text))

    if "wsn_json" in files:
        provenance = {
            "scenario_kind": spec.kind,
            "seed": spec.seed,
            "moments": "exact" if ens is None else "estimated",
            "iterations": trace.iterations_used,
            "converged": trace.converged,
        }
        save_wsn_json(factorize_wsn(bank), files["wsn_json"], provenance)

    if image_data is not None:
        # the warm start is the per-sensor baseline the report compares against
        shown = {"": bank, "baseline_": start} if config.report_baseline else {"": bank}
        for prefix, b in shown.items():
            x_hat = b.apply(image_data.y_full)
            pgms = (x_hat, np.abs(image_data.x_full - x_hat))
            for name, pgm in zip(_IMAGES, pgms):
                path = files[prefix + name]
                os.makedirs(os.path.dirname(path), exist_ok=True)
                atomic_write(path, lambda tmp: save_pgm(pgm, tmp))

    if not quiet:
        print(
            f"final_mse={_fmt(mse[-1])} iterations={trace.iterations_used} "
            f"converged={str(trace.converged).lower()}"
        )
        if config.report_baseline:
            print(f"baseline_mse={_fmt(mse[0])}")
    return EXIT_OK


def _unwritable(config: RunConfig) -> list[str]:
    """A line for each output ``run`` could not write: the path is a directory,
    or no writable directory holds it (``run`` makes those above an image)."""
    problems = []
    for label, path in config.outputs.items():
        probe = os.path.dirname(os.path.abspath(path))
        while label.endswith(".pgm") and not os.path.exists(probe):
            probe = os.path.dirname(probe)
        if os.path.isdir(path):
            problems.append(f"{label} is a directory: {path}")
        elif not os.path.isdir(probe) or not os.access(probe, os.W_OK):
            problems.append(f"{label} directory not writable: {probe}")
    return problems


def validate(config_path) -> tuple[bool, list[str]]:
    """Check a config file without running it: partition invariants, scenario
    completeness, the image checks ``run`` makes before it allocates, and
    output paths ``run`` can write. Returns (ok, report lines)."""
    try:
        cfg = load_config(config_path)
    except ParseError as exc:
        return False, [f"invalid: {exc}"]
    part = cfg.scenario.partition
    report = [
        f"scenario: {cfg.scenario.kind} (seed {cfg.scenario.seed})",
        f"partition: m={part.m} n={list(part.n)} r={list(part.r)}",
    ]
    if cfg.scenario.kind == "image":
        try:
            _load_image(cfg.scenario)
        except ValueError as exc:  # ParseError or InvalidInput
            report.append(f"invalid: image {cfg.scenario.image_path}: {exc}")
    report += [f"invalid: {problem}" for problem in _unwritable(cfg)]
    ok = not any(line.startswith("invalid:") for line in report)
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
        return run(load_config(args.config), quiet=args.quiet)
    except NotPsd as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InvalidInput, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
