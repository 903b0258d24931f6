"""Tests for the CLI: config handling, outputs, exit codes, determinism."""

import dataclasses
import json
import os
import pathlib
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kltmbi
from kltmbi import (
    DegenerateTruncationWarning,
    MbiConfig,
    NotPsd,
    ParseError,
    SensorPartition,
    analytic_mse,
    compress,
    empirical_mse,
    example1_model,
    generate,
    init_bank,
    load_wsn_json,
    reconstruct,
    save_pgm,
)
from kltmbi import cli, scenarios
from kltmbi.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    RunConfig,
    _fmt,
    load_config,
    main,
    parse_config,
    validate,
)
from kltmbi.scenarios import KIND_FIELDS


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _main_in_child(*args, cwd=None) -> subprocess.CompletedProcess:
    """``main(args)`` in a child process that imports this kltmbi."""
    src = str(pathlib.Path(kltmbi.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys; from kltmbi.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


# additive noise, s = 10 > N = 8
_SAMPLED_SCENARIO = {
    "kind": "additive_noise", "m": 4, "n": [4, 4], "r": [2, 2], "s": 10,
    "sigmas": [0.1, 0.2], "seed": 7,
}
# s = 3 < N = 12: the warm start already fits exactly, and the one block a
# sweep solves truncates a residual that is all round-off
_EXACT_FIT_SCENARIO = {
    "kind": "additive_noise", "m": 4, "n": [4, 4, 4], "r": [2, 1, 2], "s": 3,
    "sigmas": [0.3, 0.3, 0.3], "seed": 2,
}
# s = 10 < N = 32 with full ranks: the solve drives the objective to
# round-off, where the Wiener MSE and the objective nearly cancel
_NEAR_EXACT_SCENARIO = {
    "kind": "linear_mixing", "m": 8, "n": [8] * 4, "r": [8] * 4, "s": 10,
    "sigmas": [0.3] * 4, "seed": 1,
}
_MIXING_SCENARIO = {
    "kind": "linear_mixing", "m": 5, "n": [5, 5], "r": [2, 3], "s": 12,
    "sigmas": [0.1, 0.3], "seed": 90,
}
_EX1 = {"kind": "exact_example1", "seed": 0}
_NOISE_SCENARIO = {
    "kind": "additive_noise", "m": 3, "n": [3], "r": [1], "s": 4, "sigmas": [0.1],
    "seed": 0,
}
# the same partition for the kinds that read other fields
_PURE_NOISE_SCENARIO = {
    "kind": "pure_noise_obs", "m": 3, "n": [3], "r": [1], "s": 4, "seed": 0
}
_IMAGE_SCENARIO = {
    "kind": "image", "m": 5, "n": [5], "r": [1], "sigmas": [0.1], "seed": 0,
    "image_path": "src.pgm",
}
_SOURCE = np.random.default_rng(0).random((5, 6))  # an image for _IMAGE_SCENARIO
# the outputs of an image run in its directory, and the file each output
# label names there
_LINKED_OUTPUTS = {"trace_csv": "t.csv", "wsn_json": "w.json", "image_out_dir": "out"}
_OUTPUT_FILES = {
    "trace_csv": "t.csv",
    "wsn_json": "w.json",
    "reconstruction.pgm": os.path.join("out", "reconstruction.pgm"),
}


def _example1_config(tmp_path, **extra):
    doc = {
        "scenario": {"kind": "exact_example1", "r": [1, 1], "seed": 0},
        "mbi": {"epsilon": 1e-10, "max_iterations": 2000},
        "outputs": {
            "trace_csv": str(tmp_path / "trace.csv"),
            "wsn_json": str(tmp_path / "wsn.json"),
        },
    }
    doc.update(extra)
    return _write_config(tmp_path, doc)


class TestRun:
    def test_baseline_is_the_warm_start(self, tmp_path, capsys, monkeypatch):
        # the reported baseline is the bank MBI starts from, built once
        starts = []

        def counting_init_bank(model):
            starts.append((model, init_bank(model)))
            return starts[-1][1]

        monkeypatch.setattr(cli, "init_bank", counting_init_bank)
        cfg = _example1_config(tmp_path, report_baseline=True)
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert len(starts) == 1
        model, start = starts[0]
        out = capsys.readouterr().out
        assert f"baseline_mse={analytic_mse(model, start):.12g}" in out.split()

    def test_exact_scenario_end_to_end(self, tmp_path, capsys):
        cfg = _example1_config(tmp_path, report_baseline=True)
        assert main(["run", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "final_mse=" in out
        assert "iterations=" in out
        assert "baseline_mse=" in out
        final = float(out.split("final_mse=")[1].split()[0])
        baseline = float(out.split("baseline_mse=")[1].split()[0])
        assert final < baseline

        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,objective,chosen_block,analytic_mse,empirical_mse"
        rows = [line.split(",") for line in lines[1:]]
        objectives = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))
        assert rows[0][2] == ""  # no chosen block before the first step
        assert all(r[4] == "" for r in rows)  # exact scenario: no empirical column

        doc = json.loads((tmp_path / "wsn.json").read_text())
        assert doc["partition"]["r"] == [1, 1]
        assert len(doc["sensors"]) == 2

    def test_sampled_scenario_fills_empirical(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "scenario": _SAMPLED_SCENARIO,
                "mbi": {"max_iterations": 30},
                "outputs": {"trace_csv": str(tmp_path / "t.csv")},
            },
        )
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        rows = [
            line.split(",")
            for line in (tmp_path / "t.csv").read_text().splitlines()[1:]
        ]
        emp = [float(r[4]) for r in rows]
        ana = [float(r[3]) for r in rows]
        for e, a in zip(emp, ana):
            assert e == pytest.approx(a, rel=1e-8)

    def test_exact_fit_from_few_samples_is_quiet(self, tmp_path):
        cfg = _write_config(tmp_path, {"scenario": _EXACT_FIT_SCENARIO})
        proc = _main_in_child("run", "--config", cfg, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")

    @pytest.mark.parametrize(
        "scenario, mbi",
        [
            (_SAMPLED_SCENARIO, {"max_iterations": 30}),
            (_MIXING_SCENARIO, {"epsilon": 1e-10, "max_iterations": 200}),
            # the warm start leaves sensor 0 a rank short of the samples; one
            # step fits them exactly, and the round-off steps after it are
            # not committed even at epsilon 0
            ({**_EXACT_FIT_SCENARIO, "r": [1, 1, 2]}, {"epsilon": 0}),
            (_NEAR_EXACT_SCENARIO, {"epsilon": 0, "max_iterations": 30}),
            (dict(_EX1, r=[1, 1]), {"epsilon": 1e-10, "max_iterations": 2000}),
        ],
        ids=[
            "additive_noise",
            "linear_mixing",
            "exact_fit",
            "near_exact_fit",
            "exact_example1",
        ],
    )
    def test_trace_columns_match_full_recomputes(
        self, tmp_path, monkeypatch, capsys, scenario, mbi
    ):
        # the trace derives its MSE columns from the solve; each row must
        # print what analytic_mse and empirical_mse of that row's bank print,
        # and stdout what the first and last rows print
        calls = {}  # name -> (arguments, result) of the run's call
        for name in ("estimate_moments", "mbi_solve"):
            def spy(*args, _fn=getattr(cli, name), _name=name):
                calls[_name] = (args, _fn(*args))
                return calls[_name][1]

            monkeypatch.setattr(cli, name, spy)
        cfg = _write_config(
            tmp_path,
            {
                "scenario": scenario,
                "mbi": mbi,
                "outputs": {"trace_csv": str(tmp_path / "t.csv")},
                "report_baseline": True,
            },
        )
        assert main(["run", "--config", cfg]) == EXIT_OK
        rows = [
            line.split(",")
            for line in (tmp_path / "t.csv").read_text().splitlines()[1:]
        ]
        model = calls["mbi_solve"][0][0]
        ens = calls["estimate_moments"][0][0] if "estimate_moments" in calls else None
        banks = calls["mbi_solve"][1][1].banks
        assert len(rows) == len(banks) >= 2
        for row, bank in zip(rows, banks):
            assert row[3] == _fmt(analytic_mse(model, bank))
            assert row[4] == ("" if ens is None else _fmt(empirical_mse(ens, bank)))
        out = capsys.readouterr().out.split()
        assert f"final_mse={rows[-1][3]}" in out
        assert f"baseline_mse={rows[0][3]}" in out

    def test_trace_holds_two_chunk_buffers(self, tmp_path, monkeypatch):
        # the empirical column keeps two m x _CHUNK buffers; an m x s
        # residual exceeds the bound
        from kltmbi import wsn

        m, p, s = 8, 4, 50_000
        running = cli._chunked_mse
        peaks = []

        def measured(ens, banks, chosen):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = running(ens, banks, chosen)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(cli, "_chunked_mse", measured)
        sizes = {"m": m, "n": [m] * p, "r": [2] * p, "s": s, "sigmas": [0.3] * p}
        cfg = _write_config(
            tmp_path,
            {
                "scenario": dict(_NOISE_SCENARIO, seed=1, **sizes),
                "mbi": {"epsilon": 0, "max_iterations": 8},
                "outputs": {"trace_csv": str(tmp_path / "t.csv")},
            },
        )
        bound = 2 * m * wsn._CHUNK * 8 + 256 * 1024
        # the second run has one chunk as wide as the samples: the bound
        # must tell it apart
        for chunk in (wsn._CHUNK, s):
            monkeypatch.setattr(wsn, "_CHUNK", chunk)
            tracemalloc.start()
            try:
                assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
            finally:
                tracemalloc.stop()
        chunked, unchunked = peaks
        assert chunked <= bound < unchunked

    @pytest.mark.parametrize(
        "scenario, moments",
        [
            ({"kind": "exact_example1", "seed": 0}, "exact"),
            (_SAMPLED_SCENARIO, "estimated"),
        ],
        ids=["exact", "estimated"],
    )
    def test_network_json_names_the_moments(self, tmp_path, scenario, moments):
        path = tmp_path / "wsn.json"
        cfg = _write_config(
            tmp_path, {"scenario": scenario, "outputs": {"wsn_json": str(path)}}
        )
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        provenance = json.loads(path.read_text())["provenance"]
        assert list(provenance) == [
            "scenario_kind", "seed", "moments", "iterations", "converged"
        ]
        assert provenance["moments"] == moments

    def test_infinite_epsilon_single_row(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "scenario": {"kind": "exact_example1", "seed": 0},
                # json.dumps writes Infinity, which json.load reads back
                "mbi": {"epsilon": float("inf")},
                "outputs": {"trace_csv": str(tmp_path / "t.csv")},
            },
        )
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 2  # header + 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _example1_config(tmp_path)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        first_csv = (tmp_path / "trace.csv").read_bytes()
        first_json = (tmp_path / "wsn.json").read_bytes()
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert (tmp_path / "trace.csv").read_bytes() == first_csv
        assert (tmp_path / "wsn.json").read_bytes() == first_json

    def test_seed_changes_sampled_run(self, tmp_path):
        scenario = dict(_PURE_NOISE_SCENARIO, n=[3, 3], r=[1, 1], s=6)
        traces = []
        for seed in (1, 2):
            doc = {
                "scenario": dict(scenario, seed=seed),
                "mbi": {"max_iterations": 10},
                "outputs": {"trace_csv": str(tmp_path / "t.csv")},
            }
            cfg = _write_config(tmp_path, doc)
            assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
            traces.append((tmp_path / "t.csv").read_bytes())
        assert traces[0] != traces[1]

    def test_image_pipeline_outputs(self, tmp_path):
        rng = np.random.default_rng(0)
        img = tmp_path / "src.pgm"
        save_pgm(rng.random((8, 8)), img)
        out_dir = tmp_path / "out"
        cfg = _write_config(
            tmp_path,
            {
                "scenario": {
                    "kind": "image",
                    "m": 8,
                    "n": [8, 8],
                    "r": [3, 3],
                    "sigmas": [0.2, 0.1],
                    "seed": 3,
                    "image_path": str(img),
                },
                "mbi": {"max_iterations": 20},
                "outputs": {
                    "trace_csv": str(tmp_path / "t.csv"),
                    "image_out_dir": str(out_dir),
                },
                "report_baseline": True,
            },
        )
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        for name in (
            "reconstruction.pgm",
            "error_map.pgm",
            "baseline_reconstruction.pgm",
            "baseline_error_map.pgm",
        ):
            assert (out_dir / name).is_file()

    def test_network_json_has_the_traced_mse(self, tmp_path):
        # the network the run ships, run on its training samples, has the
        # trace's final analytic MSE; s = 500 >> N = 32 keeps the fit far
        # from exact, where the analytic MSE loses digits
        scenario = dict(_NEAR_EXACT_SCENARIO, r=[2] * 4, s=500, seed=3)
        outputs = {"trace_csv": "t.csv", "wsn_json": "w.json"}
        outputs = {k: str(tmp_path / v) for k, v in outputs.items()}
        doc = {"scenario": scenario, "mbi": {"epsilon": 0}, "outputs": outputs}
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        wsn = load_wsn_json(outputs["wsn_json"])
        ens = generate(load_config(cfg).scenario)
        replayed = np.sum((ens.x - reconstruct(wsn, compress(wsn, ens.y))) ** 2) / ens.s
        final = (tmp_path / "t.csv").read_text().splitlines()[-1].split(",")[3]
        assert replayed == pytest.approx(float(final), rel=1e-9)


class TestExitCodes:
    # the refusals of a config are rows of REFUSALS below
    def test_numerical_failure(self, tmp_path, monkeypatch):
        cfg = _example1_config(tmp_path)

        def boom(*_):
            raise NotPsd("forced")

        monkeypatch.setattr(cli, "mbi_solve", boom)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_NUMERICAL

    def test_option_run_does_not_take(self, tmp_path, capsys):
        # the seed comes from the config, so --seed is refused before any work
        cfg = _example1_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg, "--seed", "1"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("config", ["directory", "not_utf8", "too_deep"])
def test_unreadable_config_is_config_error(tmp_path, command, config):
    # run in a child process so that an uncaught error shows as a traceback,
    # one that no caller can catch (an unraisable exception, say) included
    path = tmp_path / "config.json"
    if config == "directory":
        path.mkdir()
    elif config == "not_utf8":
        path.write_bytes('{"scenario": {"kind": "caf\xe9"}}'.encode("latin-1"))
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    proc = _main_in_child(command, "--config", str(path))
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    if command == "validate":
        assert proc.stdout.startswith("invalid: ")


def test_linear_mixing_takes_n_other_than_m(tmp_path, capsys):
    # each A_j is n_j x m, so a sensor may see more or fewer than m values
    scenario = dict(_MIXING_SCENARIO, n=[7, 2], r=[2, 1])
    cfg = _write_config(tmp_path, {"scenario": scenario})
    assert main(["validate", "--config", cfg]) == EXIT_OK
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "sigma", [1e150, 1e200, 1.7e308], ids=["norm", "entries", "samples"]
)
def test_overflowing_moments_are_config_error(tmp_path, capsys, sigma):
    # the sampled moments overflow in their Frobenius norm (1e150), in their
    # entries (1e200), or the samples themselves do and the products meet
    # inf - inf (1.7e308); only a run draws the samples, so validate passes
    cfg = _write_config(
        tmp_path,
        {"scenario": dict(_NOISE_SCENARIO, m=2, n=[2], s=40, sigmas=[sigma])},
    )
    assert main(["validate", "--config", cfg]) == EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert caught == []
    assert "not finite" in capsys.readouterr().err


class TestValidate:
    def test_valid_config(self, tmp_path):
        cfg = _example1_config(tmp_path)
        ok, report = validate(cfg)
        assert ok
        assert any("config ok" in line for line in report)
        assert main(["validate", "--config", cfg]) == EXIT_OK

    def test_image_out_dir_below_missing_directories(self, tmp_path):
        # run creates the missing directories, so validate accepts them
        image = tmp_path / "src.pgm"
        save_pgm(_SOURCE, image)
        out = tmp_path / "new" / "deeper" / "out"
        scenario = dict(_IMAGE_SCENARIO, image_path=str(image))
        doc = {"scenario": scenario, "outputs": {"image_out_dir": str(out)}}
        cfg = _write_config(tmp_path, doc)
        ok, report = validate(cfg)
        assert ok, report
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert (out / "reconstruction.pgm").is_file()


def test_outputs_get_ordinary_file_modes(tmp_path):
    image = tmp_path / "src.pgm"
    save_pgm(_SOURCE, image)
    out = tmp_path / "out"
    outputs = {
        "trace_csv": str(tmp_path / "t.csv"),
        "wsn_json": str(tmp_path / "w.json"),
        "image_out_dir": str(out),
    }
    scenario = dict(_IMAGE_SCENARIO, image_path=str(image))
    doc = {"scenario": scenario, "outputs": outputs, "report_baseline": True}
    cfg = _write_config(tmp_path, doc)
    written = [tmp_path / "t.csv", tmp_path / "w.json"] + [
        out / f"{prefix}{name}"
        for prefix in ("", "baseline_")
        for name in ("reconstruction.pgm", "error_map.pgm")
    ]
    umask = os.umask(0o022)
    try:
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert {oct(p.stat().st_mode & 0o777) for p in written} == {"0o644"}
        # a file that is overwritten keeps its mode
        for p in written:
            p.chmod(0o640)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert {oct(p.stat().st_mode & 0o777) for p in written} == {"0o640"}
    finally:
        os.umask(umask)


class TestOutputThroughLink:
    """An output that is a symbolic link is checked and written as the file
    the link names, and the link stays."""

    @staticmethod
    def _config(tmp_path, name):
        """The config of an image run that writes its outputs in tmp_path/name."""
        image = tmp_path / "src.pgm"
        if not image.exists():
            save_pgm(_SOURCE, image)
        run_dir = tmp_path / name
        (run_dir / "out").mkdir(parents=True)
        outputs = {k: str(run_dir / v) for k, v in _LINKED_OUTPUTS.items()}
        scenario = dict(_IMAGE_SCENARIO, image_path=str(image))
        return _write_config(run_dir, {"scenario": scenario, "outputs": outputs})

    def _plain(self, tmp_path, field):
        """The bytes a run whose outputs are no links writes to ``field``."""
        cfg = self._config(tmp_path, "plain")
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        return (tmp_path / "plain" / _OUTPUT_FILES[field]).read_bytes()

    @pytest.mark.parametrize("field", _OUTPUT_FILES)
    def test_link_to_a_file(self, tmp_path, field):
        cfg = self._config(tmp_path, "linked")
        link, real = tmp_path / "linked" / _OUTPUT_FILES[field], tmp_path / "real"
        real.write_bytes(b"old")
        real.chmod(0o640)
        link.symlink_to(real)
        assert validate(cfg)[0]
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert link.is_symlink()
        assert real.read_bytes() == self._plain(tmp_path, field)
        assert stat.S_IMODE(real.stat().st_mode) == 0o640

    @pytest.mark.parametrize("field", _OUTPUT_FILES)
    def test_dangling_link_creates_its_target(self, tmp_path, field):
        cfg = self._config(tmp_path, "linked")
        link = tmp_path / "linked" / _OUTPUT_FILES[field]
        real = tmp_path / "new" / "real"
        real.parent.mkdir()
        link.symlink_to(real)
        assert validate(cfg)[0]
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert link.is_symlink()
        assert real.read_bytes() == self._plain(tmp_path, field)

    def test_image_out_dir_linked_to_a_directory_to_make(self, tmp_path):
        # run makes the directory the link names, as it makes a missing
        # image_out_dir
        cfg = self._config(tmp_path, "linked")
        out, made = tmp_path / "linked" / "out", tmp_path / "made" / "images"
        out.rmdir()
        out.symlink_to(made)
        assert validate(cfg)[0]
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert out.is_symlink()
        plain = self._plain(tmp_path, "reconstruction.pgm")
        assert (made / "reconstruction.pgm").read_bytes() == plain


# The CLI's refusals, one row each: a config that ``validate`` refuses (exit
# 2) and ``run`` refuses before it draws a sample or builds a model (exit 2,
# or 4 for an output it cannot write), both printing the row's message
# fragment, and neither changing a file. The rows are grouped under the ids
# of the tests they are collected as; _assert_refused checks every one.


class Refusal(NamedTuple):
    doc: object  # config.json: a document, its text as given, or None for no file
    fragment: str  # "{root}" stands for the directory the row runs in
    code: int = EXIT_CONFIG  # run's exit
    # made in order before the config: a directory (DIR), a FIFO (FIFO),
    # bytes, a PGM of an array, or a symbolic link to the file a str names
    files: dict = {}


DIR, FIFO = object(), object()
_IMAGE_OUT = {"image_out_dir": "out"}


def _row(fragment, scenario=_NOISE_SCENARIO, code=EXIT_CONFIG, files={}, **sections):
    return Refusal({"scenario": scenario, **sections}, fragment, code, files)


def _noise(fragment, **fields) -> Refusal:
    """The refusal of _NOISE_SCENARIO with ``fields`` replaced."""
    return _row(fragment, dict(_NOISE_SCENARIO, **fields))


def _image(fragment, code=EXIT_CONFIG, files={"src.pgm": _SOURCE}, **outputs):
    """The refusal of _IMAGE_SCENARIO with ``outputs``."""
    return _row(fragment, _IMAGE_SCENARIO, code, files, outputs=outputs)


def _kind_field_row(kind: str, field: str) -> Refusal:
    # each kind owns the fields it reads; a field it would ignore is an
    # error, not a value that silently has no effect on the run
    scenario = {
        "exact_example1": _EX1, "pure_noise_obs": _PURE_NOISE_SCENARIO,
        "image": _IMAGE_SCENARIO,
    }.get(kind, dict(_NOISE_SCENARIO, kind=kind))
    outputs = _IMAGE_OUT if kind == "image" or field == "image_out_dir" else {}
    if field != "image_out_dir":
        p = 2 if kind == "exact_example1" else 1
        value = {"s": 5, "sigmas": [5.0] * p, "image_path": "src.pgm"}[field]
        scenario = dict(scenario, **{field: value})
    fragment = f"unknown keys: {field!r} for kind {kind!r}"
    return _row(fragment, scenario, files={"src.pgm": _SOURCE}, outputs=outputs)


def _link_row(field: str, target: str) -> Refusal:
    # a link to a directory or a FIFO is refused as it was before links were
    # resolved; a link into a missing directory and a link loop were passed
    # by validate and replaced by run
    link = _OUTPUT_FILES[field]
    made, tail = {
        "missing_dir": ({}, "directory not writable: {root}/gone"),
        "loop": ({"dest": link}, f"cannot be looked up: {link} ("),
        "directory": ({"dest": DIR}, f"is a directory: {link}"),
        "fifo": ({"dest": FIFO}, f"is not a regular file: {link}"),
    }[target]
    dest = "gone/real" if target == "missing_dir" else "dest"
    files = {"src.pgm": _SOURCE, "out": DIR, **made, link: dest}
    return _image(f"{field} {tail}", EXIT_IO, files, **_LINKED_OUTPUTS)


REFUSALS = {
    "TestExitCodes::test_missing_config": Refusal(
        None, "config file cannot be read: [Errno 2] No such file or directory"
    ),
    "TestExitCodes::test_invalid_json": Refusal(
        "{not json", "config.json is not valid JSON: Expecting property name"
    ),
    # json.load alone keeps the last "seed" and runs with seed 5
    "TestExitCodes::test_duplicate_key": Refusal(
        '{"scenario": {"kind": "exact_example1", "seed": 0, "seed": 5}}',
        "is not valid JSON: duplicate key 'seed'",
    ),
    "TestExitCodes::test_bad_partition": _row(
        "need 1 <= r[0] <= n[0], got r=5, n=2",
        {"kind": "pure_noise_obs", "m": 2, "n": [2], "r": [5], "s": 2, "seed": 0},
    ),
    "TestExitCodes::test_io_failure": _row(
        "trace_csv directory not writable: {root}/missing_dir", _EX1, EXIT_IO,
        mbi={"max_iterations": 5}, outputs={"trace_csv": "missing_dir/t.csv"},
    ),
    "test_malformed_field_is_config_error": {
        "max_iterations_str": _row(
            "max_iterations must be an integer, got 'x'", mbi={"max_iterations": "x"}
        ),
        # 1.5e400 overflows to inf; json.dumps writes it as Infinity, which
        # json.load reads back as inf, just as it reads the literal 1.5e400
        "max_iterations_overflow": _row(
            "max_iterations must be an integer, got inf",
            mbi={"max_iterations": 1.5e400},
        ),
        "n_not_list": _noise("n must be a list or tuple, got int", n=3),
        "r_not_list": _noise("r must be a list or tuple, got int", r=2),
        "sigmas_not_list": _noise(
            "sigmas must be a list or tuple, got float", sigmas=0.1
        ),
        "exact_example1_r_null": _row(
            "r must be a list or tuple, got NoneType", dict(_EX1, r=None)
        ),
        "m_not_int": _row("m must be an integer, got 'abc'", dict(_EX1, m="abc")),
        # wrong types that used to be coerced into a different config
        "n_str": _noise(
            "n must be a list or tuple, got str", n="33", r=[1, 1], sigmas=[0.1, 0.1]
        ),
        "m_float": _noise("m must be an integer, got 3.7", m=3.7),
        "s_float": _noise("s must be an integer, got 4.9", s=4.9),
        "r_float_entry": _noise("r[0] must be an integer, got 1.0", r=[1.0]),
        "seed_str": _noise("seed must be an integer, got '0'", seed="0"),
        "sigmas_str_entry": _noise(
            "sigmas[0] must be a real number, got '0.1'", sigmas=["0.1"]
        ),
        "max_iterations_bool": _row(
            "max_iterations must be an integer, got True", mbi={"max_iterations": True}
        ),
        "max_iterations_float": _row(
            "max_iterations must be an integer, got 2.9", mbi={"max_iterations": 2.9}
        ),
        "report_baseline_str": _row(
            "report_baseline must be true or false, got 'false'",
            report_baseline="false",
        ),
        "output_path_not_str": _row(
            "outputs.trace_csv must be a str or os.PathLike, got int",
            outputs={"trace_csv": 1},
        ),
        "trace_csv_empty": _row(
            "outputs.trace_csv is not a file name: ''", outputs={"trace_csv": ""}
        ),
        "wsn_json_empty": _row(
            "outputs.wsn_json is not a file name: ''", outputs={"wsn_json": ""}
        ),
        # null is no path; an output left out is not written
        "trace_csv_null": _row(
            "outputs.trace_csv must be a str or os.PathLike, got NoneType",
            outputs={"trace_csv": None},
        ),
        "wsn_json_null": _row(
            "outputs.wsn_json must be a str or os.PathLike, got NoneType",
            outputs={"wsn_json": None},
        ),
        "image_out_dir_null": _image(
            "outputs.image_out_dir must be a str or os.PathLike, got NoneType",
            image_out_dir=None,
        ),
        "image_out_dir_missing": _image(
            "image scenario requires outputs.image_out_dir", trace_csv="t.csv"
        ),
        # a NUL character, which no file name holds, and a lone surrogate,
        # which the file-system encoding cannot encode
        "output_path_nul": _row(
            r"outputs.trace_csv is not a file name: 't\x00.csv'",
            outputs={"trace_csv": "t\0.csv"},
        ),
        "output_path_surrogate": _row(
            r"outputs.wsn_json is not a file name: 't\ud800.json'",
            outputs={"wsn_json": "t\ud800.json"},
        ),
        "image_path_nul": _row(
            r"image_path is not a file name: 'x\x00.pgm'",
            dict(_IMAGE_SCENARIO, image_path="x\0.pgm"), outputs=_IMAGE_OUT,
        ),
        "seed_negative": _noise("seed must be >= 0, got -1", seed=-1),
        # integer literals beyond the float range
        "sigmas_int_overflow": _noise(
            "sigmas[0] is out of range: 10", sigmas=[10**400]
        ),
        "epsilon_int_overflow": _row(
            "epsilon is out of range: 10", mbi={"epsilon": 10**400}
        ),
        # epsilon is a JSON number; json.load reads Infinity as one
        "epsilon_str": _row(
            "epsilon must be a real number, got '0.5'", mbi={"epsilon": "0.5"}
        ),
        "epsilon_str_inf": _row(
            "epsilon must be a real number, got 'inf'", mbi={"epsilon": "inf"}
        ),
        # non-finite noise scales, which JSON reads from NaN and Infinity
        "sigmas_nan": _noise(
            "sigmas must be finite, got (nan, 0.1)",
            n=[3, 3], r=[1, 1], sigmas=[np.nan, 0.1],
        ),
        "sigmas_inf": _noise(
            "sigmas must be finite, got (inf, 0.1)",
            n=[3, 3], r=[1, 1], sigmas=[np.inf, 0.1],
        ),
        # scenarios beyond the size limit, in samples and in moments
        "s_too_large": _noise(
            "scenario needs 16000000000000032 bytes, more than", m=1, n=[1], s=10**15
        ),
        "moments_too_large": _row(
            "scenario needs 80005600096 bytes, more than",
            dict(_PURE_NOISE_SCENARIO, m=10**5, s=1),
        ),
        # partitions that do not fit the kind
        "additive_noise_n_not_m": _noise(
            "additive_noise scenario requires n_j = m for every sensor", m=2
        ),
        "image_n_not_m": _row(
            "image scenario requires n_j = m for every sensor",
            dict(_IMAGE_SCENARIO, n=[4]), outputs=_IMAGE_OUT,
        ),
        "exact_example1_m": _row(
            "exact_example1 requires m = 3 and n = (3, 3); got m=4, n=(4, 4)",
            dict(_EX1, m=4, n=[4, 4]),
        ),
        "exact_example1_n": _row(
            "exact_example1 requires m = 3 and n = (3, 3); got m=3, n=(3, 2)",
            dict(_EX1, n=[3, 2]),
        ),
    },
    "TestValidate::test_rank_bound_rejected": _noise(
        "need 1 <= r[0] <= n[0], got r=3, n=2",
        m=2, n=[2, 2], r=[3, 1], s=2, sigmas=[0.1, 0.1],
    ),
    "TestValidate::test_missing_image_path": _row(
        "image_path must be a str or os.PathLike, got NoneType",
        {k: v for k, v in _IMAGE_SCENARIO.items() if k != "image_path"},
        outputs={"image_out_dir": "."},
    ),
    "TestValidate::test_image_file_must_exist": _row(
        "image file not found: absent.pgm",
        dict(_IMAGE_SCENARIO, image_path="absent.pgm"), outputs={"image_out_dir": "."},
    ),
    "TestValidate::test_image_checked_as_run_checks_it": {
        case: _image(fragment, files={"src.pgm": image}, **_IMAGE_OUT)
        for case, fragment, image in [
            ("rows_not_m", "image has 6 rows, expected 5 rows", np.zeros((6, 4))),
            ("one_column", "image must have at least 2 columns", np.zeros((5, 1))),
            (
                "p7_magic",
                "unsupported PGM magic number b'P7'",
                b"P7\n4 5\n255\n" + bytes(20),
            ),
        ]
    },
    "TestValidate::test_output_path_run_cannot_write": {
        **{
            field: _image(
                f"{field} is a directory: taken", EXIT_IO,
                {"src.pgm": _SOURCE, "taken": DIR}, **{field: "taken"}, **_IMAGE_OUT,
            )
            for field in ("trace_csv", "wsn_json")
        },
        # below an image_out_dir that is a file, run cannot write its images
        "image_out_dir": _image(
            "error_map.pgm directory not writable: {root}/taken", EXIT_IO,
            {"src.pgm": _SOURCE, "taken": b""}, image_out_dir="taken",
        ),
    },
    "TestValidate::test_empty_image_out_dir": _image(
        "outputs.image_out_dir is not a file name: ''", image_out_dir=""
    ),
    "TestValidate::test_image_out_dir_below_a_file": _image(
        "error_map.pgm directory not writable: {root}/file", EXIT_IO,
        {"src.pgm": _SOURCE, "file": b""}, image_out_dir="file/new/out",
    ),
    "TestValidate::test_unwritable_output_dir": _row(
        "trace_csv directory not writable: {root}/no_dir", _EX1, EXIT_IO,
        outputs={"trace_csv": "no_dir/t.csv"},
    ),
    "test_unknown_key_is_config_error": {
        "top_level": _row("config has unknown keys: 'outptus'", _EX1, outptus={}),
        "scenario": _row(
            "scenario has unknown keys: 'sigma' for kind 'additive_noise'",
            dict(_SAMPLED_SCENARIO, sigma=[0.1, 0.2]),
        ),
        "mbi": _row(
            "mbi has unknown keys: 'max_iteration'", _EX1, mbi={"max_iteration": 3}
        ),
        "outputs": _row(
            "outputs has unknown keys: 'trace' for kind 'exact_example1'", _EX1,
            outputs={"trace": "t.csv"},
        ),
    },
    # every field a kind does not read, and image_out_dir for the kinds that
    # read no image
    "test_field_the_kind_does_not_read_is_config_error": {
        f"{kind}-{field}": _kind_field_row(kind, field)
        for kind, reads in KIND_FIELDS.items()
        for field in ("s", "sigmas", "image_path", "image_out_dir")
        if field not in reads and not (kind == "image" and field == "image_out_dir")
    },
    # the network JSON would overwrite the trace CSV
    "test_outputs_naming_one_file_are_config_error": {
        case: _row(
            f"trace_csv and wsn_json are one file: {alias}", _EX1,
            files={"link.txt": "out.txt"},
            outputs={"trace_csv": "out.txt", "wsn_json": alias},
        )
        for case, alias in [("dot", "./out.txt"), ("symlink", "link.txt")]
    },
    # the output would overwrite the config the run was read from
    "test_output_naming_the_config_is_config_error": {
        case: _row(
            f"config and {label} are one file: {path}", _EX1,
            files={"link.json": "config.json"}, outputs={label: path},
        )
        for case, label, path in [
            ("trace_csv", "trace_csv", "config.json"),
            ("wsn_json", "wsn_json", "./config.json"),
            ("symlink", "trace_csv", "link.json"),
        ]
    },
    # the network JSON would overwrite the source image, or the trace CSV
    # would be overwritten by the reconstruction
    "test_outputs_naming_the_image_or_an_image_are_config_error": {
        "wsn_json_is_image_path": _image(
            "scenario.image_path and wsn_json are one file: src.pgm",
            wsn_json="src.pgm", **_IMAGE_OUT,
        ),
        "trace_csv_is_an_image_output": _image(
            "trace_csv and reconstruction.pgm are one file: out/reconstruction.pgm",
            trace_csv="out/reconstruction.pgm", **_IMAGE_OUT,
        ),
    },
    "test_run_checks_its_outputs_before_it_starts": _row(
        "wsn_json is a directory: net", _EX1, EXIT_IO, {"net": DIR},
        outputs={"trace_csv": "t.csv", "wsn_json": "net"},
    ),
    "test_output_that_is_not_a_regular_file": {
        field: _row(
            f"{field} is not a regular file: fifo", _EX1, EXIT_IO, {"fifo": FIFO},
            outputs={field: "fifo"},
        )
        for field in ("trace_csv", "wsn_json")
    },
    "TestOutputThroughLink::test_link_run_cannot_write": {
        f"{field}-{target}": _link_row(field, target)
        for target in ("missing_dir", "loop", "directory", "fifo")
        for field in _OUTPUT_FILES
    },
    "test_unreadable_image_is_config_error": {
        "missing": _image("image file not found: src.pgm", files={}, **_IMAGE_OUT),
        "directory": _image(
            "image file cannot be read: [Errno 21] Is a directory: 'src.pgm'",
            files={"src.pgm": DIR}, **_IMAGE_OUT,
        ),
    },
}


def _make(files: dict) -> None:
    for name, what in files.items():
        if what is DIR:
            os.mkdir(name)
        elif what is FIFO:
            os.mkfifo(name)
        elif isinstance(what, str):
            os.symlink(os.path.abspath(what), name)
        elif isinstance(what, bytes):
            pathlib.Path(name).write_bytes(what)
        else:
            save_pgm(what, name)


def _tree(root) -> dict:
    """Each entry under ``root`` by its path from there: its file type, a
    link's target and a regular file's bytes. A FIFO is never opened."""
    tree = {}
    for top, dirs, names in os.walk(root):
        for path in (os.path.join(top, name) for name in dirs + names):
            mode = os.lstat(path).st_mode
            link = stat.S_ISLNK(mode) and os.readlink(path)
            data = stat.S_ISREG(mode) and pathlib.Path(path).read_bytes()
            tree[os.path.relpath(path, root)] = (stat.S_IFMT(mode), link, data)
    return tree


def _no_work(*args):
    raise AssertionError("run drew a sample or built a model on a refused config")


def _assert_refused(row: Refusal, tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    _make(row.files)
    if row.doc is not None:
        text = row.doc if isinstance(row.doc, str) else json.dumps(row.doc)
        pathlib.Path("config.json").write_text(text)
    before = _tree(tmp_path)
    fragment = row.fragment.format(root=os.path.realpath(tmp_path))
    argv = ["--config", "config.json"]

    ok, report = validate("config.json")
    assert not ok
    assert any(line.startswith("invalid: ") and fragment in line for line in report)
    assert main(["validate", *argv]) == EXIT_CONFIG
    assert fragment in capsys.readouterr().out

    monkeypatch.setattr(scenarios.np.random, "default_rng", _no_work)
    monkeypatch.setattr(cli, "example1_model", _no_work)
    monkeypatch.setattr(cli, "estimate_moments", _no_work)
    assert main(["run", *argv, "--quiet"]) == row.code
    assert fragment in capsys.readouterr().err
    assert _tree(tmp_path) == before


def _refusal_test(rows):
    """The test of a group of REFUSALS, a case per row, or of one row."""
    if isinstance(rows, Refusal):

        def test(tmp_path, monkeypatch, capsys):
            _assert_refused(rows, tmp_path, monkeypatch, capsys)

    else:

        @pytest.mark.parametrize("row", rows.values(), ids=list(rows))
        def test(row, tmp_path, monkeypatch, capsys):
            _assert_refused(row, tmp_path, monkeypatch, capsys)

    return staticmethod(test)


# each group is collected as the test its key names, in the module or in
# the class it names first
for _key, _rows in REFUSALS.items():
    _owner, _, _name = _key.rpartition("::")
    _scope = globals()[_owner] if _owner else sys.modules[__name__]
    setattr(_scope, _name, _refusal_test(_rows))


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)}


def test_left_out_fields_take_the_dataclass_defaults():
    sc = {k: v for k, v in _SAMPLED_SCENARIO.items() if k != "s"}
    cfg = parse_config({"scenario": sc})
    mbi = _field_defaults(MbiConfig)
    assert cfg.mbi.epsilon == mbi["epsilon"]
    assert cfg.mbi.max_iterations == mbi["max_iterations"]
    assert cfg.scenario.s == 1  # ScenarioSpec's count for a sampled kind


def test_exact_example1_defaults_to_its_partition():
    cfg = parse_config({"scenario": {"kind": "exact_example1", "seed": 0}})
    assert cfg.scenario.partition == example1_model().partition
    cfg = parse_config({"scenario": {"kind": "exact_example1", "r": [2, 3], "seed": 0}})
    assert cfg.scenario.partition == SensorPartition(m=3, n=(3, 3), r=(2, 3))


# Any JSON value: what json.load can return, NaN and the infinities included.
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def _documents(draw, plausible: dict) -> dict:
    """An object with the keys of ``plausible``. Each key is left out, holds
    any JSON value, or, most often, holds a value drawn from its plausible
    strategy, so that many documents get past the earlier checks to reach
    the later ones."""
    doc = {}
    for key, strategy in plausible.items():
        mode = draw(st.integers(0, 7))
        if mode == 1:
            doc[key] = draw(_json_values)
        elif mode > 1:
            doc[key] = draw(strategy)
    return doc


_small = st.integers(1, 3)
_one_sensor = st.lists(_small, min_size=1, max_size=1)
_paths = st.text(max_size=5)
_config_docs = _documents(
    {
        "scenario": _documents(
            {
                "kind": st.sampled_from(sorted(KIND_FIELDS)),
                "m": _small,
                "n": _one_sensor,
                "r": _one_sensor,
                "s": _small,
                "sigmas": st.lists(
                    st.floats(0, 1) | st.floats(), min_size=1, max_size=1
                ),
                "seed": _small,
                "image_path": _paths,
            }
        ),
        "mbi": _documents({"epsilon": st.floats(), "max_iterations": _small}),
        "outputs": _documents(
            {"trace_csv": _paths, "wsn_json": _paths, "image_out_dir": _paths}
        ),
        "report_baseline": st.booleans(),
    }
)


@settings(max_examples=200, deadline=None)
@given(_config_docs)
def test_parse_config_returns_config_or_parse_error(doc):
    # parse_config only: running an accepted document could allocate a
    # scenario of any size
    try:
        cfg = parse_config(doc)
    except ParseError:
        return
    assert isinstance(cfg, RunConfig)


# Names that the run property places in its temporary directory: an image it
# writes there (3 rows), a file that does not exist and one in a missing
# directory.
_run_paths = st.sampled_from(["", "out", "img.pgm", "absent.pgm", "missing/out"])


@st.composite
def _run_docs(draw) -> dict:
    """A config whose fields mostly agree with each other (p entries in n, r
    and sigmas, r_j <= n_j, often n_j = m, the fields its kind reads), so
    that many examples run, with up to two fields left out or replaced by
    any JSON value. The sweep budget is never replaced, so runs stay short."""
    kind = draw(st.sampled_from(sorted(KIND_FIELDS)))
    p = draw(st.integers(1, 2))
    m = draw(_small | st.integers(4, 20) | st.integers(21, 10**6))
    if draw(st.booleans()):
        n = [m] * p
    else:
        n = draw(st.lists(st.integers(1, 20), min_size=p, max_size=p))
    optional = {
        "s": draw(_small | st.integers(4, 2000) | st.integers(2001, 10**15)),
        "sigmas": draw(
            st.lists(st.floats(0, 1) | st.floats(), min_size=p, max_size=p)
        ),
        "image_path": draw(_run_paths),
    }
    outputs = ["trace_csv", "wsn_json"] + ["image_out_dir"] * (kind == "image")
    doc = {
        "scenario": {
            "kind": kind,
            "m": m,
            "n": n,
            "r": [draw(st.integers(1, min(nj, 8))) for nj in n],
            "seed": draw(_small),
            **{k: v for k, v in optional.items() if k in KIND_FIELDS[kind]},
        },
        "mbi": {"epsilon": draw(st.floats(0, 1))},
        "outputs": {key: draw(_run_paths) for key in outputs},
        "report_baseline": draw(st.booleans()),
    }
    fields = [(doc, key) for key in doc] + [
        (doc[section], key) for section in ("scenario", "mbi", "outputs")
        for key in doc[section]
    ]
    for _ in range(draw(st.integers(0, 2))):
        section, key = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            section.pop(key, None)
        else:
            section[key] = draw(_json_values)
    if isinstance(doc.get("mbi"), dict):
        doc["mbi"]["max_iterations"] = draw(st.integers(1, 20))
    return doc


def _under(root: str, section) -> None:
    # move the paths of a config section into root; "" stays empty, which
    # no file has as its name
    if isinstance(section, dict):
        for key in ("image_path", "trace_csv", "wsn_json", "image_out_dir"):
            if isinstance(section.get(key), str) and section[key]:
                section[key] = os.path.join(root, section[key])


@settings(max_examples=200, deadline=None)
@given(_run_docs())
def test_run_ends_in_a_documented_exit_code(doc):
    # a low size limit keeps every accepted scenario small
    with tempfile.TemporaryDirectory() as root, mock.patch.object(
        scenarios, "MAX_SCENARIO_BYTES", 2**20
    ), warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateTruncationWarning)
        save_pgm(np.random.default_rng(0).random((3, 4)), os.path.join(root, "img.pgm"))
        _under(root, doc.get("scenario"))
        _under(root, doc.get("outputs"))
        path = os.path.join(root, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = ["--config", path]
        assert main(["validate", *argv]) in (EXIT_OK, EXIT_CONFIG)
        code = main(["run", *argv, "--quiet"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO)
