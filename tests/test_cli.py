"""Tests for the CLI: config handling, outputs, exit codes, determinism."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kltmbi
from kltmbi import (
    DegenerateTruncationWarning,
    InvalidInput,
    MbiConfig,
    NotPsd,
    ParseError,
    ScenarioSpec,
    SensorPartition,
    analytic_mse,
    empirical_mse,
    example1_model,
    init_bank,
    save_pgm,
)
from kltmbi import scenarios
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


# additive noise, s = 10 > N = 8
_SAMPLED_SCENARIO = {
    "kind": "additive_noise",
    "m": 4,
    "n": [4, 4],
    "r": [2, 2],
    "s": 10,
    "sigmas": [0.1, 0.2],
    "seed": 7,
}
# s = 3 < N = 12: the warm start already fits exactly, and the one block a
# sweep solves truncates a residual that is all round-off
_EXACT_FIT_SCENARIO = {
    "kind": "additive_noise",
    "m": 4,
    "n": [4, 4, 4],
    "r": [2, 1, 2],
    "s": 3,
    "sigmas": [0.3, 0.3, 0.3],
    "seed": 2,
}
# s = 10 < N = 32 with full ranks: the solve drives the objective to
# round-off, where the Wiener MSE and the objective nearly cancel
_NEAR_EXACT_SCENARIO = {
    "kind": "linear_mixing",
    "m": 8,
    "n": [8] * 4,
    "r": [8] * 4,
    "s": 10,
    "sigmas": [0.3] * 4,
    "seed": 1,
}
_MIXING_SCENARIO = {
    "kind": "linear_mixing",
    "m": 5,
    "n": [5, 5],
    "r": [2, 3],
    "s": 12,
    "sigmas": [0.1, 0.3],
    "seed": 90,
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
        import kltmbi.cli as cli_mod

        starts = []

        def counting_init_bank(model):
            starts.append((model, init_bank(model)))
            return starts[-1][1]

        monkeypatch.setattr(cli_mod, "init_bank", counting_init_bank)
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
        src = str(pathlib.Path(kltmbi.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from kltmbi.cli import main; sys.exit(main())",
                "run",
                "--config",
                cfg,
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
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
            (
                {"kind": "exact_example1", "r": [1, 1], "seed": 0},
                {"epsilon": 1e-10, "max_iterations": 2000},
            ),
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
        import kltmbi.cli as cli_mod

        calls = {}  # name -> (arguments, result) of the run's call
        for name in ("estimate_moments", "mbi_solve"):
            def spy(*args, _fn=getattr(cli_mod, name), _name=name):
                calls[_name] = (args, _fn(*args))
                return calls[_name][1]

            monkeypatch.setattr(cli_mod, name, spy)
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
        import kltmbi.cli as cli_mod
        from kltmbi import wsn

        m, p, s = 8, 4, 50_000
        running = cli_mod._running_empirical_mse
        peaks = []

        def measured(ens, trace):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = running(ens, trace)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(cli_mod, "_running_empirical_mse", measured)
        cfg = _write_config(
            tmp_path,
            {
                "scenario": {
                    "kind": "additive_noise",
                    "m": m,
                    "n": [m] * p,
                    "r": [2] * p,
                    "s": s,
                    "sigmas": [0.3] * p,
                    "seed": 1,
                },
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
        scenario = {
            "kind": "pure_noise_obs",
            "m": 3,
            "n": [3, 3],
            "r": [1, 1],
            "s": 6,
            "seed": 1,
        }
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


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_bad_partition(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "scenario": {
                    "kind": "pure_noise_obs",
                    "m": 2,
                    "n": [2],
                    "r": [5],
                    "s": 2,
                    "seed": 0,
                }
            },
        )
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    def test_io_failure(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "scenario": {"kind": "exact_example1", "seed": 0},
                "mbi": {"max_iterations": 5},
                "outputs": {"trace_csv": str(tmp_path / "missing_dir" / "t.csv")},
            },
        )
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_IO
        assert not (tmp_path / "missing_dir").exists()  # no partial output

    def test_numerical_failure(self, tmp_path, monkeypatch):
        cfg = _example1_config(tmp_path)
        import kltmbi.cli as cli_mod

        def boom(*_):
            raise NotPsd("forced")

        monkeypatch.setattr(cli_mod, "mbi_solve", boom)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_NUMERICAL


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("config", ["directory", "not_utf8", "too_deep"])
def test_unreadable_config_is_config_error(tmp_path, command, config):
    # run in a child process so that an uncaught error shows as a traceback
    path = tmp_path / "config.json"
    if config == "directory":
        path.mkdir()
    elif config == "not_utf8":
        path.write_bytes('{"scenario": {"kind": "caf\xe9"}}'.encode("latin-1"))
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    src = str(pathlib.Path(kltmbi.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from kltmbi.cli import main; sys.exit(main())",
            command,
            "--config",
            str(path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    if command == "validate":
        assert proc.stdout.startswith("invalid: ")


_NOISE_SCENARIO = {
    "kind": "additive_noise",
    "m": 3,
    "n": [3],
    "r": [1],
    "s": 4,
    "sigmas": [0.1],
    "seed": 0,
}
# the same partition for the kinds that read other fields
_PURE_NOISE_SCENARIO = {
    "kind": "pure_noise_obs", "m": 3, "n": [3], "r": [1], "s": 4, "seed": 0
}
_IMAGE_SCENARIO = {
    "kind": "image", "m": 3, "n": [3], "r": [1], "sigmas": [0.1], "seed": 0,
    "image_path": "x.pgm",
}


@pytest.mark.parametrize(
    "doc",
    [
        {
            "scenario": {"kind": "exact_example1", "seed": 0},
            "mbi": {"max_iterations": "x"},
        },
        {
            "scenario": {"kind": "exact_example1", "seed": 0},
            "mbi": {"max_iterations": 1.5e400},
        },
        {"scenario": dict(_NOISE_SCENARIO, n=3)},
        {"scenario": {"kind": "exact_example1", "m": "abc", "seed": 0}},
        # wrong types that used to be coerced into a different config
        {"scenario": dict(_NOISE_SCENARIO, n="33", r=[1, 1], sigmas=[0.1, 0.1])},
        {"scenario": dict(_NOISE_SCENARIO, m=3.7)},
        {"scenario": dict(_NOISE_SCENARIO, s=4.9)},
        {"scenario": dict(_NOISE_SCENARIO, r=[1.0])},
        {"scenario": dict(_NOISE_SCENARIO, seed="0")},
        {"scenario": dict(_NOISE_SCENARIO, sigmas=["0.1"])},
        {"scenario": _NOISE_SCENARIO, "mbi": {"max_iterations": True}},
        {"scenario": _NOISE_SCENARIO, "mbi": {"max_iterations": 2.9}},
        {"scenario": _NOISE_SCENARIO, "report_baseline": "false"},
        {"scenario": _NOISE_SCENARIO, "outputs": {"trace_csv": 1}},
        {"scenario": _NOISE_SCENARIO, "outputs": {"trace_csv": ""}},
        {"scenario": _NOISE_SCENARIO, "outputs": {"wsn_json": ""}},
        # null is no path; an output left out is not written
        {"scenario": _NOISE_SCENARIO, "outputs": {"trace_csv": None}},
        {"scenario": _NOISE_SCENARIO, "outputs": {"wsn_json": None}},
        {"scenario": _IMAGE_SCENARIO, "outputs": {"image_out_dir": None}},
        {"scenario": _IMAGE_SCENARIO, "outputs": {"trace_csv": "t.csv"}},
        # a NUL character, which no file name holds, and a lone surrogate,
        # which the file-system encoding cannot encode
        {"scenario": _NOISE_SCENARIO, "outputs": {"trace_csv": "t\0.csv"}},
        {"scenario": _NOISE_SCENARIO, "outputs": {"wsn_json": "t\ud800.json"}},
        {
            "scenario": dict(_IMAGE_SCENARIO, image_path="x\0.pgm"),
            "outputs": {"image_out_dir": "out"},
        },
        {"scenario": dict(_NOISE_SCENARIO, seed=-1)},
        # integer literals beyond the float range
        {"scenario": dict(_NOISE_SCENARIO, sigmas=[10**400])},
        {"scenario": _NOISE_SCENARIO, "mbi": {"epsilon": 10**400}},
        # epsilon is a JSON number; json.load reads Infinity as one
        {"scenario": _NOISE_SCENARIO, "mbi": {"epsilon": "0.5"}},
        {"scenario": _NOISE_SCENARIO, "mbi": {"epsilon": "inf"}},
        # non-finite noise scales, which JSON reads from NaN and Infinity
        {"scenario": dict(_NOISE_SCENARIO, n=[3, 3], r=[1, 1], sigmas=[np.nan, 0.1])},
        {"scenario": dict(_NOISE_SCENARIO, n=[3, 3], r=[1, 1], sigmas=[np.inf, 0.1])},
        # scenarios beyond the size limit, in samples and in moments
        {"scenario": dict(_NOISE_SCENARIO, m=1, n=[1], s=10**15)},
        {"scenario": {**_PURE_NOISE_SCENARIO, "m": 10**5, "s": 1}},
        # partitions that do not fit the kind
        {"scenario": dict(_NOISE_SCENARIO, m=2)},
        {
            "scenario": dict(
                _NOISE_SCENARIO, kind="linear_mixing", n=[3, 2], r=[1, 1],
                sigmas=[0.1, 0.1],
            )
        },
        {
            "scenario": {**_IMAGE_SCENARIO, "n": [4]},
            "outputs": {"image_out_dir": "out"},
        },
        {"scenario": {"kind": "exact_example1", "m": 4, "n": [4, 4], "seed": 0}},
        {"scenario": {"kind": "exact_example1", "n": [3, 2], "seed": 0}},
    ],
    ids=[
        "max_iterations_str",
        "max_iterations_overflow",
        "n_not_list",
        "m_not_int",
        "n_str",
        "m_float",
        "s_float",
        "r_float_entry",
        "seed_str",
        "sigmas_str_entry",
        "max_iterations_bool",
        "max_iterations_float",
        "report_baseline_str",
        "output_path_not_str",
        "trace_csv_empty",
        "wsn_json_empty",
        "trace_csv_null",
        "wsn_json_null",
        "image_out_dir_null",
        "image_out_dir_missing",
        "output_path_nul",
        "output_path_surrogate",
        "image_path_nul",
        "seed_negative",
        "sigmas_int_overflow",
        "epsilon_int_overflow",
        "epsilon_str",
        "epsilon_str_inf",
        "sigmas_nan",
        "sigmas_inf",
        "s_too_large",
        "moments_too_large",
        "additive_noise_n_not_m",
        "linear_mixing_n_not_m",
        "image_n_not_m",
        "exact_example1_m",
        "exact_example1_n",
    ],
)
def test_malformed_field_is_config_error(tmp_path, capsys, doc):
    # 1.5e400 overflows to inf; json.dumps writes it as Infinity, which
    # json.load reads back as inf, just as it reads the literal 1.5e400
    cfg = _write_config(tmp_path, doc)
    with pytest.raises(ParseError):
        load_config(cfg)
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert "invalid" in capsys.readouterr().out
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


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

    def test_rank_bound_rejected(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "scenario": {
                    "kind": "additive_noise",
                    "m": 2,
                    "n": [2, 2],
                    "r": [3, 1],
                    "s": 2,
                    "sigmas": [0.1, 0.1],
                    "seed": 0,
                }
            },
        )
        ok, report = validate(cfg)
        assert not ok
        assert any("r[0]" in line for line in report)
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG

    def test_missing_image_path(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "scenario": {
                    "kind": "image",
                    "m": 4,
                    "n": [4],
                    "r": [2],
                    "sigmas": [0.1],
                    "seed": 0,
                },
                "outputs": {"image_out_dir": str(tmp_path)},
            },
        )
        ok, _ = validate(cfg)
        assert not ok

    def test_image_file_must_exist(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "scenario": {
                    "kind": "image",
                    "m": 4,
                    "n": [4],
                    "r": [2],
                    "sigmas": [0.1],
                    "seed": 0,
                    "image_path": str(tmp_path / "absent.pgm"),
                },
                "outputs": {"image_out_dir": str(tmp_path)},
            },
        )
        ok, report = validate(cfg)
        assert not ok
        assert any("image file not found" in line for line in report)

    @staticmethod
    def _image_config(tmp_path, image, outputs=None):
        return _write_config(
            tmp_path,
            {
                "scenario": {
                    "kind": "image",
                    "m": 5,
                    "n": [5],
                    "r": [2],
                    "sigmas": [0.1],
                    "seed": 0,
                    "image_path": str(image),
                },
                "outputs": outputs or {"image_out_dir": str(tmp_path / "out")},
            },
        )

    @pytest.mark.parametrize(
        "contents",
        [
            np.zeros((6, 4)),  # 6 rows where m = 5
            np.zeros((5, 1)),
            b"P7\n4 5\n255\n" + bytes(20),
        ],
        ids=["rows_not_m", "one_column", "p7_magic"],
    )
    def test_image_checked_as_run_checks_it(self, tmp_path, contents):
        image = tmp_path / "src.pgm"
        if isinstance(contents, bytes):
            image.write_bytes(contents)
        else:
            save_pgm(contents, image)
        cfg = self._image_config(tmp_path, image)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
        ok, report = validate(cfg)
        assert not ok
        assert report[-1].startswith(f"invalid: image {image}: ")
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("field", ["trace_csv", "wsn_json", "image_out_dir"])
    def test_output_path_run_cannot_write(self, tmp_path, field):
        taken = tmp_path / "taken"
        if field == "image_out_dir":
            taken.write_text("")
        else:
            taken.mkdir()
        image = tmp_path / "src.pgm"
        save_pgm(np.random.default_rng(0).random((5, 6)), image)
        outputs = {"image_out_dir": str(tmp_path / "out"), field: str(taken)}
        cfg = self._image_config(tmp_path, image, outputs)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_IO
        ok, report = validate(cfg)
        assert not ok
        # below an image_out_dir that is a file, run cannot write its images
        label = "error_map.pgm" if field == "image_out_dir" else field
        assert report[-1].startswith(f"invalid: {label} ")
        assert report[-1].endswith(str(taken))
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG

    def test_empty_image_out_dir(self, tmp_path):
        image = tmp_path / "src.pgm"
        save_pgm(np.random.default_rng(0).random((5, 6)), image)
        cfg = self._image_config(tmp_path, image, {"image_out_dir": ""})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG

    def test_image_out_dir_below_missing_directories(self, tmp_path):
        # run creates the missing directories, so validate accepts them
        image = tmp_path / "src.pgm"
        save_pgm(np.random.default_rng(0).random((5, 6)), image)
        out = tmp_path / "new" / "deeper" / "out"
        cfg = self._image_config(tmp_path, image, {"image_out_dir": str(out)})
        ok, report = validate(cfg)
        assert ok, report
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert (out / "reconstruction.pgm").is_file()

    def test_image_out_dir_below_a_file(self, tmp_path):
        image = tmp_path / "src.pgm"
        save_pgm(np.random.default_rng(0).random((5, 6)), image)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "new" / "out"
        cfg = self._image_config(tmp_path, image, {"image_out_dir": str(out)})
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_IO
        ok, report = validate(cfg)
        assert not ok
        assert report[-1] == (
            f"invalid: error_map.pgm directory not writable: {tmp_path / 'file'}"
        )

    def test_unwritable_output_dir(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "scenario": {"kind": "exact_example1", "seed": 0},
                "outputs": {"trace_csv": str(tmp_path / "no_dir" / "t.csv")},
            },
        )
        ok, report = validate(cfg)
        assert not ok
        assert any("not writable" in line for line in report)


@pytest.mark.parametrize(
    "doc, key",
    [
        (
            {"scenario": {"kind": "exact_example1", "seed": 0}, "outptus": {}},
            "outptus",
        ),
        ({"scenario": dict(_SAMPLED_SCENARIO, sigma=[0.1, 0.2])}, "sigma"),
        (
            {
                "scenario": {"kind": "exact_example1", "seed": 0},
                "mbi": {"max_iteration": 3},
            },
            "max_iteration",
        ),
        (
            {
                "scenario": {"kind": "exact_example1", "seed": 0},
                "outputs": {"trace": "t.csv"},
            },
            "trace",
        ),
    ],
    ids=["top_level", "scenario", "mbi", "outputs"],
)
def test_unknown_key_is_config_error(tmp_path, capsys, doc, key):
    cfg = _write_config(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert f"unknown keys: {key!r}" in capsys.readouterr().out
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert f"unknown keys: {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, field",
    [
        ("exact_example1", "s"),
        ("exact_example1", "sigmas"),
        ("exact_example1", "image_path"),
        ("additive_noise", "image_path"),
        ("linear_mixing", "image_path"),
        ("pure_noise_obs", "sigmas"),
        ("pure_noise_obs", "image_path"),
        ("image", "s"),
        ("exact_example1", "image_out_dir"),
        ("additive_noise", "image_out_dir"),
        ("linear_mixing", "image_out_dir"),
        ("pure_noise_obs", "image_out_dir"),
    ],
)
def test_field_the_kind_does_not_read_is_config_error(tmp_path, capsys, kind, field):
    # each kind owns the fields it reads; a field it would ignore is an
    # error, not a value that silently has no effect on the run
    image = tmp_path / "src.pgm"
    save_pgm(np.random.default_rng(0).random((3, 4)), image)
    scenario = {
        "exact_example1": {"kind": "exact_example1", "seed": 0},
        "additive_noise": _NOISE_SCENARIO,
        "linear_mixing": dict(_NOISE_SCENARIO, kind="linear_mixing"),
        "pure_noise_obs": _PURE_NOISE_SCENARIO,
        "image": dict(_IMAGE_SCENARIO, image_path=str(image)),
    }[kind]
    outputs = {"image_out_dir": str(tmp_path / "out")} if kind == "image" else {}
    base = _write_config(
        tmp_path, {"scenario": scenario, "outputs": outputs}, "base.json"
    )
    assert main(["validate", "--config", base]) == EXIT_OK
    capsys.readouterr()

    p = 2 if kind == "exact_example1" else 1
    value = {
        "s": 5,
        "sigmas": [5.0] * p,
        "image_path": str(image),
        "image_out_dir": str(tmp_path / "out"),
    }[field]
    if field == "image_out_dir":
        outputs = {field: value}
    else:
        scenario = dict(scenario, **{field: value})
        spec = {k: v for k, v in scenario.items() if k not in ("m", "n", "r")}
        ex1 = {"m": 3, "n": [3, 3], "r": [1, 1]}  # exact_example1's partition
        part = SensorPartition(**{k: scenario.get(k, ex1[k]) for k in ex1})
        with pytest.raises(InvalidInput, match=f"{kind!r} does not read {field}"):
            ScenarioSpec(partition=part, **spec)
    cfg = _write_config(tmp_path, {"scenario": scenario, "outputs": outputs})
    message = f"unknown keys: {field!r} for kind {kind!r}"
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().out
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alias", ["dot", "symlink"])
def test_outputs_naming_one_file_are_config_error(tmp_path, monkeypatch, capsys, alias):
    # the network JSON would overwrite the trace CSV
    monkeypatch.chdir(tmp_path)
    if alias == "symlink":
        (tmp_path / "link.txt").symlink_to(tmp_path / "out.txt")
    wsn_json = {"dot": "./out.txt", "symlink": str(tmp_path / "link.txt")}[alias]
    cfg = _write_config(
        tmp_path,
        {
            "scenario": {"kind": "exact_example1", "seed": 0},
            "outputs": {"trace_csv": "out.txt", "wsn_json": wsn_json},
        },
    )
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert "one file" in capsys.readouterr().out
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert "one file" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize(
    "label, path",
    [("trace_csv", "cfg.json"), ("wsn_json", "./cfg.json"), ("trace_csv", "link.json")],
    ids=["trace_csv", "wsn_json", "symlink"],
)
def test_output_naming_the_config_is_config_error(
    tmp_path, monkeypatch, capsys, label, path
):
    # the output would overwrite the config the run was read from
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.json").symlink_to(tmp_path / "cfg.json")
    scenario = {"kind": "exact_example1", "seed": 0}
    doc = {"scenario": scenario, "outputs": {label: path}}
    cfg = _write_config(tmp_path, doc, name="cfg.json")
    text = (tmp_path / "cfg.json").read_bytes()
    message = f"config and {label} are one file: {path}"
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().out
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert (tmp_path / "cfg.json").read_bytes() == text
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "link.json"]


@pytest.mark.parametrize(
    "outputs, shared",
    [
        ({"wsn_json": "src.pgm", "image_out_dir": "out"}, "src.pgm"),
        (
            {"trace_csv": "out/reconstruction.pgm", "image_out_dir": "out"},
            "out/reconstruction.pgm",
        ),
    ],
    ids=["wsn_json_is_image_path", "trace_csv_is_an_image_output"],
)
def test_outputs_naming_the_image_or_an_image_are_config_error(
    tmp_path, monkeypatch, capsys, outputs, shared
):
    # the network JSON would overwrite the source image, or the trace CSV
    # would be overwritten by the reconstruction
    monkeypatch.chdir(tmp_path)
    save_pgm(np.random.default_rng(0).random((5, 6)), tmp_path / "src.pgm")
    source = (tmp_path / "src.pgm").read_bytes()
    scenario = dict(_IMAGE_SCENARIO, m=5, n=[5], image_path="src.pgm")
    cfg = _write_config(tmp_path, {"scenario": scenario, "outputs": outputs})
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert f"are one file: {shared}" in capsys.readouterr().out
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert f"are one file: {shared}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json", "src.pgm"]
    assert (tmp_path / "src.pgm").read_bytes() == source


def test_outputs_get_ordinary_file_modes(tmp_path):
    image = tmp_path / "src.pgm"
    save_pgm(np.random.default_rng(0).random((5, 6)), image)
    out = tmp_path / "out"
    outputs = {
        "trace_csv": str(tmp_path / "t.csv"),
        "wsn_json": str(tmp_path / "w.json"),
        "image_out_dir": str(out),
    }
    scenario = dict(_IMAGE_SCENARIO, m=5, n=[5], image_path=str(image))
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


def test_run_checks_its_outputs_before_it_starts(tmp_path, monkeypatch, capsys):
    (tmp_path / "net").mkdir()
    cfg = _write_config(
        tmp_path,
        {
            "scenario": {"kind": "exact_example1", "seed": 0},
            "outputs": {
                "trace_csv": str(tmp_path / "t.csv"),
                "wsn_json": str(tmp_path / "net"),
            },
        },
    )
    import kltmbi.cli as cli_mod

    def no_work(*args):
        raise AssertionError("run started work on a config it cannot write")

    monkeypatch.setattr(cli_mod, "example1_model", no_work)
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_IO
    assert f"wsn_json is a directory: {tmp_path / 'net'}" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("image", ["missing", "directory"])
def test_unreadable_image_is_config_error(tmp_path, capsys, image):
    path = tmp_path / "src.pgm"
    if image == "directory":
        path.mkdir()
    scenario = dict(_IMAGE_SCENARIO, m=5, n=[5], image_path=str(path))
    outputs = {"image_out_dir": str(tmp_path / "out")}
    cfg = _write_config(tmp_path, {"scenario": scenario, "outputs": outputs})
    message = {"missing": "image file not found", "directory": "cannot be read"}
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert message[image] in capsys.readouterr().out
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert message[image] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
