"""Tests for the CLI: config handling, outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from kltmbi import NotPsd, ParseError, analytic_mse, init_bank, save_pgm
from kltmbi.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    load_config,
    main,
    validate,
)


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
                "scenario": {
                    "kind": "additive_noise",
                    "m": 4,
                    "n": [4, 4],
                    "r": [2, 2],
                    "s": 10,
                    "sigmas": [0.1, 0.2],
                    "seed": 7,
                },
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

    def test_infinite_epsilon_single_row(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "scenario": {"kind": "exact_example1", "seed": 0},
                "mbi": {"epsilon": "inf"},
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

    def test_seed_override_changes_sampled_run(self, tmp_path):
        doc = {
            "scenario": {
                "kind": "pure_noise_obs",
                "m": 3,
                "n": [3, 3],
                "r": [1, 1],
                "s": 6,
                "sigmas": [0.0, 0.0],
                "seed": 1,
            },
            "mbi": {"max_iterations": 10},
            "outputs": {"trace_csv": str(tmp_path / "t.csv")},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        a = (tmp_path / "t.csv").read_bytes()
        assert main(["run", "--config", cfg, "--quiet", "--seed", "2"]) == EXIT_OK
        assert (tmp_path / "t.csv").read_bytes() != a

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
                    "s": 4,
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
                    "sigmas": [0.1],
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

        def boom(_):
            raise NotPsd("forced")

        monkeypatch.setattr(cli_mod, "reduce_problem", boom)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_NUMERICAL


_NOISE_SCENARIO = {
    "kind": "additive_noise",
    "m": 3,
    "n": [3],
    "r": [1],
    "s": 4,
    "sigmas": [0.1],
    "seed": 0,
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
        {"scenario": dict(_NOISE_SCENARIO, seed=-1)},
        # integer literals beyond the float range
        {"scenario": dict(_NOISE_SCENARIO, sigmas=[10**400])},
        {"scenario": _NOISE_SCENARIO, "mbi": {"epsilon": 10**400}},
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
        "seed_negative",
        "sigmas_int_overflow",
        "epsilon_int_overflow",
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
                    "s": 2,
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
                    "s": 2,
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


def test_load_config_overrides(tmp_path):
    cfg_path = _example1_config(tmp_path)
    cfg = load_config(cfg_path, seed=42, epsilon=0.5, max_iters=7)
    assert cfg.scenario.seed == 42
    assert cfg.mbi.epsilon == 0.5
    assert cfg.mbi.max_iterations == 7
