"""Tests for the CLI: config handling, outputs, exit codes, determinism."""

import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kltmbi import (
    DegenerateTruncationWarning,
    NotPsd,
    ParseError,
    analytic_mse,
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
    load_config,
    main,
    parse_config,
    validate,
)
from kltmbi.scenarios import KINDS


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
        # non-finite noise scales, which JSON reads from NaN and Infinity
        {"scenario": dict(_NOISE_SCENARIO, n=[3, 3], r=[1, 1], sigmas=[np.nan, 0.1])},
        {"scenario": dict(_NOISE_SCENARIO, n=[3, 3], r=[1, 1], sigmas=[np.inf, 0.1])},
        # scenarios beyond the size limit, in samples and in moments
        {"scenario": dict(_NOISE_SCENARIO, m=1, n=[1], s=10**15)},
        {"scenario": dict(_NOISE_SCENARIO, kind="pure_noise_obs", m=10**5, s=1)},
        # partitions that do not fit the kind
        {"scenario": dict(_NOISE_SCENARIO, m=2)},
        {
            "scenario": dict(
                _NOISE_SCENARIO, kind="linear_mixing", n=[3, 2], r=[1, 1],
                sigmas=[0.1, 0.1],
            )
        },
        {
            "scenario": dict(_NOISE_SCENARIO, kind="image", n=[4], image_path="x.pgm"),
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
        "seed_negative",
        "sigmas_int_overflow",
        "epsilon_int_overflow",
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
                "kind": st.sampled_from(KINDS),
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
    and sigmas, r_j <= n_j, often n_j = m), so that many examples run, with
    up to two fields left out or replaced by any JSON value."""
    p = draw(st.integers(1, 2))
    m = draw(_small | st.integers(4, 20) | st.integers(21, 10**6))
    if draw(st.booleans()):
        n = [m] * p
    else:
        n = draw(st.lists(st.integers(1, 20), min_size=p, max_size=p))
    doc = {
        "scenario": {
            "kind": draw(st.sampled_from(KINDS)),
            "m": m,
            "n": n,
            "r": [draw(st.integers(1, min(nj, 8))) for nj in n],
            "s": draw(_small | st.integers(4, 2000) | st.integers(2001, 10**15)),
            "sigmas": draw(
                st.lists(st.floats(0, 1) | st.floats(), min_size=p, max_size=p)
            ),
            "seed": draw(_small),
            "image_path": draw(_run_paths),
        },
        "mbi": {"epsilon": draw(st.floats(0, 1))},
        "outputs": {
            key: draw(_run_paths) for key in ("trace_csv", "wsn_json", "image_out_dir")
        },
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
    return doc


def _under(root: str, section) -> None:
    # move the paths of a config section into root; "" stays "no output"
    if isinstance(section, dict):
        for key in ("image_path", "trace_csv", "wsn_json", "image_out_dir"):
            if isinstance(section.get(key), str) and section[key]:
                section[key] = os.path.join(root, section[key])


@settings(max_examples=200, deadline=None)
@given(_run_docs(), st.integers(1, 20))
def test_run_ends_in_a_documented_exit_code(doc, max_iters):
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
        code = main(["run", *argv, "--max-iters", str(max_iters), "--quiet"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO)
