"""Every array argument follows the README's one array rule: a value that is
not a real NumPy array, has the wrong number of dimensions or the wrong
shape or, where finiteness is checked, a NaN, an Inf or a norm that
overflows raises InvalidInput naming the argument. So does a partition,
list of arrays, model, bank, ensemble, network, scenario spec or solver
config of the wrong type."""

import os
import re

import numpy as np
import pytest

from kltmbi import (
    CompressorBank,
    FactorizedWsn,
    InvalidInput,
    MbiConfig,
    SampleEnsemble,
    ScenarioSpec,
    SecondMomentModel,
    SensorPartition,
    analytic_mse,
    compress,
    empirical_mse,
    estimate_moments,
    factorize_wsn,
    generate,
    image_scenario,
    init_bank,
    mbi_solve,
    reconstruct,
    save_pgm,
    save_wsn_json,
)
from kltmbi.linalg import psd_sqrt, svd, truncated

PART = SensorPartition(m=2, n=(2, 1), r=(1, 1))
E_XX, E_XY, E_YY = np.eye(2), np.full((2, 3), 0.1), np.eye(3)
X, Y = np.ones((2, 4)), np.ones((3, 4))
BANK = CompressorBank.zeros(PART)
ENCODERS = (np.ones((1, 2)), np.ones((1, 1)))
DECODERS = (np.ones((2, 1)), np.ones((2, 1)))
WSN = FactorizedWsn(encoders=ENCODERS, decoder_blocks=DECODERS, partition=PART)
U = [np.ones((1, 4)), np.ones((1, 4))]
MODEL = SecondMomentModel(PART, E_XX, E_XY, E_YY)
ENS = SampleEnsemble(x=X, y=Y)
SPEC = ScenarioSpec(kind="pure_noise_obs", partition=PART, s=4)
# read from the working directory, where test_good_non_array_passes puts it
IMAGE_SPEC = ScenarioSpec(
    kind="image",
    partition=SensorPartition(m=2, n=(2,), r=(1,)),
    sigmas=(0.1,),
    image_path="img.pgm",
)


def _swap(seq, j, value):
    """``seq`` as a tuple with item ``j`` replaced by ``value``."""
    return tuple(value if i == j else v for i, v in enumerate(seq))


def _with_entry(good, value):
    bad = good.astype(np.float64)
    bad[0, 0] = value
    return bad


BAD = {
    "list": lambda good: good.tolist(),
    "none": lambda good: None,
    "object": lambda good: good.astype(object),
    "str": lambda good: good.astype(str),
    "complex": lambda good: good.astype(complex),
    "bool": lambda good: good.astype(bool),
    "3d": lambda good: good[..., np.newaxis],
    "rows": lambda good: np.ones((good.shape[0] + 1, *good.shape[1:])),
    "cols": lambda good: np.ones((good.shape[0], good.shape[1] + 1)),
    "nan": lambda good: _with_entry(good, np.nan),
    "inf": lambda good: _with_entry(good, -np.inf),
    "overflow": lambda good: np.full(good.shape, 1e200),
}
TYPE = ("list", "none", "object", "str", "complex", "bool", "3d")
FINITE = ("nan", "inf", "overflow")

# (argument id, the name its error gives, a good value, a call that passes
# the value in its place, the kinds of bad value that must be rejected)
ARGS = [
    (
        "SecondMomentModel.e_xx",
        "e_xx",
        E_XX,
        lambda v: SecondMomentModel(PART, v, E_XY, E_YY),
        TYPE + ("rows", "cols") + FINITE,
    ),
    (
        "SecondMomentModel.e_xy",
        "e_xy",
        E_XY,
        lambda v: SecondMomentModel(PART, E_XX, v, E_YY),
        TYPE + ("rows", "cols") + FINITE,
    ),
    (
        "SecondMomentModel.e_yy",
        "e_yy",
        E_YY,
        lambda v: SecondMomentModel(PART, E_XX, E_XY, v),
        TYPE + ("rows", "cols") + FINITE,
    ),
    (
        "estimate_moments.x",
        "x",
        X,
        lambda v: estimate_moments(SampleEnsemble(x=v, y=Y), PART),
        TYPE + ("rows", "cols"),
    ),
    (
        "estimate_moments.y",
        "y",
        Y,
        lambda v: estimate_moments(SampleEnsemble(x=X, y=v), PART),
        TYPE + ("rows", "cols"),
    ),
    (
        "CompressorBank.blocks[1]",
        "block 1",
        BANK.blocks[1],
        lambda v: CompressorBank(blocks=_swap(BANK.blocks, 1, v), partition=PART),
        TYPE + ("rows", "cols") + FINITE,
    ),
    (
        "CompressorBank.replace",
        "block 0",
        BANK.blocks[0],
        lambda v: BANK.replace(0, v),
        TYPE + ("rows", "cols") + FINITE,
    ),
    ("CompressorBank.apply.y", "y", Y, BANK.apply, TYPE + ("rows",)),
    (
        "FactorizedWsn.encoders[0]",
        "encoder 0",
        ENCODERS[0],
        lambda v: FactorizedWsn(_swap(ENCODERS, 0, v), DECODERS, PART),
        TYPE + ("rows", "cols") + FINITE,
    ),
    (
        "FactorizedWsn.decoder_blocks[1]",
        "decoder block 1",
        DECODERS[1],
        lambda v: FactorizedWsn(ENCODERS, _swap(DECODERS, 1, v), PART),
        TYPE + ("rows", "cols") + FINITE,
    ),
    ("compress.y", "y", Y, lambda v: compress(WSN, v), TYPE + ("rows",)),
    (
        "reconstruct.u[0]",
        "compressed block 0",
        U[0],
        lambda v: reconstruct(WSN, [v, np.ones((1, 4))]),
        TYPE + ("rows",),
    ),
    (
        "reconstruct.u[1]",
        "compressed block 1",
        U[1],
        lambda v: reconstruct(WSN, [np.ones((1, 4)), v]),
        TYPE + ("rows", "cols"),
    ),
    (
        "empirical_mse.x",
        "x",
        X,
        lambda v: empirical_mse(SampleEnsemble(x=v, y=Y), BANK),
        TYPE + ("rows", "cols"),
    ),
    (
        "empirical_mse.y",
        "y",
        Y,
        lambda v: empirical_mse(SampleEnsemble(x=X, y=v), BANK),
        TYPE + ("rows", "cols"),
    ),
    (
        "save_pgm.a",
        "image",
        np.full((2, 3), 0.5),
        lambda v: save_pgm(v, os.devnull),
        TYPE + FINITE,
    ),
    # linalg coerces what the library hands it to float64 first
    ("svd.c", "c", E_XY, svd, ("none", "3d") + FINITE),
    ("truncated.c", "c", E_XY, lambda v: truncated(v, 1), ("none", "3d") + FINITE),
    ("psd_sqrt.c", "c", E_YY, psd_sqrt, ("none", "3d") + FINITE),
]

CASES = [
    pytest.param(name, BAD[kind](good), call, id=f"{arg}-{kind}")
    for arg, name, good, call, kinds in ARGS
    for kind in kinds
]


@pytest.mark.parametrize("arg", ARGS, ids=[a[0] for a in ARGS])
def test_good_value_passes(arg):
    _, _, good, call, _ = arg
    call(good)


@pytest.mark.parametrize("name, value, call", CASES)
def test_bad_value_raises_invalid_input_naming_it(name, value, call):
    with pytest.raises(InvalidInput, match=rf"\b{re.escape(name)}\b"):
        call(value)


NOT_ARRAY = {
    "none": lambda good: None,
    "str": lambda good: "x",
    "generator": lambda good: (v for v in good),
    "blocks": lambda good: good.blocks,
    "dict": lambda good: {"epsilon": 0.0},
}

# (argument id, the name its error gives, a good value, a call that passes
# the value in its place, the kinds of bad value that must be rejected)
OTHER_ARGS = [
    (
        "SecondMomentModel.partition",
        "partition",
        PART,
        lambda v: SecondMomentModel(v, E_XX, E_XY, E_YY),
        ("none", "str"),
    ),
    (
        "estimate_moments.part",
        "partition",
        PART,
        lambda v: estimate_moments(SampleEnsemble(x=X, y=Y), v),
        ("none", "str"),
    ),
    (
        "CompressorBank.partition",
        "partition",
        PART,
        lambda v: CompressorBank(blocks=BANK.blocks, partition=v),
        ("none", "str"),
    ),
    (
        "FactorizedWsn.partition",
        "partition",
        PART,
        lambda v: FactorizedWsn(ENCODERS, DECODERS, v),
        ("none", "str"),
    ),
    (
        "ScenarioSpec.partition",
        "partition",
        PART,
        lambda v: ScenarioSpec(kind="pure_noise_obs", partition=v),
        ("none", "str"),
    ),
    (
        "CompressorBank.blocks",
        "blocks",
        BANK.blocks,
        lambda v: CompressorBank(blocks=v, partition=PART),
        ("none", "generator"),
    ),
    (
        "FactorizedWsn.encoders",
        "encoders",
        ENCODERS,
        lambda v: FactorizedWsn(v, DECODERS, PART),
        ("none", "generator"),
    ),
    (
        "FactorizedWsn.decoder_blocks",
        "decoder_blocks",
        DECODERS,
        lambda v: FactorizedWsn(ENCODERS, v, PART),
        ("none", "generator"),
    ),
    ("reconstruct.u", "u", U, lambda v: reconstruct(WSN, v), ("none", "generator")),
    (
        "mbi_solve.start",
        "start",
        BANK,
        lambda v: mbi_solve(MODEL, v),
        ("none", "blocks"),
    ),
    (
        "mbi_solve.cfg",
        "cfg",
        MbiConfig(max_iterations=1),
        lambda v: mbi_solve(MODEL, BANK, v),
        ("none", "dict"),
    ),
    (
        "mbi_solve.model",
        "model",
        MODEL,
        lambda v: mbi_solve(v, BANK, MbiConfig(max_iterations=1)),
        ("none", "str"),
    ),
    ("init_bank.model", "model", MODEL, init_bank, ("none", "str")),
    (
        "analytic_mse.model",
        "model",
        MODEL,
        lambda v: analytic_mse(v, BANK),
        ("none", "str"),
    ),
    (
        "analytic_mse.bank",
        "bank",
        BANK,
        lambda v: analytic_mse(MODEL, v),
        ("none", "blocks"),
    ),
    ("empirical_mse.ens", "ens", ENS, lambda v: empirical_mse(v, BANK), ("none",)),
    (
        "empirical_mse.bank",
        "bank",
        BANK,
        lambda v: empirical_mse(ENS, v),
        ("none", "blocks"),
    ),
    ("factorize_wsn.bank", "bank", BANK, factorize_wsn, ("none", "blocks")),
    ("compress.wsn", "wsn", WSN, lambda v: compress(v, Y), ("none", "str")),
    ("reconstruct.wsn", "wsn", WSN, lambda v: reconstruct(v, U), ("none", "str")),
    (
        "save_wsn_json.wsn",
        "wsn",
        WSN,
        lambda v: save_wsn_json(v, "wsn.json"),
        ("none", "str"),
    ),
    (
        "estimate_moments.ens",
        "ens",
        ENS,
        lambda v: estimate_moments(v, PART),
        ("none", "str"),
    ),
    ("generate.spec", "spec", SPEC, generate, ("none", "str")),
    ("image_scenario.spec", "spec", IMAGE_SPEC, image_scenario, ("none", "str")),
]


@pytest.mark.parametrize("arg", OTHER_ARGS, ids=[a[0] for a in OTHER_ARGS])
def test_good_non_array_passes(arg, tmp_path, monkeypatch):
    # save_wsn_json writes, and image_scenario reads, in the working directory
    monkeypatch.chdir(tmp_path)
    save_pgm(np.full((2, 4), 0.5), "img.pgm")
    _, _, good, call, _ = arg
    call(good)


@pytest.mark.parametrize(
    "name, make, good, call",
    [
        pytest.param(name, NOT_ARRAY[kind], good, call, id=f"{arg}-{kind}")
        for arg, name, good, call, kinds in OTHER_ARGS
        for kind in kinds
    ],
)
def test_bad_non_array_raises_invalid_input_naming_it(name, make, good, call):
    with pytest.raises(InvalidInput, match=rf"\b{re.escape(name)}\b"):
        call(make(good))


@pytest.mark.parametrize("rows", [1, 3])
def test_image_with_other_than_m_rows_is_rejected(tmp_path, rows):
    path = tmp_path / "img.pgm"
    save_pgm(np.full((rows, 4), 0.5), path)
    spec = ScenarioSpec(
        kind="image",
        partition=SensorPartition(m=2, n=(2,), r=(1,)),
        sigmas=(0.1,),
        image_path=str(path),
    )
    with pytest.raises(InvalidInput, match=f"image has {rows} rows"):
        image_scenario(spec)
