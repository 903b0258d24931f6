"""Every array argument follows the README's one array rule: a value that is
not a real NumPy array, has the wrong number of dimensions or the wrong
shape or, where finiteness is checked, a NaN, an Inf or a norm that
overflows raises InvalidInput naming the argument, in the message its kind
of value gets. A partition, list of arrays, model, bank, ensemble, network,
scenario spec or solver config of the wrong type raises it naming the
argument too. Models and banks hold read-only float64 arrays of their own,
in copies and pickles too, that neither they nor their views can be made
writeable again."""

import copy
import dataclasses
import os
import pickle
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
    example1_model,
    factorize_wsn,
    generate,
    image_scenario,
    init_bank,
    load_pgm,
    load_wsn_json,
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
SQUARE = SensorPartition(m=2, n=(2, 2), r=(1, 1))
# read from the working directory, where test_good_non_array_passes puts it
IMAGE_SPEC = ScenarioSpec(
    kind="image",
    partition=SensorPartition(m=2, n=(2,), r=(1,)),
    sigmas=(0.1,),
    image_path="img.pgm",
)


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    # the calls below that write, write in the working directory
    monkeypatch.chdir(tmp_path)


def _load_wsn_json(path):
    """``load_wsn_json(path)``; an int is replaced by an open descriptor,
    which the call must leave open."""
    if not isinstance(path, int):
        return load_wsn_json(path)
    read, write = os.pipe()
    os.close(write)
    try:
        return load_wsn_json(read)
    finally:
        os.close(read)  # raises OSError if the call closed it


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
    "1d": lambda good: good[0],
    "3d": lambda good: good[..., np.newaxis],
    "rows": lambda good: np.ones((good.shape[0] + 1, *good.shape[1:])),
    "cols": lambda good: np.ones((good.shape[0], good.shape[1] + 1)),
    "nan": lambda good: _with_entry(good, np.nan),
    "inf": lambda good: _with_entry(good, -np.inf),
    "overflow": lambda good: np.full(good.shape, 1e200),
}
TYPE = ("list", "none", "object", "str", "complex", "bool", "3d")
FINITE = ("nan", "inf", "overflow")
# The message each kind of bad value gets, a pattern in which {name} stands
# for the name its error gives and {rows}, {cols} for the bad value's shape.
# A bad count of columns in a sample ensemble's x or y is a count the other
# does not have.
MESSAGE = {
    **dict.fromkeys(TYPE, "{name} must be"),
    "1d": "{name} must be 2-d",
    "rows": "{name} has {rows} rows",
    "cols": r"{name} (must be|has {cols}\b)",
    **dict.fromkeys(FINITE, "{name} or its norm is not finite"),
}

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
        lambda v: save_pgm(v, "out.pgm"),
        TYPE + FINITE,
    ),
    # linalg coerces what the library hands it to float64 first
    ("svd.c", "c", E_XY, svd, ("none", "1d", "3d") + FINITE),
    ("truncated.c", "c", E_XY, lambda v: truncated(v, 1), ("none", "3d") + FINITE),
    ("psd_sqrt.c", "c", E_YY, psd_sqrt, ("none", "3d") + FINITE),
]


def _case(arg, name, good, call, kind):
    """The case of ``call`` given a bad value of ``kind`` in place of
    ``good``, with the message pattern MESSAGE gives it."""
    bad = BAD[kind](good)
    rows, cols = (*np.shape(bad), None, None)[:2]
    message = MESSAGE[kind].format(name=re.escape(name), rows=rows, cols=cols)
    return pytest.param(message, bad, call, id=f"{arg}-{kind}")


CASES = [_case(*arg[:4], kind) for arg in ARGS for kind in arg[4]]


@pytest.mark.parametrize("arg", ARGS, ids=[a[0] for a in ARGS])
def test_good_value_passes(arg):
    _, _, good, call, _ = arg
    call(good)


@pytest.mark.parametrize("message, value, call", CASES)
def test_bad_value_raises_invalid_input_naming_it(message, value, call):
    with pytest.raises(InvalidInput, match=rf"\b{message}"):
        call(value)


NOT_ARRAY = {
    "none": lambda good: None,
    "str": lambda good: "x",
    "generator": lambda good: (v for v in good),
    "blocks": lambda good: good.blocks,
    "dict": lambda good: {"epsilon": 0.0},
    "int": lambda good: 3,
    "real": lambda good: 0.1,
    # strings that name no file: one holds a NUL, one a lone surrogate that
    # the file-system encoding cannot encode
    "nul": lambda good: "a\0b.pgm",
    "surrogate": lambda good: "\ud800.pgm",
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
    (
        "SensorPartition.n",
        "n",
        PART.n,
        lambda v: SensorPartition(m=2, n=v, r=PART.r),
        ("none", "int", "generator"),
    ),
    (
        "SensorPartition.r",
        "r",
        PART.r,
        lambda v: SensorPartition(m=2, n=PART.n, r=v),
        ("none", "int", "generator"),
    ),
    ("example1_model.r", "r", (1, 1), example1_model, ("none", "int")),
    (
        "ScenarioSpec.sigmas",
        "sigmas",
        (0.1, 0.1),
        lambda v: ScenarioSpec(kind="additive_noise", partition=SQUARE, sigmas=v),
        ("real", "generator"),
    ),
    (
        "ScenarioSpec.image_path",
        "image_path",
        "img.pgm",
        lambda v: ScenarioSpec(
            kind="image", partition=SQUARE, sigmas=(0.1, 0.1), image_path=v
        ),
        ("int", "nul", "surrogate"),
    ),
    ("load_pgm.path", "path", "img.pgm", load_pgm, ("int", "nul", "surrogate")),
    (
        "save_pgm.path",
        "path",
        "out.pgm",
        lambda v: save_pgm(np.full((2, 3), 0.5), v),
        ("int", "nul", "surrogate"),
    ),
    (
        "load_wsn_json.path",
        "path",
        "wsn.json",
        _load_wsn_json,
        ("int", "nul", "surrogate"),
    ),
    (
        "save_wsn_json.path",
        "path",
        "wsn.json",
        lambda v: save_wsn_json(WSN, v),
        ("int", "nul", "surrogate"),
    ),
    ("CompressorBank.zeros", "partition", PART, CompressorBank.zeros, ("none", "str")),
    ("generate.spec", "spec", SPEC, generate, ("none", "str")),
    ("image_scenario.spec", "spec", IMAGE_SPEC, image_scenario, ("none", "str")),
]


@pytest.mark.parametrize("arg", OTHER_ARGS, ids=[a[0] for a in OTHER_ARGS])
def test_good_non_array_passes(arg):
    # the files the readers read
    save_pgm(np.full((2, 4), 0.5), "img.pgm")
    save_wsn_json(WSN, "wsn.json")
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


def _held(obj) -> list:
    """The arrays a model or a bank holds."""
    if isinstance(obj, SecondMomentModel):
        return [obj.e_xx, obj.e_xy, obj.e_yy]
    return list(obj.blocks)


def _holders() -> dict:
    model = example1_model()
    cfg = MbiConfig(epsilon=0.0, max_iterations=3)
    solved, trace = mbi_solve(model, init_bank(model), cfg)
    return {
        "model": model,
        "estimated": estimate_moments(ENS, PART),
        "replaced_model": dataclasses.replace(MODEL, e_yy=2 * E_YY),
        "bank": CompressorBank((np.ones((2, 2)), np.arange(2).reshape(2, 1)), PART),
        "zeros": BANK,
        "init_bank": init_bank(model),
        "solved": solved,
        "traced": trace.banks[1],
        "replaced_bank": BANK.replace(1, np.ones((2, 1))),
    }


DUPLICATES = {
    "itself": lambda obj: obj,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("duplicate", DUPLICATES)
@pytest.mark.parametrize("holder", _holders())
def test_models_and_banks_hold_read_only_float64_arrays(holder, duplicate):
    # nor can a held array, or a view of it, be made writeable again
    obj = DUPLICATES[duplicate](_holders()[holder])
    for a in _held(obj):
        assert a.dtype == np.float64 and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] += 1.0
        for view in (a, a.view()):
            with pytest.raises(ValueError, match="WRITEABLE"):
                view.flags.writeable = True


def _own_copy(held, given) -> bool:
    """Whether the array ``held`` is one float64 copy of ``given``, over a
    ``bytes`` object of its own size."""
    base = held.base
    return (
        held is not given
        and isinstance(base, bytes)
        and len(base) == held.nbytes
        and not np.shares_memory(held, given)
        and np.array_equal(held, given)
    )


def test_models_and_banks_hold_arrays_of_their_own():
    # a write through the caller's array does not reach the model or the
    # bank; an array another model or bank holds is kept as it is, and any
    # other, one read-only that owns its data included, is copied once
    e_xx = np.eye(2)
    view = e_xx.view()
    view.flags.writeable = False
    block = np.ones((2, 2))
    model = SecondMomentModel(PART, view, E_XY, E_YY)
    bank = CompressorBank((block, np.ones((2, 1))), PART)
    e_xx[0, 0] = block[0, 0] = 5.0
    assert model.e_xx[0, 0] == bank.blocks[0][0, 0] == 1.0
    again = SecondMomentModel(PART, *_held(model))
    assert all(a is b for a, b in zip(_held(again), _held(model)))
    assert all(a is b for a, b in zip(_held(copy.copy(bank)), _held(bank)))
    # a model's moment as a block, and a block as a moment
    other = CompressorBank((model.e_xx, bank.blocks[1]), PART)
    assert other.blocks[0] is model.e_xx and other.blocks[1] is bank.blocks[1]
    assert SecondMomentModel(PART, bank.blocks[0], E_XY, E_YY).e_xx is bank.blocks[0]
    assert bank.replace(0, other.blocks[0]).blocks[0] is model.e_xx
    owner = np.eye(2)
    owner.flags.writeable = False
    for given in (
        owner,
        np.eye(2, dtype=np.int64),
        model.e_xx.view(),
        model.e_xx.T,
        model.e_xx.view(np.int64).view(np.float64),
        np.eye(4)[::2, ::2],
        np.asfortranarray(np.eye(2) + np.tri(2)),
        np.asfortranarray(np.ones((2, 4)))[:, ::2],
    ):
        held = SecondMomentModel(PART, given, E_XY, E_YY).e_xx
        for a in (held, bank.replace(0, given).blocks[0]):
            assert _own_copy(a, given)
            # in the memory order np.array(order="K") copies it in
            assert a.strides == np.array(given, dtype=np.float64).strides
    # the last, a strided view of a Fortran-ordered array, in Fortran order
    assert held.flags.f_contiguous and not held.flags.c_contiguous

