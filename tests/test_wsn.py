"""Tests for encoder/decoder factorization and error evaluation."""

import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import tracemalloc
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kltmbi
from conftest import (
    direct_mse,
    explained_energy,
    joint_model_from_factor,
    random_model,
    recorded,
)
from kltmbi import (
    CompressorBank,
    FactorizedWsn,
    InvalidInput,
    MbiConfig,
    ParseError,
    SampleEnsemble,
    ScenarioSpec,
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
    load_wsn_json,
    mbi_solve,
    reconstruct,
    save_pgm,
    save_wsn_json,
)
from kltmbi.covariance import SecondMomentModel, atomic_write
from kltmbi.linalg import psd_sqrt, svd
from kltmbi import wsn
from kltmbi.wsn import _chunked_mse


def _rank_feasible_bank(rng, part):
    blocks = []
    for nj, rj in zip(part.n, part.r):
        blocks.append(rng.standard_normal((part.m, rj)) @ rng.standard_normal((rj, nj)))
    return CompressorBank(blocks=tuple(blocks), partition=part)


class TestFactorize:
    def test_zero_block(self):
        part = SensorPartition(m=2, n=(3,), r=(2,))
        wsn = factorize_wsn(CompressorBank.zeros(part))
        assert np.array_equal(wsn.encoders[0], np.zeros((2, 3)))
        assert np.array_equal(wsn.decoder_blocks[0], np.zeros((2, 2)))

    def test_rank_one_exact(self):
        part = SensorPartition(m=3, n=(4,), r=(1,))
        u = np.array([[1.0], [2.0], [2.0]]) / 3.0
        v = np.array([[0.5, 0.5, 0.5, 0.5]])
        f = 6.0 * u @ v
        wsn = factorize_wsn(CompressorBank(blocks=(f,), partition=part))
        assert np.allclose(wsn.decoder_blocks[0] @ wsn.encoders[0], f, atol=1e-12)

    def test_fidelity_and_wire_dims(self):
        rng = np.random.default_rng(0)
        part = SensorPartition(m=4, n=(3, 5), r=(2, 3))
        bank = _rank_feasible_bank(rng, part)
        wsn = factorize_wsn(bank)
        for j in range(part.p):
            assert wsn.encoders[j].shape == (part.r[j], part.n[j])
            assert wsn.decoder_blocks[j].shape == (part.m, part.r[j])
            err = np.linalg.norm(wsn.decoder_blocks[j] @ wsn.encoders[j] - bank.blocks[j])
            assert err <= 1e-8 * max(1.0, np.linalg.norm(bank.blocks[j]))

    def test_padding_when_rank_below_r(self):
        # rank-1 block with r_j = 3: wire dimension stays 3, padded with zeros
        part = SensorPartition(m=2, n=(4,), r=(3,))
        f = np.outer([1.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        wsn = factorize_wsn(CompressorBank(blocks=(f,), partition=part))
        assert wsn.encoders[0].shape == (3, 4)
        assert np.array_equal(wsn.encoders[0][1:], np.zeros((2, 4)))

    def test_block_above_its_rank_bound_is_refused(self):
        # a bank does not check its ranks; r_j links cannot carry a block of
        # higher rank, whose P_j Q_j would not be F_j
        part = SensorPartition(m=3, n=(3, 3), r=(1, 1))
        low = np.outer([1.0, 2.0, 2.0], [1.0, 0.0, 1.0])
        for blocks, names in [
            ((np.eye(3), np.eye(3)), r"block 0 has rank 3 > r\[0\] = 1"),
            ((low, np.diag([1.0, 1.0, 0.0])), r"block 1 has rank 2 > r\[1\] = 1"),
        ]:
            with pytest.raises(InvalidInput, match=names):
                factorize_wsn(CompressorBank(blocks=blocks, partition=part))

    def test_benchmark_encoders_shape(self):
        model = example1_model()
        bank, _ = mbi_solve(model, init_bank(model), MbiConfig(max_iterations=20))
        wsn = factorize_wsn(bank)
        assert wsn.encoders[0].shape == (1, 3)
        assert wsn.encoders[1].shape == (1, 3)


class TestCompressReconstruct:
    def test_roundtrip_equals_bank_application(self):
        rng = np.random.default_rng(1)
        part = SensorPartition(m=3, n=(2, 4), r=(1, 2))
        bank = _rank_feasible_bank(rng, part)
        wsn = factorize_wsn(bank)
        y = rng.standard_normal((6, 7))
        u = compress(wsn, y)
        assert [uj.shape[0] for uj in u] == [1, 2]
        x_hat = reconstruct(wsn, u)
        assert np.allclose(x_hat, bank.full() @ y, atol=1e-8)

    def test_zero_input(self):
        rng = np.random.default_rng(2)
        part = SensorPartition(m=2, n=(2, 2), r=(1, 1))
        wsn = factorize_wsn(_rank_feasible_bank(rng, part))
        u = compress(wsn, np.zeros((4, 3)))
        assert all(np.array_equal(uj, np.zeros_like(uj)) for uj in u)
        assert np.array_equal(reconstruct(wsn, u), np.zeros((2, 3)))

    def test_shape_errors(self):
        rng = np.random.default_rng(3)
        part = SensorPartition(m=2, n=(2, 2), r=(1, 1))
        wsn = factorize_wsn(_rank_feasible_bank(rng, part))
        with pytest.raises(InvalidInput):
            compress(wsn, np.zeros((3, 1)))
        with pytest.raises(InvalidInput):
            reconstruct(wsn, [np.zeros((2, 1)), np.zeros((1, 1))])
        with pytest.raises(InvalidInput, match="expected 2 compressed blocks"):
            reconstruct(wsn, [np.zeros((1, 1))])

    def test_blocks_must_hold_the_same_samples(self):
        # a 1-column block beside a 5-column one would broadcast to a 5-column
        # estimate
        rng = np.random.default_rng(3)
        part = SensorPartition(m=3, n=(2, 2), r=(1, 1))
        wsn = factorize_wsn(_rank_feasible_bank(rng, part))
        for u in (
            [np.zeros((1, 1)), np.zeros((1, 5))],
            [np.zeros(1), np.zeros((1, 5))],
        ):
            with pytest.raises(InvalidInput, match="block 1"):
                reconstruct(wsn, u)
        assert reconstruct(wsn, [np.zeros(1), np.zeros(1)]).shape == (3,)


class TestAnalyticMse:
    """The identities every bank's MSE meets are rows of BANKS below."""

    def test_partition_mismatch_rejected(self):
        model = example1_model()
        for part in (
            SensorPartition(m=3, n=(3, 2), r=(1, 1)),
            SensorPartition(m=2, n=(3, 3), r=(1, 1)),
        ):
            with pytest.raises(InvalidInput, match="partitions disagree"):
                analytic_mse(model, CompressorBank.zeros(part))

    def test_sums_one_product_at_a_time(self):
        # p = 16, N = 512: the p products of m x N together take 2 MB, one
        # of them 128 kB; each is added to the residual as it is formed
        m, p = 32, 16
        part = SensorPartition(m=m, n=(m,) * p, r=(8,) * p)
        spec = ScenarioSpec(
            kind="linear_mixing", partition=part, s=600, sigmas=(0.3,) * p, seed=1
        )
        model = estimate_moments(generate(spec), part)
        _, trace = mbi_solve(model, init_bank(model), MbiConfig(max_iterations=5))
        assert len(trace.banks) == 6
        for bank, mse in zip(trace.banks, trace.mse_per_iteration):
            assert analytic_mse(model, bank) == mse
        start = init_bank(model)
        tracemalloc.start()
        try:
            assert analytic_mse(model, start) == trace.mse_per_iteration[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 500_000


class TestEmpiricalMse:
    """The identities every bank's MSE on its samples meets are rows of
    BANKS below."""

    def test_shape_mismatch_rejected(self):
        part = SensorPartition(m=2, n=(2, 2), r=(1, 1))
        bank = CompressorBank.zeros(part)
        for x, y, match in (
            (np.ones((2, 3)), np.ones((3, 3)), "y has 3 rows"),
            (np.ones((3, 3)), np.ones((4, 3)), "x has 3 rows"),
        ):
            with pytest.raises(InvalidInput, match=match):
                empirical_mse(SampleEnsemble(x=x, y=y), bank)

    def test_doubled_samples_scale_it_by_exactly_four(self):
        # draw 55 of this stream has a chunk norm whose square C ``pow``
        # misrounds in glibc 2.36; squared as a product, every MSE of the
        # doubled samples, a bank's and each replayed row, is 4 times its own
        part = SensorPartition(m=4, n=(4, 4), r=(4, 4))
        rng = np.random.default_rng(0)
        for _ in range(56):
            x, y = rng.standard_normal((4, 50)), rng.standard_normal((8, 50))
            blocks = [rng.standard_normal((4, 4)) for _ in range(2)]
        bank = CompressorBank(blocks=blocks, partition=part)
        ens, doubled = SampleEnsemble(x=x, y=y), SampleEnsemble(x=2 * x, y=2 * y)
        assert empirical_mse(doubled, bank) == 4 * empirical_mse(ens, bank)
        trace = _mbi_trace(ens, part, start=lambda model: bank)
        assert len(trace.banks) >= 2
        assert _replay(doubled, trace) == [4 * v for v in _replay(ens, trace)]

    def test_peak_memory_is_two_chunk_buffers(self):
        rng = np.random.default_rng(12)
        m, p, s = 8, 4, 20_000
        part = SensorPartition(m=m, n=(m,) * p, r=(2,) * p)
        bank = _rank_feasible_bank(rng, part)
        ens = SampleEnsemble(
            x=rng.standard_normal((m, s)), y=rng.standard_normal((m * p, s))
        )
        tracemalloc.start()
        try:
            empirical_mse(ens, bank)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * m * wsn._CHUNK * 8 + 64 * 1024


def _chunked_formula(ens, bank, chunk):
    """sum_c ||X_c - F Y_c||_F^2 / s over column chunks of ``chunk``, in
    order, each squared norm the norm times itself."""
    f = bank.full()
    total = 0.0
    for start in range(0, ens.s, chunk):
        cols = slice(start, start + chunk)
        norm = np.linalg.norm(ens.x[:, cols] - f @ ens.y[:, cols])
        total += norm * norm
    return total / ens.s


def _replay(ens, trace) -> list[float]:
    """The trace CSV's empirical column: every bank of ``trace`` replayed on
    the samples of ``ens``."""
    return _chunked_mse(ens, trace.banks, trace.chosen_block_per_iteration)


def _record_full(monkeypatch) -> list:
    """The banks whose stacked ``full()`` is formed from here on, in order."""
    stacked = []
    full = CompressorBank.full
    monkeypatch.setattr(CompressorBank, "full", lambda b: stacked.append(b) or full(b))
    return stacked


def _mbi_trace(ens, part, start=None):
    """The trace, with every bank, of an MBI solve on the moments of ``ens``,
    from the zero bank unless a ``start`` is given."""
    model = estimate_moments(ens, part)
    _, trace = mbi_solve(
        model,
        CompressorBank.zeros(part) if start is None else start(model),
        MbiConfig(epsilon=0.0, max_iterations=30),
    )
    return trace


def _full_rank_bank(rng, part):
    """A bank of standard normal blocks, full rank where r_j = n_j."""
    blocks = tuple(rng.standard_normal((part.m, nj)) for nj in part.n)
    return CompressorBank(blocks=blocks, partition=part)


class Bank(NamedTuple):
    """A row of BANKS. ``make()`` returns a model, the banks to check on it
    and their training samples or None. A solve under ``cfg`` from each bank
    records it (and with a finite epsilon the banks after it), so every bank
    a row checks is one a solve records. ``exact``: every bank but the zero
    bank fits exactly."""

    make: Callable
    cfg: MbiConfig = MbiConfig(epsilon=np.inf)  # records the start alone
    exact: bool = False


def _solved(kind, m, p, r, s):
    # an init_bank solve, on moments estimated from s samples but for the
    # exact benchmark model
    part = SensorPartition(m=m, n=(m,) * p, r=(r,) * p)
    if kind == "exact_example1":
        model, ens = example1_model(part.r), None
    else:
        spec = ScenarioSpec(kind=kind, partition=part, s=s, sigmas=(0.3,) * p, seed=1)
        ens = generate(spec)
        model = estimate_moments(ens, part)
    return model, (init_bank(model),), ens


def _zero_bank(model, ens=None):
    return model, (CompressorBank.zeros(model.partition),), ens


def _gaussian_banks(seed, m, n, count):
    # Gram model and ``count`` full-rank banks, r_j = n_j
    rng = np.random.default_rng(seed)
    model = random_model(rng, m, n, n)
    return model, [_full_rank_bank(rng, model.partition) for _ in range(count)], None


def _identity_e_yy():
    # E_yy = I leaves the target E_xy as it is: the objective of F is
    # ||E_xy - F||^2. E_xx adds unit noise to E_xy E_xy^T
    rng = np.random.default_rng(0)
    e_xy = np.arange(8.0).reshape(2, 4)
    part = SensorPartition(m=2, n=(2, 2), r=(2, 2))
    model = SecondMomentModel(part, e_xy @ e_xy.T + np.eye(2), e_xy, np.eye(4))
    return model, (CompressorBank.zeros(part), _full_rank_bank(rng, part)), None


def _noiseless_single_sensor():
    # x = y: the identity fits exactly, and so does one sweep from zeros
    part = SensorPartition(m=3, n=(3,), r=(3,))
    model = SecondMomentModel(part, np.eye(3), np.eye(3), np.eye(3))
    identity = CompressorBank(blocks=(np.eye(3),), partition=part)
    return model, (CompressorBank.zeros(part), identity), None


def _wiener_fits_exactly():
    # x = E_xy y with E_yy = I: the Wiener filter E_xy E_yy^+ fits exactly
    part = SensorPartition(m=2, n=(3,), r=(3,))
    e_xy = np.arange(6.0).reshape(2, 3)
    model = SecondMomentModel(part, e_xy @ e_xy.T, e_xy, np.eye(3))
    wiener = model.e_xy @ svd(model.e_yy).pinv()
    return model, (CompressorBank(blocks=(wiener,), partition=part),), None


def _noiseless_full_rank():
    part = SensorPartition(m=2, n=(2,), r=(2,))
    e = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = SecondMomentModel(partition=part, e_xx=e, e_xy=e, e_yy=e)
    return model, (CompressorBank(blocks=(np.eye(2),), partition=part),), None


def _random_joint(seed, rows, cols, part, bank):
    rng = np.random.default_rng(seed)
    model = joint_model_from_factor(rng.standard_normal((rows, cols)), part)
    return model, (bank(rng, model),), None


def _sampled_exact_fit():
    # x = F y on 6 samples of N = 4 observations
    rng = np.random.default_rng(5)
    part = SensorPartition(m=2, n=(2, 2), r=(2, 2))
    bank = _rank_feasible_bank(rng, part)
    y = rng.standard_normal((4, 6))
    ens = SampleEnsemble(x=bank.full() @ y, y=y)
    return estimate_moments(ens, part), (bank,), ens


def _sampled_zero_bank():
    rng = np.random.default_rng(6)
    part = SensorPartition(m=2, n=(2,), r=(1,))
    ens = SampleEnsemble(x=rng.standard_normal((2, 5)), y=rng.standard_normal((2, 5)))
    return _zero_bank(estimate_moments(ens, part), ens)


def _chunked(s):
    # s = 300 spans three chunks of 128, the last one short, and its sum
    # differs from the one-chunk norm in the last bit
    rng = np.random.default_rng(11)
    part = SensorPartition(m=3, n=(2, 4), r=(1, 2))
    bank = _rank_feasible_bank(rng, part)
    ens = SampleEnsemble(x=rng.standard_normal((3, s)), y=rng.standard_normal((6, s)))
    return estimate_moments(ens, part), (bank,), ens


_SWEEPS = MbiConfig(epsilon=0.0, max_iterations=30)
# One row per model and banks whose MSE identities _assert_bank checks,
# grouped under the ids of the tests they restate.
BANKS = {
    "TestAnalyticMse::test_zero_bank_gives_signal_energy": Bank(
        lambda: _zero_bank(example1_model())
    ),
    "TestAnalyticMse::test_zero_bank": Bank(
        lambda: _zero_bank(random_model(np.random.default_rng(3), 2, (2, 2), (1, 1)))
    ),
    "TestAnalyticMse::test_noiseless_full_rank_is_zero": Bank(
        _noiseless_full_rank, exact=True
    ),
    "TestAnalyticMse::test_noiseless_single_sensor": Bank(
        _noiseless_single_sensor, MbiConfig(epsilon=0.0, max_iterations=1), exact=True
    ),
    "TestAnalyticMse::test_exact_fit_single_sensor": Bank(
        _wiener_fits_exactly, exact=True
    ),
    "TestAnalyticMse::test_identity_e_yy": Bank(_identity_e_yy),
    "TestAnalyticMse::test_bit_equal_to_formula_from_scratch": Bank(
        lambda: _random_joint(
            9, 10, 12, SensorPartition(m=3, n=(3, 4), r=(2, 1)),
            lambda rng, model: _rank_feasible_bank(rng, model.partition),
        )
    ),
    "TestAnalyticMse::test_g_blocks_stack_to_root": Bank(
        lambda: _gaussian_banks(0, 3, (2, 3), 3)
    ),
    "TestAnalyticMse::test_trace_expansion_identity": Bank(
        lambda: _gaussian_banks(2, 3, (2, 2), 5)
    ),
    "TestAnalyticMse::test_matches_entrywise_sum": Bank(
        lambda: _gaussian_banks(4, 3, (2, 3), 1)
    ),
    "TestAnalyticMse::test_is_wiener_mse_plus_objective": {
        # s = 10 < N = 32 with full ranks: a near-exact fit
        "near_exact_fit": Bank(lambda: _solved("linear_mixing", 8, 4, 8, 10), _SWEEPS),
        "sampled": Bank(lambda: _solved("additive_noise", 6, 3, 2, 300), _SWEEPS),
        "few_samples": Bank(lambda: _solved("additive_noise", 4, 3, 1, 3), _SWEEPS),
        "exact_example1": Bank(lambda: _solved("exact_example1", 3, 2, 1, 1), _SWEEPS),
    },
    "TestAnalyticMse::test_nonnegative_for_solved_banks": Bank(
        lambda: _random_joint(
            4, 9, 14, SensorPartition(m=3, n=(3, 3), r=(2, 1)),
            lambda rng, model: init_bank(model),
        ),
        MbiConfig(max_iterations=50),
    ),
    "TestEmpiricalMse::test_exact_fit": Bank(_sampled_exact_fit, exact=True),
    "TestEmpiricalMse::test_zero_bank": Bank(_sampled_zero_bank),
    "TestEmpiricalMse::test_bit_equal_to_formula": {
        f"s{s}": Bank(lambda s=s: _chunked(s)) for s in (1, 7, 300)
    },
}


def _assert_bank(row: Bank, monkeypatch) -> None:
    """Check on every bank of ``row`` that
    1. its ``analytic_mse``, on a model no solve has run on and again on the
       row's model, is the MSE a solve records, bit for bit, and that MSE is
       max(tr E_xx - ||H||^2 + ||E||^2, 0) with H and the residual
       E = H - sum_j F_j G_j formed here, bit for bit;
    2. that MSE is within 1e-12 tr E_xx of tr E_xx - explained_energy plus
       the recorded objective and of the direct MSE, the objective is the
       entrywise sum of E's squares, and the MSE is >= 0;
    3. on the row's samples, ``empirical_mse`` is the chunked formula, bit
       for bit, at the default chunk and at 128;
    4. the known values hold: tr E_xx and explained_energy (and ||x||^2 / s
       on samples) for the zero bank, ||E_xy - F||^2 where E_yy = I, and 0
       for an exact fit."""
    model, starts, ens = row.make()
    part = model.partition
    unsolved = SecondMomentModel(part, model.e_xx, model.e_xy, model.e_yy)
    tr_exx = np.trace(model.e_xx)
    explained = explained_energy(model)
    root = psd_sqrt(model.e_yy)
    h = model.e_xy @ svd(root).pinv()
    h_norm = np.linalg.norm(h)
    records = []
    for start in starts:
        _, trace = mbi_solve(model, start, row.cfg)
        records += zip(
            trace.banks,
            trace.objective_per_iteration,
            trace.mse_per_iteration,
            strict=True,
        )
    if row.cfg.epsilon < np.inf:  # the solves commit steps
        assert len(records) > len(starts)
    for bank, f, mse in records:
        assert recorded(model, bank) == (f, mse)
        assert analytic_mse(unsolved, bank) == mse == analytic_mse(model, bank)
        # sum_j F_j G_j block by block, in sensor order: one product with
        # the stacked bank rounds differently on some BLAS kernels
        fg = np.zeros_like(h)
        for j, fj in enumerate(bank.blocks):
            fg += fj @ root[part.y_slice(j)]
        tail = h - fg
        # each squared norm as the norm times itself, as the solver squares it
        tail_norm = np.linalg.norm(tail)
        assert mse == max(float(tr_exx - h_norm * h_norm + tail_norm * tail_norm), 0.0)
        assert abs(mse - max(tr_exx - explained + f, 0.0)) <= 1e-12 * tr_exx
        assert abs(mse - direct_mse(model, bank)) <= 1e-12 * tr_exx
        assert f == pytest.approx(np.sum(tail * tail), rel=1e-12, abs=1e-18)
        assert mse >= 0.0
        if ens is not None:
            emp = empirical_mse(ens, bank)
            assert emp == _chunked_formula(ens, bank, wsn._CHUNK)
            with monkeypatch.context() as patch:
                patch.setattr(wsn, "_CHUNK", 128)
                assert empirical_mse(ens, bank) == _chunked_formula(ens, bank, 128)
        if not any(b.any() for b in bank.blocks):
            assert mse == pytest.approx(tr_exx, rel=1e-10)
            assert f == pytest.approx(explained, rel=1e-10)
            if ens is not None:
                assert emp == pytest.approx(np.linalg.norm(ens.x) ** 2 / ens.s)
        elif row.exact:
            assert f <= 1e-18 and mse <= 1e-12
            assert ens is None or emp <= 1e-16
        if np.array_equal(model.e_yy, np.eye(part.n_total)):
            want = np.linalg.norm(model.e_xy - bank.full()) ** 2
            assert f == pytest.approx(want, rel=1e-12, abs=1e-18)


def _bank_test(rows):
    """The test of a group of BANKS, a case per row, or of one row."""
    if isinstance(rows, Bank):

        def test(monkeypatch):
            _assert_bank(rows, monkeypatch)

    else:

        @pytest.mark.parametrize("row", rows.values(), ids=list(rows))
        def test(row, monkeypatch):
            _assert_bank(row, monkeypatch)

    return staticmethod(test)


# each group is collected as the test its key names, in the class it names
for _key, _rows in BANKS.items():
    _owner, _name = _key.split("::")
    setattr(globals()[_owner], _name, _bank_test(_rows))


class TestRunningEmpiricalMse:
    @staticmethod
    def _sampled(kind, m, p, s, sigma=0.3):
        part = SensorPartition(m=m, n=(m,) * p, r=(2,) * p)
        spec = ScenarioSpec(
            kind=kind, partition=part, s=s, sigmas=(sigma,) * p, seed=3
        )
        return generate(spec), part

    @staticmethod
    def _image(tmp_path):
        rng = np.random.default_rng(13)
        img = tmp_path / "src.pgm"
        save_pgm(rng.random((8, 40)), img)
        part = SensorPartition(m=8, n=(8, 8), r=(3, 3))
        spec = ScenarioSpec(
            kind="image", partition=part, sigmas=(0.2, 0.1), seed=3,
            image_path=str(img),
        )
        return image_scenario(spec).ensemble, part

    @pytest.mark.parametrize(
        "case",
        [
            ("linear_mixing", 6, 3, 300),
            ("additive_noise", 6, 3, 2 * wsn._CHUNK + 100),
            ("additive_noise", 5, 1, 500),
            "image",
        ],
        ids=["s_below_chunk", "s_not_chunk_multiple", "one_sensor", "image"],
    )
    def test_rows_agree_with_empirical_mse(self, tmp_path, monkeypatch, case):
        ens, part = self._image(tmp_path) if case == "image" else self._sampled(*case)
        trace = _mbi_trace(ens, part)
        banks = trace.banks
        assert len(banks) >= 2
        want = [empirical_mse(ens, b) for b in banks]
        # record full products: past the first row, every row must come from
        # the running residual, so each chunk forms banks[0] afresh, once
        full_products = _record_full(monkeypatch)
        got = _replay(ens, trace)
        chunks = -(-ens.s // wsn._CHUNK)
        assert len(full_products) == chunks
        assert all(b is banks[0] for b in full_products)
        assert got[0] == want[0]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * w

    def test_near_exact_fit_rows_are_recomputed(self, monkeypatch):
        # s = 10 < N = 32 and sigma = 1e-3: the warm start fits the samples
        # to about 6e-7 tr E_xx and each step gains about 2e-12 tr E_xx, so
        # a running update would print round-off as different digits. Each
        # chunk of every row is formed afresh: in chunks of 2, all five.
        ens, part = self._sampled("additive_noise", 8, 4, 10, sigma=1e-3)
        trace = _mbi_trace(ens, part, start=init_bank)
        assert len(trace.banks) >= 2
        for chunk in (wsn._CHUNK, 2):
            with monkeypatch.context() as patch:
                patch.setattr(wsn, "_CHUNK", chunk)
                want = [empirical_mse(ens, b) for b in trace.banks]
                full_products = _record_full(patch)
                assert _replay(ens, trace) == want
            assert full_products == trace.banks * -(-ens.s // chunk)

    def test_near_exact_fit_replay_holds_two_chunk_buffers(self, monkeypatch):
        # sigma = 1e-2: the residual of each row is under 1/_REFRESH_RATIO of
        # what was subtracted to form it, so every row of the replay is
        # formed afresh. Each fresh formation stacks its bank once, and no
        # stack outlives it
        m, p, s = 32, 16, 3000
        ens, part = self._sampled("additive_noise", m, p, s, sigma=1e-2)
        trace = _mbi_trace(ens, part, start=init_bank)
        assert len(trace.banks) >= 10
        want = [empirical_mse(ens, b) for b in trace.banks]
        full_products = _record_full(monkeypatch)
        tracemalloc.start()
        try:
            got = _replay(ens, trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert full_products == trace.banks
        assert got == want
        assert peak <= 2 * m * wsn._CHUNK * 8 + 2 * m * part.n_total * 8 + 64 * 1024


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["linear_mixing", "additive_noise"]),
    s=st.integers(20, 80),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_chunked_rows_agree_with_unchunked(kind, s, seed, data):
    # N = 8 < s: no bank fits the samples exactly, so every row is a sum of
    # chunks that each carry digits
    part = SensorPartition(m=4, n=(4, 4), r=(2, 2))
    spec = ScenarioSpec(kind=kind, partition=part, s=s, sigmas=(0.3, 0.3), seed=seed)
    ens = generate(spec)
    trace = _mbi_trace(ens, part)
    want = [_chunked_formula(ens, b, s) for b in trace.banks]
    chunk = data.draw(st.integers(1, s), label="chunk")
    doubled = SampleEnsemble(x=2 * ens.x, y=2 * ens.y)
    with mock.patch.object(wsn, "_CHUNK", chunk):
        rows = _replay(ens, trace)
        single = [empirical_mse(ens, b) for b in trace.banks]
        # doubling x and y doubles each chunk's residual and refresh bound
        # exactly: the replay refreshes the same chunks, and each MSE scales
        # by exactly 4
        assert _replay(doubled, trace) == [4 * v for v in rows]
        assert [empirical_mse(doubled, b) for b in trace.banks] == [4 * v for v in single]
    for got in (rows, single):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * w


class TestJsonExport:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        part = SensorPartition(m=3, n=(2, 4), r=(1, 2))
        wsn = factorize_wsn(_rank_feasible_bank(rng, part))
        path = tmp_path / "wsn.json"
        save_wsn_json(wsn, path, provenance={"note": "test"})
        doc = json.loads(path.read_text())
        assert doc["format"] == "klt-mbi-wsn"
        assert doc["partition"] == {"m": 3, "n": [2, 4], "r": [1, 2]}
        assert doc["provenance"] == {"note": "test"}
        back = load_wsn_json(path)
        for a, b in zip(back.encoders, wsn.encoders):
            assert np.array_equal(a, b)
        for a, b in zip(back.decoder_blocks, wsn.decoder_blocks):
            assert np.array_equal(a, b)

    def _doc(self, tmp_path):
        rng = np.random.default_rng(10)
        part = SensorPartition(m=3, n=(2, 4), r=(1, 2))
        path = tmp_path / "wsn.json"
        save_wsn_json(factorize_wsn(_rank_feasible_bank(rng, part)), path)
        return json.loads(path.read_text())

    def _load(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return load_wsn_json(path)

    def test_encoder_shape_contradicting_partition(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["sensors"][0]["encoder"] = [[1.0, 2.0, 3.0]]  # 1x3 for n_0 = 2
        with pytest.raises(ParseError):
            self._load(tmp_path, doc)

    def test_decoder_shape_contradicting_partition(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["sensors"][1]["decoder"] = doc["sensors"][1]["decoder"][:2]
        with pytest.raises(ParseError):
            self._load(tmp_path, doc)

    def test_empty_sensor_list(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["sensors"] = []
        with pytest.raises(ParseError):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("key", ["partition", "sensors"])
    def test_missing_key(self, tmp_path, key):
        doc = self._doc(tmp_path)
        del doc[key]
        with pytest.raises(ParseError):
            self._load(tmp_path, doc)

    def test_missing_decoder(self, tmp_path):
        doc = self._doc(tmp_path)
        del doc["sensors"][1]["decoder"]
        with pytest.raises(ParseError):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("bad", [[["x"]], [[1.0], [1.0, 2.0]], None, {"a": 1}])
    def test_non_numeric_matrix(self, tmp_path, bad):
        doc = self._doc(tmp_path)
        doc["sensors"][0]["encoder"] = bad
        with pytest.raises(ParseError):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize(
        "bad", ["1.5", True, None, 10**400], ids=["str", "bool", "null", "overflow"]
    )
    @pytest.mark.parametrize("where", ["encoder", "decoder"])
    def test_entry_not_a_json_number(self, tmp_path, where, bad):
        doc = self._doc(tmp_path)
        doc["sensors"][1][where][0][0] = bad
        with pytest.raises(ParseError):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize(
        "field, bad",
        [("m", 1.7), ("m", "3"), ("m", True), ("n", "24"), ("n", [2.0, 4]),
         ("r", ["1", 2]), ("r", [1, False])],
    )
    def test_partition_not_json_integers(self, tmp_path, field, bad):
        doc = self._doc(tmp_path)
        doc["partition"][field] = bad
        with pytest.raises(ParseError):
            self._load(tmp_path, doc)

    def test_coercible_document_rejected(self, tmp_path):
        # every field here used to be converted: n=(2,), decoder [[1.0]]
        doc = {
            "partition": {"m": 1, "n": "2", "r": ["1"]},
            "sensors": [{"encoder": [["1.5", "2"]], "decoder": [[True]]}],
        }
        with pytest.raises(ParseError):
            self._load(tmp_path, doc)
        doc["partition"] = {"m": 1, "n": [2], "r": [1]}
        with pytest.raises(ParseError):
            self._load(tmp_path, doc)
        doc["sensors"] = [{"encoder": [[1.5, 2]], "decoder": [[1]]}]
        assert self._load(tmp_path, doc).decoder_blocks[0].tolist() == [[1.0]]

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_wsn_json(path)

    def test_duplicate_key(self, tmp_path):
        # a second "partition" would otherwise replace the first unseen
        text = json.dumps(self._doc(tmp_path))
        path = tmp_path / "twice.json"
        path.write_text(text.replace("{", '{"partition": null, ', 1))
        with pytest.raises(ParseError, match="duplicate key 'partition'"):
            load_wsn_json(path)

    def test_nesting_too_deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(ParseError):
            load_wsn_json(path)

    def test_not_utf8(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["provenance"] = {"note": "caf\xe9"}
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        with pytest.raises(ParseError):
            load_wsn_json(path)

    def test_utf8_whatever_the_locale(self, tmp_path):
        # a child process whose locale encoding is ASCII reads a document
        # with non-ASCII text
        doc = self._doc(tmp_path)
        doc["provenance"] = {"note": "\u03c3 = 0.3"}
        path = tmp_path / "utf8.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        src = str(pathlib.Path(kltmbi.__file__).parent.parent)
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from kltmbi import load_wsn_json; "
                "load_wsn_json(sys.argv[1])",
                str(path),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_direct_construction_checks_blocks(self):
        part = SensorPartition(m=2, n=(2,), r=(1,))
        good = {"encoders": [np.ones((1, 2))], "decoder_blocks": [np.ones((2, 1))]}
        FactorizedWsn(partition=part, **good)
        for field, bad in (
            ("encoders", [np.ones((1, 3))]),
            ("encoders", []),
            ("decoder_blocks", [np.ones((2, 2))]),
            ("decoder_blocks", [np.full((2, 1), np.nan)]),
        ):
            with pytest.raises(InvalidInput):
                FactorizedWsn(partition=part, **{**good, field: bad})


@st.composite
def _banks(draw):
    p = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    n = tuple(draw(st.integers(1, 5)) for _ in range(p))
    r = tuple(draw(st.integers(1, nj)) for nj in n)
    part = SensorPartition(m=m, n=n, r=r)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _rank_feasible_bank(rng, part)


@settings(max_examples=30, deadline=None)
@given(_banks())
def test_json_roundtrip_property(tmp_path_factory, bank):
    wsn = factorize_wsn(bank)
    path = tmp_path_factory.mktemp("wsn") / "wsn.json"
    save_wsn_json(wsn, path)
    back = load_wsn_json(path)
    assert back.partition == wsn.partition
    for a, b in zip(back.encoders, wsn.encoders):
        assert np.array_equal(a, b)
    for a, b in zip(back.decoder_blocks, wsn.decoder_blocks):
        assert np.array_equal(a, b)


class TestAtomicWrite:
    @pytest.fixture
    def failing_rename(self, monkeypatch):
        def rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", rename)

    def test_failed_write_keeps_old_target(self, tmp_path, failing_rename):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(OSError, match="rename failed"):
            atomic_write(path, b"new bytes\n")
        assert path.read_bytes() == b"old bytes\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_creates_no_target(self, tmp_path, failing_rename):
        path = tmp_path / "out.txt"
        with pytest.raises(OSError, match="rename failed"):
            atomic_write(path, b"new bytes\n")
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old")
        atomic_write(path, b"new")
        assert path.read_bytes() == b"new"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_link_is_written_through(self, tmp_path):
        real, link = tmp_path / "real.txt", tmp_path / "link.txt"
        real.write_bytes(b"old")
        real.chmod(0o640)
        link.symlink_to(real)
        atomic_write(link, b"new")
        # the link stays a link, and the file it names keeps its mode
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == b"new"
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]

    def test_dangling_link_creates_its_target(self, tmp_path):
        (tmp_path / "sub").mkdir()
        link, real = tmp_path / "link.txt", tmp_path / "sub" / "real.txt"
        link.symlink_to(real)
        atomic_write(link, b"new")
        assert link.is_symlink() and real.read_bytes() == b"new"
        assert os.listdir(tmp_path / "sub") == ["real.txt"]

    @pytest.mark.parametrize("target", ["missing_dir", "loop"])
    def test_link_that_names_no_writable_file_is_refused(self, tmp_path, target):
        link = tmp_path / "link.txt"
        if target == "loop":
            (tmp_path / "other.txt").symlink_to(link)
            link.symlink_to(tmp_path / "other.txt")
            error = re.escape(f"cannot be looked up: {link} (")
        else:
            link.symlink_to(tmp_path / "gone" / "real.txt")
            error = "No such file or directory"
        with pytest.raises(OSError, match=error):
            atomic_write(link, b"new")
        assert link.is_symlink() and not (tmp_path / "gone").exists()
        assert len(os.listdir(tmp_path)) == (2 if target == "loop" else 1)

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: atomic_write(path, b"new"),
            lambda path: save_wsn_json(factorize_wsn(init_bank(example1_model())), path),
            lambda path: save_pgm(np.zeros((2, 2)), path),
        ],
        ids=["atomic_write", "save_wsn_json", "save_pgm"],
    )
    def test_missing_directory_is_named_by_the_given_path(
        self, tmp_path, monkeypatch, write
    ):
        # not by the temporary file the write would have made there
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError) as raised:
            write("nodir/out")
        assert raised.value.filename == "nodir/out"
        assert str(raised.value).endswith("No such file or directory: 'nodir/out'")
        assert list(tmp_path.iterdir()) == []

    def test_save_wsn_json_through_a_link(self, tmp_path):
        wsn = factorize_wsn(init_bank(example1_model()))
        save_wsn_json(wsn, tmp_path / "plain.json")
        (tmp_path / "real.json").write_bytes(b"{}")
        (tmp_path / "link.json").symlink_to(tmp_path / "real.json")
        save_wsn_json(wsn, tmp_path / "link.json")
        assert (tmp_path / "link.json").is_symlink()
        plain = (tmp_path / "plain.json").read_bytes()
        assert (tmp_path / "real.json").read_bytes() == plain

    def test_save_pgm_through_a_link(self, tmp_path):
        image = np.random.default_rng(0).random((5, 6))
        save_pgm(image, tmp_path / "plain.pgm")
        (tmp_path / "link.pgm").symlink_to(tmp_path / "real.pgm")
        save_pgm(image, tmp_path / "link.pgm")
        assert (tmp_path / "link.pgm").is_symlink()
        plain = (tmp_path / "plain.pgm").read_bytes()
        assert (tmp_path / "real.pgm").read_bytes() == plain

    def test_target_that_is_not_a_regular_file_is_refused(self, tmp_path):
        path = tmp_path / "fifo"
        os.mkfifo(path)
        with pytest.raises(OSError, match=re.escape(f"not a regular file: {path}")):
            atomic_write(path, b"new")
        # the FIFO stays, and no temporary file was made beside it
        assert stat.S_ISFIFO(path.stat().st_mode)
        assert list(tmp_path.iterdir()) == [path]
