"""Tests for encoder/decoder factorization and error evaluation."""

import json

import numpy as np
import pytest

from kltmbi import (
    CompressorBank,
    InvalidInput,
    MbiConfig,
    SampleEnsemble,
    SensorPartition,
    analytic_mse,
    compress,
    empirical_mse,
    estimate_moments,
    example1_model,
    factorize_wsn,
    init_bank,
    joint_model_from_factor,
    load_wsn_json,
    mbi_solve,
    reconstruct,
    reduce_problem,
    save_wsn_json,
)
from kltmbi.covariance import SecondMomentModel
from kltmbi.linalg import pinv, psd_sqrt


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

    def test_benchmark_encoders_shape(self):
        model = example1_model()
        rp = reduce_problem(model)
        bank, _ = mbi_solve(rp, init_bank(model), MbiConfig(max_iterations=20))
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
        assert np.allclose(x_hat, bank.apply(y), atol=1e-8)

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


class TestAnalyticMse:
    def test_zero_bank_gives_signal_energy(self):
        model = example1_model()
        bank = CompressorBank.zeros(model.partition)
        assert analytic_mse(model, bank) == pytest.approx(np.trace(model.e_xx), rel=1e-10)

    def test_noiseless_full_rank_is_zero(self):
        part = SensorPartition(m=2, n=(2,), r=(2,))
        e = np.array([[2.0, 0.5], [0.5, 1.0]])
        model = SecondMomentModel(partition=part, e_xx=e, e_xy=e, e_yy=e)
        bank = CompressorBank(blocks=(np.eye(2),), partition=part)
        assert analytic_mse(model, bank) == pytest.approx(0.0, abs=1e-12)

    def test_bit_equal_to_formula_from_scratch(self):
        rng = np.random.default_rng(9)
        part = SensorPartition(m=3, n=(3, 4), r=(2, 1))
        model = joint_model_from_factor(rng.standard_normal((10, 12)), part)
        bank = _rank_feasible_bank(rng, part)
        root = psd_sqrt(model.e_yy)
        h = model.e_xy @ pinv(root)
        tail = np.linalg.norm(h - bank.full() @ root) ** 2
        want = max(float(np.trace(model.e_xx) - np.linalg.norm(h) ** 2 + tail), 0.0)
        reduce_problem(model)  # fills the model's cache
        for _ in range(2):
            assert analytic_mse(model, bank) == want

    def test_nonnegative_for_solved_banks(self):
        rng = np.random.default_rng(4)
        part = SensorPartition(m=3, n=(3, 3), r=(2, 1))
        model = joint_model_from_factor(rng.standard_normal((9, 14)), part)
        rp = reduce_problem(model)
        bank, _ = mbi_solve(rp, init_bank(model), MbiConfig(max_iterations=50))
        assert analytic_mse(model, bank) >= -1e-9


class TestEmpiricalMse:
    def test_exact_fit(self):
        rng = np.random.default_rng(5)
        part = SensorPartition(m=2, n=(2, 2), r=(2, 2))
        bank = _rank_feasible_bank(rng, part)
        y = rng.standard_normal((4, 6))
        ens = SampleEnsemble(x=bank.apply(y), y=y)
        assert empirical_mse(ens, bank) == pytest.approx(0.0, abs=1e-16)

    def test_zero_bank(self):
        rng = np.random.default_rng(6)
        part = SensorPartition(m=2, n=(2,), r=(1,))
        x = rng.standard_normal((2, 5))
        ens = SampleEnsemble(x=x, y=rng.standard_normal((2, 5)))
        want = np.linalg.norm(x) ** 2 / 5
        assert empirical_mse(ens, CompressorBank.zeros(part)) == pytest.approx(want)

    def test_agrees_with_analytic_on_estimated_model(self):
        rng = np.random.default_rng(7)
        part = SensorPartition(m=3, n=(2, 3), r=(1, 2))
        for s in (3, 8, 20):
            ens = SampleEnsemble(
                x=rng.standard_normal((3, s)), y=rng.standard_normal((5, s))
            )
            model = estimate_moments(ens, part)
            bank = _rank_feasible_bank(rng, part)
            emp = empirical_mse(ens, bank)
            ana = analytic_mse(model, bank)
            assert abs(emp - ana) <= 1e-8 * max(1.0, abs(emp))


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
