"""Tests for encoder/decoder factorization and error evaluation."""

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kltmbi
from conftest import explained_energy, joint_model_from_factor, recorded_objective
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
from kltmbi.covariance import SecondMomentModel
from kltmbi.linalg import pinv, psd_sqrt
from kltmbi import wsn
from kltmbi.wsn import _running_empirical_mse, atomic_write


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
        # sum_j F_j G_j block by block, in sensor order: one product with
        # the stacked bank rounds differently on some BLAS kernels
        fg = np.zeros_like(h)
        for j, fj in enumerate(bank.blocks):
            fg += fj @ root[part.y_slice(j)]
        # each squared norm as the norm times itself, as the solver squares it
        h_norm, tail_norm = np.linalg.norm(h), np.linalg.norm(h - fg)
        wiener = np.trace(model.e_xx) - h_norm * h_norm
        want = max(float(wiener + tail_norm * tail_norm), 0.0)
        recorded_objective(model, bank)  # fills the model's cache
        for _ in range(2):
            assert analytic_mse(model, bank) == want

    @pytest.mark.parametrize(
        "kind, m, p, r, s",
        [
            # s = 10 < N = 32 with full ranks: a near-exact fit
            ("linear_mixing", 8, 4, 8, 10),
            ("additive_noise", 6, 3, 2, 300),
            ("additive_noise", 4, 3, 1, 3),
            ("exact_example1", 3, 2, 1, 1),
        ],
        ids=["near_exact_fit", "sampled", "few_samples", "exact_example1"],
    )
    def test_is_wiener_mse_plus_objective(self, kind, m, p, r, s):
        # one formula: the MSE a solve records for each bank is the bank's
        # analytic_mse, bit for bit, and the Wiener MSE
        # tr E_xx - tr(E_xy E_yy^+ E_yx) plus the objective it records
        part = SensorPartition(m=m, n=(m,) * p, r=(r,) * p)
        if kind == "exact_example1":
            model = example1_model(part.r)
        else:
            spec = ScenarioSpec(
                kind=kind, partition=part, s=s, sigmas=(0.3,) * p, seed=1
            )
            model = estimate_moments(generate(spec), part)
        _, trace = mbi_solve(
            model, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=30)
        )
        assert len(trace.banks) >= 2
        assert len(trace.mse_per_iteration) == len(trace.banks)
        tr_exx = np.trace(model.e_xx)
        wiener = tr_exx - explained_energy(model)
        records = zip(trace.banks, trace.objective_per_iteration, trace.mse_per_iteration)
        for bank, f, mse in records:
            assert recorded_objective(model, bank) == f
            assert analytic_mse(model, bank) == mse
            assert abs(mse - max(wiener + f, 0.0)) <= 1e-12 * tr_exx

    def test_partition_mismatch_rejected(self):
        model = example1_model()
        for part in (
            SensorPartition(m=3, n=(3, 2), r=(1, 1)),
            SensorPartition(m=2, n=(3, 3), r=(1, 1)),
        ):
            with pytest.raises(InvalidInput, match="partitions disagree"):
                analytic_mse(model, CompressorBank.zeros(part))

    def test_nonnegative_for_solved_banks(self):
        rng = np.random.default_rng(4)
        part = SensorPartition(m=3, n=(3, 3), r=(2, 1))
        model = joint_model_from_factor(rng.standard_normal((9, 14)), part)
        bank, _ = mbi_solve(model, init_bank(model), MbiConfig(max_iterations=50))
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

    def test_shape_mismatch_rejected(self):
        part = SensorPartition(m=2, n=(2, 2), r=(1, 1))
        bank = CompressorBank.zeros(part)
        for x, y, match in (
            (np.ones((2, 3)), np.ones((3, 3)), "y has 3 rows"),
            (np.ones((3, 3)), np.ones((4, 3)), "x has 3 rows"),
        ):
            with pytest.raises(InvalidInput, match=match):
                empirical_mse(SampleEnsemble(x=x, y=y), bank)

    def test_bit_equal_to_formula(self, monkeypatch):
        # sum over column chunks, in order, of ||X_c - F Y_c||^2, over s.
        # With chunks of 128, s = 300 spans three, the last one short, and
        # its sum differs from the one-chunk norm in the last bit
        rng = np.random.default_rng(11)
        part = SensorPartition(m=3, n=(2, 4), r=(1, 2))
        bank = _rank_feasible_bank(rng, part)
        for s in (1, 7, 300):
            ens = SampleEnsemble(
                x=rng.standard_normal((3, s)), y=rng.standard_normal((6, s))
            )
            assert empirical_mse(ens, bank) == _chunked_formula(ens, bank, s)
        monkeypatch.setattr(wsn, "_CHUNK", 128)
        assert empirical_mse(ens, bank) == _chunked_formula(ens, bank, 128)

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
    """sum_c ||X_c - F Y_c||_F^2 / s over column chunks of ``chunk``, in order."""
    f = bank.full()
    total = 0.0
    for start in range(0, ens.s, chunk):
        cols = slice(start, start + chunk)
        total += np.linalg.norm(ens.x[:, cols] - f @ ens.y[:, cols]) ** 2
    return total / ens.s


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
        got = _running_empirical_mse(ens, trace)
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
                assert _running_empirical_mse(ens, trace) == want
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
            got = _running_empirical_mse(ens, trace)
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
    with mock.patch.object(wsn, "_CHUNK", chunk):
        rows = _running_empirical_mse(ens, trace)
        single = [empirical_mse(ens, b) for b in trace.banks]
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
    def _failing(self, tmp):
        with open(tmp, "w") as fh:
            fh.write("partial")
        raise RuntimeError("writer failed mid-write")

    def test_failed_write_keeps_old_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(RuntimeError):
            atomic_write(path, self._failing)
        assert path.read_bytes() == b"old bytes\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_creates_no_target(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            atomic_write(path, self._failing)
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old")
        atomic_write(path, lambda tmp: pathlib.Path(tmp).write_text("new"))
        assert path.read_bytes() == b"new"
        assert list(tmp_path.glob("*.tmp")) == []
