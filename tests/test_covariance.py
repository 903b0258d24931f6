"""Tests for second-moment models, partitioning and sample estimation."""

import copy
import dataclasses
import gc
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import joint_model_from_factor
from kltmbi import (
    CompressorBank,
    InvalidInput,
    MbiConfig,
    NotPsd,
    SampleEnsemble,
    SensorPartition,
    analytic_mse,
    estimate_moments,
    example1_model,
    init_bank,
    mbi_solve,
)
from kltmbi import solver
from kltmbi.covariance import SecondMomentModel


class TestSensorPartition:
    def test_basic(self):
        part = SensorPartition(m=3, n=(3, 4), r=(1, 2))
        assert part.p == 2
        assert part.n_total == 7
        assert part.y_slice(1) == slice(3, 7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0, n=(2,), r=(1,)),
            dict(m=2, n=(), r=()),
            dict(m=2, n=(2, 2), r=(1,)),
            dict(m=2, n=(0,), r=(1,)),
            dict(m=2, n=(2,), r=(0,)),
            dict(m=2, n=(2,), r=(3,)),
            # values int() would coerce into a different partition
            dict(m=1.7, n=(2,), r=(1,)),
            dict(m=True, n=(2,), r=(1,)),
            dict(m=2, n=("2",), r=(1,)),
            dict(m=2, n=(2.0,), r=(1,)),
            dict(m=2, n=(2,), r=(True,)),
            dict(m="2", n=(2,), r=(1,)),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidInput):
            SensorPartition(**kwargs)

    def test_numpy_integers_pass(self):
        part = SensorPartition(m=np.int64(3), n=(np.int32(3), 4), r=(np.uint8(1), 2))
        assert part == SensorPartition(m=3, n=(3, 4), r=(1, 2))
        assert type(part.m) is int and all(type(v) is int for v in part.n + part.r)


class TestEstimateMoments:
    def test_single_sample(self):
        v = np.array([[1.0], [2.0]])
        part = SensorPartition(m=2, n=(2,), r=(1,))
        model = estimate_moments(SampleEnsemble(x=v, y=v), part)
        assert np.allclose(model.e_xy, v @ v.T)

    def test_orthonormal_design(self):
        # rows of X orthogonal with norm sqrt(s) -> e_xx = I
        s = 4
        x = np.sqrt(s) * np.linalg.qr(np.random.default_rng(0).standard_normal((s, 2)))[0].T
        part = SensorPartition(m=2, n=(2,), r=(1,))
        model = estimate_moments(SampleEnsemble(x=x, y=x), part)
        assert np.allclose(model.e_xx, np.eye(2), atol=1e-12)

    def test_matches_explicit_sum(self):
        rng = np.random.default_rng(1)
        m, s = 2, 4
        part = SensorPartition(m=m, n=(1, 2), r=(1, 1))
        x = rng.standard_normal((m, s))
        y = rng.standard_normal((3, s))
        model = estimate_moments(SampleEnsemble(x=x, y=y), part)
        e_xy = sum(np.outer(x[:, k], y[:, k]) for k in range(s)) / s
        assert np.allclose(model.e_xy, e_xy, atol=1e-14)

    def test_joint_matrix_is_psd(self):
        rng = np.random.default_rng(2)
        part = SensorPartition(m=3, n=(2, 2), r=(1, 1))
        ens = SampleEnsemble(
            x=rng.standard_normal((3, 5)), y=rng.standard_normal((4, 5))
        )
        model = estimate_moments(ens, part)
        joint = np.block([[model.e_xx, model.e_xy], [model.e_xy.T, model.e_yy]])
        assert np.linalg.eigvalsh(joint).min() >= -1e-8

    def test_block_roundtrip_bit_for_bit(self):
        rng = np.random.default_rng(3)
        part = SensorPartition(m=2, n=(2, 3, 1), r=(1, 2, 1))
        ens = SampleEnsemble(
            x=rng.standard_normal((2, 6)), y=rng.standard_normal((6, 6))
        )
        model = estimate_moments(ens, part)
        rebuilt = np.block(
            [
                [model.e_yy[part.y_slice(i), part.y_slice(j)] for j in range(3)]
                for i in range(3)
            ]
        )
        assert np.array_equal(rebuilt, model.e_yy)

    @pytest.mark.parametrize("n", [128, 256])
    def test_peak_is_two_copies_of_the_moments(self, n):
        # each moment's product is scaled and symmetrized in place, so the
        # estimate holds at most the moments and the model's copies of them,
        # plus one ufunc buffer for the transposed operand. Below NumPy's
        # 256 KiB temporary elision (N = 128) a chain of temporaries held
        # three N x N arrays at once.
        m, s = 32, 300
        rng = np.random.default_rng(4)
        part = SensorPartition(m=m, n=(n // 8,) * 8, r=(4,) * 8)
        ens = SampleEnsemble(
            x=rng.standard_normal((m, s)), y=rng.standard_normal((n, s))
        )
        tracemalloc.start()
        try:
            estimate_moments(ens, part)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * (n * n + m * n + m * m) + 8 * np.getbufsize()

    def test_shape_mismatch(self):
        part = SensorPartition(m=2, n=(2,), r=(1,))
        ens = SampleEnsemble(x=np.ones((3, 2)), y=np.ones((2, 2)))
        with pytest.raises(InvalidInput):
            estimate_moments(ens, part)
        ens = SampleEnsemble(x=np.ones((2, 2)), y=np.ones((3, 2)))
        with pytest.raises(InvalidInput, match="y has 3 rows"):
            estimate_moments(ens, part)


class TestSampleEnsemble:
    @pytest.mark.parametrize(
        "x, y, match",
        [
            (np.ones(3), np.ones((2, 3)), "2-d"),
            (np.ones((2, 3)), np.ones((2, 3, 1)), "2-d"),
            (np.ones((2, 3)), np.ones((2, 4)), "sample counts differ"),
            (np.ones((2, 0)), np.ones((2, 0)), "at least one sample"),
        ],
        ids=["x_1d", "y_3d", "counts_differ", "no_samples"],
    )
    def test_malformed_rejected(self, x, y, match):
        with pytest.raises(InvalidInput, match=match):
            SampleEnsemble(x=x, y=y)

    @pytest.mark.parametrize(
        "x",
        [
            np.array([[200, 100]], dtype=np.uint8),
            np.array([[2**32, 1]], dtype=np.int64),
        ],
        ids=["uint8", "int64"],
    )
    def test_integer_samples_give_the_moments_of_their_float64_copies(self, x):
        # an integer product would wrap: 200 * 200 in uint8, 2**64 in int64
        part = SensorPartition(m=1, n=(1,), r=(1,))
        x64 = x.astype(np.float64)
        ens = SampleEnsemble(x=x64, y=x64)
        assert ens.x is x64 and ens.y is x64
        got = estimate_moments(SampleEnsemble(x=x, y=x), part)
        want = estimate_moments(ens, part)
        for name in ("e_xx", "e_xy", "e_yy"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestSecondMomentModel:
    @pytest.mark.parametrize("name", ["e_xx", "e_xy", "e_yy"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    def test_non_finite_moment_or_norm_rejected(self, name, value):
        # 1e200 is finite, but the Frobenius norm of a matrix of them is not
        model = example1_model()
        moments = {k: getattr(model, k).copy() for k in ("e_xx", "e_xy", "e_yy")}
        moments[name][...] = value
        with pytest.raises(InvalidInput, match=f"{name} or its norm"):
            SecondMomentModel(partition=model.partition, **moments)

    @pytest.mark.parametrize("name", ["e_xx", "e_xy", "e_yy"])
    def test_wrong_shape_rejected(self, name):
        model = example1_model()
        moments = {k: getattr(model, k) for k in ("e_xx", "e_xy", "e_yy")}
        moments[name] = moments[name][:, :-1]
        with pytest.raises(InvalidInput, match=f"{name} must be"):
            SecondMomentModel(partition=model.partition, **moments)


class TestJointModelFromFactor:
    def test_identity_factor(self):
        part = SensorPartition(m=2, n=(3,), r=(1,))
        model = joint_model_from_factor(np.eye(5), part)
        assert np.array_equal(model.e_xx, np.eye(2))
        assert np.array_equal(model.e_xy, np.zeros((2, 3)))
        assert np.array_equal(model.e_yy, np.eye(3))

    def test_noiseless_observation(self):
        # y-rows duplicate the x-rows -> e_xy = e_xx
        rng = np.random.default_rng(4)
        ax = rng.standard_normal((2, 6))
        part = SensorPartition(m=2, n=(2,), r=(1,))
        model = joint_model_from_factor(np.vstack([ax, ax]), part)
        assert np.allclose(model.e_xy, model.e_xx)

    def test_joint_psd(self):
        rng = np.random.default_rng(5)
        part = SensorPartition(m=3, n=(2, 2), r=(2, 1))
        model = joint_model_from_factor(rng.standard_normal((7, 4)), part)
        joint = np.block([[model.e_xx, model.e_xy], [model.e_xy.T, model.e_yy]])
        assert np.linalg.eigvalsh(joint).min() >= -1e-9

    def test_wrong_rows(self):
        part = SensorPartition(m=2, n=(2,), r=(1,))
        with pytest.raises(InvalidInput):
            joint_model_from_factor(np.eye(3), part)


class TestExample1Model:
    def test_values(self):
        model = example1_model()
        assert model.e_xx[0, 0] == 0.585
        assert np.allclose(
            model.e_yy[:3, :3], model.e_xx + 0.04 * np.eye(3), atol=1e-15
        )
        assert np.allclose(
            model.e_yy[3:, 3:], model.e_xx + 0.16 * np.eye(3), atol=1e-15
        )
        assert np.array_equal(model.e_xy[:, :3], model.e_xx)
        assert np.array_equal(model.e_xy[:, 3:], model.e_xx)
        assert model.partition.r == (1, 1)


def _count_roots(monkeypatch) -> list:
    """The shapes of the E_yy the solver takes a root of, one per call."""
    calls = []
    real = solver.psd_sqrt

    def counting(c, *args, **kwargs):
        calls.append(c.shape)
        return real(c, *args, **kwargs)

    monkeypatch.setattr(solver, "psd_sqrt", counting)
    return calls


class TestModelCache:
    def test_one_root_per_model(self, monkeypatch):
        calls = _count_roots(monkeypatch)
        rng = np.random.default_rng(7)
        part = SensorPartition(m=3, n=(3, 2), r=(2, 1))
        model = joint_model_from_factor(rng.standard_normal((8, 10)), part)
        bank = CompressorBank.zeros(part)
        mbi_solve(model, bank, MbiConfig(max_iterations=2))
        for _ in range(4):
            analytic_mse(model, bank)
        assert calls == [(5, 5)]

    def test_a_replaced_model_forms_its_own_root(self, monkeypatch):
        # dataclasses.replace makes a new model: nothing a solve formed or
        # kept for the old one reaches it, so it solves as a fresh model does
        rng = np.random.default_rng(8)
        part = SensorPartition(m=3, n=(3, 2), r=(2, 1))
        model = joint_model_from_factor(rng.standard_normal((8, 10)), part)
        cfg = MbiConfig(epsilon=0.0, max_iterations=4)
        bank, _ = mbi_solve(model, CompressorBank.zeros(part), cfg)
        e_yy = model.e_yy + np.eye(5)
        calls = _count_roots(monkeypatch)
        got, trace = mbi_solve(dataclasses.replace(model, e_yy=e_yy), bank, cfg)
        assert calls == [(5, 5)]
        fresh = SecondMomentModel(part, model.e_xx, model.e_xy, e_yy)
        want, want_trace = mbi_solve(fresh, bank, cfg)
        assert [b.tobytes() for b in got.blocks] == [b.tobytes() for b in want.blocks]
        assert trace.objective_per_iteration == want_trace.objective_per_iteration
        assert trace.mse_per_iteration == want_trace.mse_per_iteration
        assert trace.chosen_block_per_iteration == want_trace.chosen_block_per_iteration

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, lambda model: pickle.loads(pickle.dumps(model))],
        ids=["copy", "pickle"],
    )
    def test_a_copy_holds_the_moments_alone(self, duplicate):
        # the set-up and resume state a solve kept stay with the original;
        # the copy forms its own and solves as the original did, bit for bit
        rng = np.random.default_rng(9)
        part = SensorPartition(m=3, n=(3, 2), r=(2, 1))
        model = joint_model_from_factor(rng.standard_normal((8, 10)), part)
        cfg = MbiConfig(epsilon=0.0, max_iterations=4)
        start = CompressorBank.zeros(part)
        want, want_trace = mbi_solve(model, start, cfg)
        twin = duplicate(model)
        assert vars(twin).keys() == {"partition", "e_xx", "e_xy", "e_yy"}
        assert len(pickle.dumps(model)) == len(pickle.dumps(twin))
        got, trace = mbi_solve(twin, start, cfg)
        assert [b.tobytes() for b in got.blocks] == [b.tobytes() for b in want.blocks]
        assert trace.objective_per_iteration == want_trace.objective_per_iteration
        assert trace.mse_per_iteration == want_trace.mse_per_iteration
        assert trace.chosen_block_per_iteration == want_trace.chosen_block_per_iteration

    def test_the_moments_a_set_up_was_formed_from_cannot_change(self):
        # scaling the moments in place once left the kept set-up stale: the
        # MSE read 4.0305 where a model of the scaled moments gives 2.0914
        model = example1_model()
        bank = init_bank(model)
        mse = analytic_mse(model, bank)
        with pytest.raises(ValueError, match="read-only"):
            model.e_xx[...] *= 4
        with pytest.raises(ValueError, match="read-only"):
            model.e_xy[...] *= 2
        assert analytic_mse(model, bank) == mse == analytic_mse(example1_model(), bank)

    def test_a_solved_model_is_freed_once_dropped(self):
        # the set-up and resume state kept beside a model hold no reference
        # to it, so they keep it alive no longer than its owner does
        model = example1_model()
        mbi_solve(model, CompressorBank.zeros(model.partition), MbiConfig())
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_not_psd_raises_every_time(self):
        part = SensorPartition(m=1, n=(2,), r=(1,))
        model = SecondMomentModel(
            partition=part,
            e_xx=np.eye(1),
            e_xy=np.ones((1, 2)),
            e_yy=np.diag([1.0, -1.0]),
        )
        bank = CompressorBank.zeros(part)
        for _ in range(2):  # a failed root is not cached
            with pytest.raises(NotPsd):
                mbi_solve(model, bank)
            with pytest.raises(NotPsd):
                analytic_mse(model, bank)
