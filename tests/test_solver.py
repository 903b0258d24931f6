"""Tests for the block solver and the MBI iteration, stated through the
public contract: ``mbi_solve`` solves from the model itself; a bank's
objective is what a solve records for it, its analytic MSE less the Wiener
MSE; and each step is checked against the per-block KLT oracle of
``conftest``."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ONE_SWEEP,
    best_block,
    block_step,
    direct_mse,
    explained_energy,
    joint_model_from_factor,
    noisy_model,
    random_model,
    recorded_mse,
    recorded_objective,
)
from kltmbi import (
    CompressorBank,
    DegenerateTruncationWarning,
    InvalidInput,
    MbiConfig,
    NotPsd,
    ScenarioSpec,
    SensorPartition,
    analytic_mse,
    estimate_moments,
    example1_model,
    factorize_wsn,
    generate,
    init_bank,
    mbi_solve,
)
from kltmbi import solver
from kltmbi.covariance import SecondMomentModel
from kltmbi.linalg import psd_sqrt, svd
from kltmbi.solver import klt_matrix


class TestRecordedObjectiveAndMse:
    def test_identity_e_yy(self):
        # E_yy = I leaves the target E_xy as it is: the objective of F is
        # ||E_xy - F||^2
        rng = np.random.default_rng(0)
        part = SensorPartition(m=2, n=(2, 2), r=(1, 1))
        e_xy = np.arange(8.0).reshape(2, 4)
        model = SecondMomentModel(
            partition=part, e_xx=np.eye(2), e_xy=e_xy, e_yy=np.eye(4)
        )
        for bank in (
            CompressorBank.zeros(part),
            CompressorBank(
                blocks=(rng.standard_normal((2, 2)), rng.standard_normal((2, 2))),
                partition=part,
            ),
        ):
            want = np.linalg.norm(e_xy - bank.full()) ** 2
            assert recorded_objective(model, bank) == pytest.approx(want, rel=1e-12)

    def test_noiseless_single_sensor(self):
        part = SensorPartition(m=3, n=(3,), r=(3,))
        model = SecondMomentModel(
            partition=part, e_xx=np.eye(3), e_xy=np.eye(3), e_yy=np.eye(3)
        )
        zero = CompressorBank.zeros(part)
        assert recorded_objective(model, zero) == pytest.approx(3.0)
        identity = CompressorBank(blocks=(np.eye(3),), partition=part)
        assert recorded_objective(model, identity) == pytest.approx(0.0, abs=1e-18)
        bank, _ = mbi_solve(model, zero, ONE_SWEEP)
        assert np.allclose(bank.blocks[0], np.eye(3))

    def test_g_blocks_stack_to_root(self):
        # the solve reads the root and target analytic_mse reads: the MSE it
        # records for a bank is the bank's analytic MSE, bit for bit
        rng = np.random.default_rng(0)
        model = random_model(rng, 3, (2, 3), (1, 2))
        for _ in range(3):
            bank = CompressorBank(
                blocks=(rng.standard_normal((3, 2)), rng.standard_normal((3, 3))),
                partition=model.partition,
            )
            assert analytic_mse(model, bank) == recorded_mse(model, bank)

    def test_cached_projectors(self):
        # the screen's bases and the block solve's projectors pick and
        # reach the oracle's best block at every step, from either start
        rng = np.random.default_rng(1)
        model = random_model(rng, 2, (3, 2), (2, 1), extra_cols=1)
        for start in (init_bank(model), CompressorBank.zeros(model.partition)):
            _, trace = mbi_solve(
                model, start, MbiConfig(epsilon=0.0, max_iterations=10)
            )
            _assert_oracle_sweeps(model, trace)

    def test_trace_expansion_identity(self):
        # the reduced objective and the direct second-moment expansion of the
        # estimation error agree for consistent joint models
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, (2, 2), (1, 1))
        for _ in range(5):
            bank = CompressorBank(
                blocks=(rng.standard_normal((3, 2)), rng.standard_normal((3, 2))),
                partition=model.partition,
            )
            reduced = recorded_mse(model, bank)
            assert direct_mse(model, bank) == pytest.approx(reduced, rel=1e-8)
            assert analytic_mse(model, bank) == pytest.approx(reduced, rel=1e-8)


class TestObjective:
    def test_zero_bank(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, (2, 2), (1, 1))
        bank = CompressorBank.zeros(model.partition)
        want = explained_energy(model)
        assert recorded_objective(model, bank) == pytest.approx(want)
        assert analytic_mse(model, bank) == pytest.approx(np.trace(model.e_xx))

    def test_exact_fit_single_sensor(self):
        part = SensorPartition(m=2, n=(3,), r=(3,))
        model = SecondMomentModel(
            partition=part,
            e_xx=np.eye(2),
            e_xy=np.arange(6.0).reshape(2, 3),
            e_yy=np.eye(3),
        )
        # the Wiener filter E_xy E_yy^+
        wiener = model.e_xy @ svd(model.e_yy).pinv()
        bank = CompressorBank(blocks=(wiener,), partition=part)
        assert recorded_objective(model, bank) == pytest.approx(0.0, abs=1e-18)

    def test_matches_entrywise_sum(self):
        # ||H - F E_yy^(1/2)||^2 with H = E_xy (E_yy^(1/2))^+, summed entry
        # by entry from a root formed here
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, (2, 3), (1, 2))
        bank = CompressorBank(
            blocks=(rng.standard_normal((3, 2)), rng.standard_normal((3, 3))),
            partition=model.partition,
        )
        root = psd_sqrt(model.e_yy)
        resid = model.e_xy @ svd(root).pinv() - bank.full() @ root
        brute = sum(v * v for v in resid.ravel())
        assert recorded_objective(model, bank) == pytest.approx(brute, rel=1e-12)


class TestRankConstrainedLsq:
    """The block step: the minimum-norm minimizer of ||s - F g||_F over
    rank-<=r matrices F, taken by one MBI sweep on the single-sensor model
    whose MSE of F is that residual (``conftest.block_step``)."""

    def test_identity_g_unconstrained(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((3, 4))
        assert np.allclose(block_step(s, np.eye(4), 4), s)

    def test_zero_g(self):
        s = np.ones((2, 3))
        out = block_step(s, np.zeros((3, 3)), 1)
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(6)
        m, nj, r = 3, 5, 2
        s = rng.standard_normal((m, 5))
        g = rng.standard_normal((nj, 5)) + np.eye(5)
        f_opt = block_step(s, g, r)
        assert np.linalg.matrix_rank(f_opt) <= r
        res_opt = np.linalg.norm(s - f_opt @ g)
        cand_a = rng.standard_normal((2000, m, r))
        cand_b = rng.standard_normal((2000, r, nj))
        res = np.linalg.norm(s[None] - (cand_a @ cand_b) @ g, axis=(1, 2))
        assert res_opt <= res.min() + 1e-9

    def test_eckart_young_tail_on_invertible_g(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((4, 5))
        g = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        for r in (1, 2, 3):
            f_opt = block_step(s, g, r)
            sigma = np.linalg.svd(s, compute_uv=False)  # R_G = I here
            tail = np.sqrt((sigma[r:] ** 2).sum())
            assert np.linalg.norm(s - f_opt @ g) == pytest.approx(tail, abs=1e-8)

    # a non-unique block solution is reported by DegenerateTruncationWarning
    def test_strict_gap_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateTruncationWarning)
            block_step(np.diag([3.0, 1.0]), np.eye(2), 1)

    def test_tied_singular_values_warn(self):
        with pytest.warns(DegenerateTruncationWarning):
            block_step(2 * np.eye(2), np.eye(2), 1)

    def test_full_rank_cut_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateTruncationWarning)
            block_step(np.diag([2.0, 2.0]), np.eye(2), 2)


class TestKltSingle:
    def test_perfect_recovery(self):
        part = SensorPartition(m=3, n=(3,), r=(3,))
        model = SecondMomentModel(
            partition=part, e_xx=np.eye(3), e_xy=np.eye(3), e_yy=np.eye(3)
        )
        assert np.allclose(klt_matrix(model.e_xy, model.e_yy, 3), np.eye(3), atol=1e-10)

    def test_full_rank_equals_wiener_filter(self):
        rng = np.random.default_rng(8)
        model = noisy_model(rng, 3, (4,), (4,))
        wiener = model.e_xy @ np.linalg.inv(model.e_yy)
        assert np.allclose(klt_matrix(model.e_xy, model.e_yy, 3), wiener, atol=1e-8)

    def test_rank_bound(self):
        model = example1_model()
        y0 = model.partition.y_slice(0)
        f = klt_matrix(model.e_xy[:, y0], model.e_yy[y0, y0], 1)
        assert np.linalg.matrix_rank(f) <= 1


class TestInitBank:
    def test_single_sensor_equals_klt(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 3, (4,), (2,))
        bank = init_bank(model)
        klt = klt_matrix(model.e_xy, model.e_yy, 2)
        assert np.allclose(bank.blocks[0], klt, atol=1e-12)

    def test_noiseless_blockdiag_recovery(self):
        # y_j = x_j with r_j = m_j: the warm start is already exact
        rng = np.random.default_rng(10)
        ax = rng.standard_normal((4, 12))
        part = SensorPartition(m=4, n=(2, 2), r=(2, 2))
        model = joint_model_from_factor(np.vstack([ax, ax]), part)
        bank = init_bank(model)  # splits x into rows (0, 1) and (2, 3)
        assert recorded_objective(model, bank) == pytest.approx(0.0, abs=1e-16)

    def test_fallback_zero_bank_when_m_below_p(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 1, (2, 2), (1, 1))
        bank = init_bank(model)
        assert all(np.array_equal(b, np.zeros_like(b)) for b in bank.blocks)

    def test_rank_feasible(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, 5, (4, 3), (2, 1))
        bank = init_bank(model)
        for b, r in zip(bank.blocks, model.partition.r):
            assert np.linalg.matrix_rank(b) <= r


class TestMbiStep:
    def test_fixed_point(self):
        rng = np.random.default_rng(13)
        model = noisy_model(rng, 3, (3, 3), (2, 2))
        bank, solved = mbi_solve(
            model, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=200)
        )
        f_before = solved.objective_per_iteration[-1]
        _, trace = mbi_solve(model, bank, ONE_SWEEP)
        assert abs(trace.objective_per_iteration[-1] - f_before) <= 1e-12

    def test_single_sensor_step_is_klt(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, 4, (5,), (2,))
        bank, _ = mbi_solve(model, CompressorBank.zeros(model.partition), ONE_SWEEP)
        k = klt_matrix(model.e_xy, model.e_yy, 2)
        assert np.linalg.norm(bank.blocks[0] - k) <= 1e-8 * max(1, np.linalg.norm(k))

    def test_strict_decrease_from_warm_start(self):
        model = example1_model()
        start = init_bank(model)
        _, trace = mbi_solve(model, start, ONE_SWEEP)
        assert trace.objective_per_iteration[-1] < trace.objective_per_iteration[0]

    def test_tie_breaks_to_lowest_index(self):
        # symmetric two-sensor setup: both candidates improve equally
        part = SensorPartition(m=2, n=(2, 2), r=(1, 1))
        model = SecondMomentModel(
            partition=part,
            e_xx=np.eye(2),
            e_xy=np.hstack([np.eye(2), np.eye(2)]),
            e_yy=np.block([[2 * np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), 2 * np.eye(2)]]),
        )
        # the committed block's truncation is itself degenerate (sigma_1 = sigma_2)
        with pytest.warns(DegenerateTruncationWarning):
            _, trace = mbi_solve(model, CompressorBank.zeros(part), ONE_SWEEP)
        assert trace.chosen_block_per_iteration == [0]


class TestMbiSolve:
    def test_infinite_epsilon_returns_init(self):
        model = example1_model()
        start = init_bank(model)
        bank, trace = mbi_solve(model, start, MbiConfig(epsilon=np.inf))
        assert trace.iterations_used == 0
        assert len(trace.objective_per_iteration) == 1
        assert trace.converged
        assert all(np.array_equal(a, b) for a, b in zip(bank.blocks, start.blocks))

    def test_zero_source_stops_once_nothing_improves(self):
        # tr E_xx = 0 scales no threshold: even epsilon = inf stops only once
        # a sweep gains nothing, where the NaN of inf * 0 would never stop
        part = SensorPartition(m=2, n=(2, 2), r=(1, 1))
        model = SecondMomentModel(
            partition=part,
            e_xx=np.zeros((2, 2)),
            e_xy=np.zeros((2, 4)),
            e_yy=np.eye(4),
        )
        start = CompressorBank(blocks=(np.ones((2, 2)),) * 2, partition=part)
        cfg = MbiConfig(epsilon=np.inf)
        bank, trace = mbi_solve(model, start, cfg)
        assert trace.converged and trace.iterations_used == 2
        assert analytic_mse(model, bank) == 0.0

    def test_finite_epsilon_stops_on_incumbent(self):
        # epsilon whose threshold epsilon * tr E_xx is sweep t's gain in an
        # epsilon=0 run, where every earlier sweep gained more, stops the
        # solve at sweep t uncommitted
        model = noisy_model(np.random.default_rng(1), 4, (3, 4, 2), (1, 1, 1))
        start = init_bank(model)
        _, ref = mbi_solve(model, start, MbiConfig(epsilon=0.0, max_iterations=30))
        assert not ref.converged
        gains = -np.diff(ref.objective_per_iteration)
        stops = [t for t in range(2, 31) if gains[t - 1] < gains[: t - 1].min()]
        assert len(stops) > 10
        tr = float(np.trace(model.e_xx))
        for t in stops:
            epsilon = gains[t - 1] / tr
            while epsilon * tr < gains[t - 1]:  # undo the quotient's rounding
                epsilon = np.nextafter(epsilon, np.inf)
            bank, trace = mbi_solve(
                model, start, MbiConfig(epsilon=epsilon, max_iterations=30)
            )
            assert trace.converged and trace.iterations_used == t - 1
            assert trace.objective_per_iteration == ref.objective_per_iteration[:t]
            assert trace.chosen_block_per_iteration == (
                ref.chosen_block_per_iteration[: t - 1]
            )
            ref_bank = ref.banks[t - 1]
            assert all(map(np.array_equal, bank.blocks, ref_bank.blocks))

    def test_benchmark_model_converges(self):
        model = example1_model()
        bank, trace = mbi_solve(
            model, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=2000)
        )
        assert trace.converged
        diffs = np.diff(trace.objective_per_iteration)
        assert np.all(diffs <= 0)

    def test_monotone_and_rank_feasible(self):
        rng = np.random.default_rng(15)
        model = noisy_model(rng, 4, (3, 4, 2), (2, 2, 1))
        bank, trace = mbi_solve(model, init_bank(model), MbiConfig(max_iterations=50))
        assert np.all(np.diff(trace.objective_per_iteration) <= 0)
        for recorded in trace.banks:
            for b, r in zip(recorded.blocks, model.partition.r):
                assert np.linalg.matrix_rank(b) <= r

    def test_stationarity_at_convergence(self):
        rng = np.random.default_rng(16)
        model = noisy_model(rng, 3, (4, 3), (2, 1))
        bank, trace = mbi_solve(
            model, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=300)
        )
        assert trace.converged
        f0 = direct_mse(model, bank)
        for j in range(model.partition.p):
            cand = best_block(model, bank, j)
            assert f0 - direct_mse(model, bank.replace(j, cand)) < 1e-9

    def test_trace_off_skips_banks(self):
        model = example1_model()
        _, trace = mbi_solve(
            model, init_bank(model), MbiConfig(max_iterations=3, record_trace=False)
        )
        assert trace.banks is None

    def test_invalid_config(self):
        for kwargs in (
            dict(epsilon=-1.0),
            dict(epsilon=np.nan),
            dict(epsilon="x"),
            dict(epsilon=True),
            dict(epsilon=10**400),
            dict(max_iterations=0),
            dict(max_iterations=2.5),
            dict(max_iterations=True),
            dict(max_iterations="3"),
            # "no" is truthy: taken as it is, it would record the trace
            dict(record_trace="no"),
            dict(record_trace=0),
            dict(record_trace=None),
        ):
            with pytest.raises(InvalidInput):
                MbiConfig(**kwargs)

    def test_numpy_bool_record_trace_passes(self):
        model = example1_model()
        cfg = MbiConfig(max_iterations=3, record_trace=np.False_)
        assert mbi_solve(model, init_bank(model), cfg)[1].banks is None

    def test_numpy_numbers_pass(self):
        cfg = MbiConfig(epsilon=np.float32(0.5), max_iterations=np.int64(3))
        assert type(cfg.epsilon) is float and type(cfg.max_iterations) is int
        assert (cfg.epsilon, cfg.max_iterations) == (0.5, 3)

    def test_start_of_another_partition_is_rejected(self):
        # another rank bound would let the solve keep a block of rank 2 where
        # r_j = 1; another m or n would fail inside NumPy
        model = example1_model(r=(1, 1))
        for start in (
            init_bank(example1_model(r=(3, 3))),
            CompressorBank.zeros(SensorPartition(m=3, n=(3, 2), r=(1, 1))),
            CompressorBank.zeros(SensorPartition(m=2, n=(3, 3), r=(1, 1))),
        ):
            with pytest.raises(InvalidInput, match="start bank"):
                mbi_solve(model, start)

    def test_not_psd_raises_before_any_step(self, monkeypatch):
        # E_yy's negative eigenvalue lies just below, then just inside, the
        # band [-1e-8 * ||E_yy||, 0) that is clamped as estimation noise
        solves = _count_candidates(monkeypatch)
        part = SensorPartition(m=1, n=(2, 1), r=(1, 1))
        start = CompressorBank.zeros(part)

        def model(neg):  # ||E_yy|| = sqrt(2) to within 1e-16
            e_yy = np.diag([1.0, 1.0, neg * np.sqrt(2.0)])
            return SecondMomentModel(
                partition=part, e_xx=np.eye(1), e_xy=np.ones((1, 3)), e_yy=e_yy
            )

        with pytest.raises(NotPsd):
            mbi_solve(model(-2e-8), start)
        assert solves == []
        _, trace = mbi_solve(model(-0.5e-8), start, ONE_SWEEP)
        assert len(solves) == 1 and trace.chosen_block_per_iteration == [0]


class TestCompressorBank:
    def test_rejects_non_finite_blocks(self):
        part = SensorPartition(m=2, n=(2, 1), r=(1, 1))
        bank = CompressorBank.zeros(part)
        for bad in (np.nan, np.inf, -np.inf):
            block = np.zeros((2, 2))
            block[1, 0] = bad
            with pytest.raises(InvalidInput, match="block 0"):
                CompressorBank(blocks=(block, np.zeros((2, 1))), partition=part)
            with pytest.raises(InvalidInput, match="block 0"):
                bank.replace(0, block)

    def test_rejects_wrong_blocks(self):
        part = SensorPartition(m=2, n=(2, 1), r=(1, 1))
        with pytest.raises(InvalidInput, match="one block per sensor"):
            CompressorBank(blocks=(np.zeros((2, 2)),), partition=part)
        with pytest.raises(InvalidInput, match="block 1 must be"):
            CompressorBank(blocks=(np.zeros((2, 2)), np.zeros((2, 2))), partition=part)

    def test_apply_needs_n_total_rows(self):
        bank = CompressorBank.zeros(SensorPartition(m=2, n=(2, 1), r=(1, 1)))
        with pytest.raises(InvalidInput, match="3 rows"):
            bank.apply(np.zeros((2, 4)))

    @pytest.mark.parametrize("j, k", [(1, 1), (-1, 2), (-3, 0), (np.int64(2), 2)])
    def test_replace_checks_only_the_block_it_puts_in(self, monkeypatch, j, k):
        part = SensorPartition(m=2, n=(2, 1, 3), r=(1, 1, 1))
        bank = CompressorBank.zeros(part)
        checked = []
        real = solver._real_array

        def spy(a, name, *args, **kwargs):
            checked.append(name)
            return real(a, name, *args, **kwargs)

        monkeypatch.setattr(solver, "_real_array", spy)
        block = np.ones((2, part.n[k]))
        new = bank.replace(j, block)
        assert checked == [f"block {k}"]
        assert new.partition is part and new.blocks[k] is block
        kept = [i for i in range(part.p) if i != k]
        assert all(new.blocks[i] is bank.blocks[i] for i in kept)
        assert not bank.blocks[k].any()

    # True would replace block 1, 1.0 ended in TypeError and 3 = p in
    # IndexError
    @pytest.mark.parametrize("j", [True, np.True_, 1.0, "1", None, 3, -4, 2**70])
    def test_replace_rejects_an_index_that_is_not_a_block(self, j):
        bank = CompressorBank.zeros(SensorPartition(m=2, n=(2, 1, 3), r=(1, 1, 1)))
        with pytest.raises(InvalidInput, match=r"\bj\b"):
            bank.replace(j, np.ones((2, 1)))


def _identical_sensors_model(rng):
    # sensors 0 and 1 observe the same signal: in exact arithmetic they tie
    part = SensorPartition(m=3, n=(3, 3, 2), r=(1, 1, 1))
    x = rng.standard_normal((3, 14))
    y0 = rng.standard_normal((3, 3)) @ x + 0.3 * rng.standard_normal((3, 14))
    y2 = rng.standard_normal((2, 3)) @ x + 0.3 * rng.standard_normal((2, 14))
    return joint_model_from_factor(np.vstack([x, y0, y0, y2]), part)


def _sampled_model(seed):
    # s = 3 samples of N = 12 observations: E_yy has rank 3, psd_sqrt keeps
    # no round-off rank, so each G_j has numeric rank 3 and cond(G_j) < 30
    part = SensorPartition(m=4, n=(4, 4, 4), r=(2, 1, 2))
    spec = ScenarioSpec(
        kind="linear_mixing", partition=part, s=3, sigmas=(0.3,) * 3, seed=seed
    )
    return estimate_moments(generate(spec), part)


def _silent_sensor_model(rng):
    # sensor 1 observes nothing: E_11 = 0 exactly, and its rows of E_yy^(1/2)
    # are round-off, which must count for rank 0
    part = SensorPartition(m=3, n=(3, 2, 3), r=(1, 1, 2))
    a = rng.standard_normal((11, 14))
    a[6:8] = 0.0
    return joint_model_from_factor(a, part)


def _forced_screen(j, p):
    """A stand-in for the solver's screen that scores block ``j`` lowest."""
    return lambda *args: np.where(np.arange(p) == j, -1.0, 0.0)


def _assert_oracle_sweeps(model, trace):
    """Check a recorded solve against the per-block KLT oracle, to within
    tol = 1e-12 ||H||^2 (||H||^2 = tr(E_xy E_yy^+ E_yx), the objective of
    the zero bank). Each recorded MSE is its bank's direct MSE. From each
    recorded bank, every block's oracle step is scored by its direct MSE;
    the committed step reaches the best of them to within tol, and it is the
    best one wherever no other block is within tol of it, so that without
    such near-ties the chosen sequence is the oracle's. A converged solve
    ends where no oracle block does better."""
    p = model.partition.p
    tol = 1e-12 * explained_energy(model)
    mse = trace.mse_per_iteration
    for f, bank in zip(mse, trace.banks):
        assert abs(f - direct_mse(model, bank)) <= tol
    chosen = trace.chosen_block_per_iteration
    checked = trace.banks if trace.converged else trace.banks[:-1]
    for t, bank in enumerate(checked):
        scores = [
            direct_mse(model, bank.replace(j, best_block(model, bank, j)))
            for j in range(p)
        ]
        best = min(scores)
        if t == len(chosen):  # the sweep that stopped the solve
            assert mse[t] <= best + tol
            continue
        assert mse[t + 1] <= best + tol
        runner_up = sorted(scores)[1] if p > 1 else np.inf
        if runner_up > best + tol:
            assert chosen[t] == scores.index(best)


def _count_candidates(monkeypatch):
    calls = []
    real = solver._block_solve

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_block_solve", spy)
    return calls


# Models whose sensors have unequal numeric ranks k_j (r_is_1, random), a
# rank-deficient E_yy, tied sensors and a silent sensor with k_j = 0.
SCREENED_MODELS = [
    pytest.param(lambda rng: noisy_model(rng, 4, (3, 4, 2), (1, 1, 1)), id="r_is_1"),
    pytest.param(lambda rng: noisy_model(rng, 4, (3, 2, 2), (3, 2, 2)), id="r_is_n"),
    pytest.param(
        lambda rng: random_model(rng, 5, (4, 3, 3, 2), (2, 1, 3, 1)), id="random"
    ),
    pytest.param(
        lambda rng: _sampled_model(int(rng.integers(1000))), id="rank_deficient_e_yy"
    ),
    pytest.param(_identical_sensors_model, id="identical_sensors"),
    pytest.param(_silent_sensor_model, id="silent_sensor"),
]


class TestScreenedSweepEquivalence:
    """mbi_solve scores every candidate from the row bases and solves only
    the best-scored one in full. Each sweep is checked against an exhaustive
    sweep of the per-block KLT oracle from the same bank: it commits the
    oracle's best block, or, where blocks tie to rounding, one within
    rounding of it."""

    @pytest.mark.parametrize("make_model", SCREENED_MODELS)
    def test_matches_exhaustive_sweep(self, make_model):
        # from the zero bank, tied blocks are separated only by rounding
        for seed in range(10):
            model = make_model(np.random.default_rng(100 + seed))
            for start in (init_bank(model), CompressorBank.zeros(model.partition)):
                _, trace = mbi_solve(
                    model, start, MbiConfig(epsilon=0.0, max_iterations=30)
                )
                _assert_oracle_sweeps(model, trace)

    @pytest.mark.parametrize(
        "make_model",
        [
            lambda: _sampled_model(3),
            lambda: _sampled_model(5),
            lambda: noisy_model(np.random.default_rng(1), 4, (3, 4, 2), (1, 1, 1)),
        ],
        ids=["sampled_seed3", "sampled_seed5", "noisy"],
    )
    def test_screen_runs_every_sweep(self, monkeypatch, make_model):
        screens = []
        real = solver._screen

        def spy(*args):
            screens.append(1)
            return real(*args)

        monkeypatch.setattr(solver, "_screen", spy)
        solves = _count_candidates(monkeypatch)
        model = make_model()
        # from the zero bank: the warm start already fits the s = 3 sampled
        # models to round-off, and no step below it is committed
        _, trace = mbi_solve(
            model,
            CompressorBank.zeros(model.partition),
            MbiConfig(epsilon=0.0, max_iterations=20),
        )
        sweeps = trace.iterations_used + int(trace.converged)
        assert sweeps > 1
        assert len(screens) == sweeps
        assert len(solves) == sweeps
        _assert_oracle_sweeps(model, trace)

    @pytest.mark.parametrize("make_model", SCREENED_MODELS)
    def test_scores_are_the_oracle_steps(self, monkeypatch, make_model):
        # every block's score, not only the lowest, is the change in the MSE
        # that block's per-block KLT step makes
        scored = []
        real = solver._screen

        def spy(*args):
            scored.append(real(*args))
            return scored[-1]

        monkeypatch.setattr(solver, "_screen", spy)
        for seed in range(5):
            model = make_model(np.random.default_rng(300 + seed))
            tol = 1e-12 * explained_energy(model)
            scored.clear()
            _, trace = mbi_solve(
                model,
                CompressorBank.zeros(model.partition),
                MbiConfig(epsilon=0.0, max_iterations=30),
            )
            for bank, scores in zip(trace.banks, scored):
                before = direct_mse(model, bank)
                for j, score in enumerate(scores):
                    step = bank.replace(j, best_block(model, bank, j))
                    assert abs(score - (direct_mse(model, step) - before)) <= tol

    @pytest.mark.parametrize("make_model", SCREENED_MODELS)
    def test_carried_products_change_no_bit(self, monkeypatch, make_model):
        # A solve carries each block's product F_j G_j from step to step. A
        # solve that starts from a bank forms every product from that bank.
        # So each recorded objective must be the one a solve records for its
        # bank, and each step, replayed from its bank with the screen forced
        # to the recorded block, must commit the recorded bank, bit for bit.
        for seed in range(5):
            model = make_model(np.random.default_rng(200 + seed))
            p = model.partition.p
            _, trace = mbi_solve(
                model,
                CompressorBank.zeros(model.partition),
                MbiConfig(epsilon=0.0, max_iterations=30),
            )
            assert trace.iterations_used > 1
            f = trace.objective_per_iteration
            for bank, f_i in zip(trace.banks, f):
                assert recorded_objective(model, bank) == f_i
            for i, j in enumerate(trace.chosen_block_per_iteration):
                monkeypatch.setattr(solver, "_screen", _forced_screen(j, p))
                step, replay = mbi_solve(model, trace.banks[i], ONE_SWEEP)
                monkeypatch.undo()
                assert replay.chosen_block_per_iteration == [j]
                assert replay.objective_per_iteration == f[i : i + 2]
                want = trace.banks[i + 1].blocks
                assert [b.tobytes() for b in step.blocks] == [
                    b.tobytes() for b in want
                ]


def _fresh(model):
    """A model of the same moments that no solve has run on."""
    return SecondMomentModel(model.partition, model.e_xx, model.e_xy, model.e_yy)


def _count_products(monkeypatch):
    calls = []
    real = solver._product

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(solver, "_product", spy)
    return calls


def _bytes(bank):
    return [b.tobytes() for b in bank.blocks]


def _assert_same_solve(got, want):
    (bank, trace), (want_bank, want_trace) = got, want
    assert _bytes(bank) == _bytes(want_bank)
    assert trace.objective_per_iteration == want_trace.objective_per_iteration
    assert trace.chosen_block_per_iteration == want_trace.chosen_block_per_iteration
    assert trace.converged == want_trace.converged


def _singular_value_scores(resid, rows, fus, r):
    """The screen's scores from the same inputs, each tail taken from the
    singular values of W_j = E V_j + F_j U_j S_j."""
    ev = resid @ rows.T
    cols = np.cumsum([0, *(fu.shape[1] for fu in fus)])
    scores = []
    for j, (fu, rj) in enumerate(zip(fus, r)):
        e = ev[:, cols[j] : cols[j + 1]]
        sigma = np.linalg.svd(e + fu, compute_uv=False)
        scores.append(float(np.sum(sigma[rj:] ** 2) - np.sum(e * e)))
    return np.array(scores)


class TestResume:
    """A solve keeps on the model the state it ended in. The next solve from
    a bank of exactly those bytes resumes from it and forms one product per
    sweep; any other bank forms all p again. Either way it does what a solve
    on a model no solve has run on does, bit for bit."""

    @pytest.mark.parametrize("make_model", SCREENED_MODELS)
    @pytest.mark.parametrize("first", ["init_bank", "zeros"])
    def test_chained_sweeps_are_one_long_solve(self, monkeypatch, make_model, first):
        k = 20
        for seed in range(3):
            model = make_model(np.random.default_rng(500 + seed))
            part = model.partition
            start = (
                init_bank(model) if first == "init_bank" else CompressorBank.zeros(part)
            )
            long_bank, long_trace = mbi_solve(
                _fresh(model), start, MbiConfig(epsilon=0.0, max_iterations=k)
            )
            products = _count_products(monkeypatch)
            bank, objectives, chosen = start, [], []
            for i in range(k):
                products.clear()
                bank, trace = mbi_solve(model, bank, ONE_SWEEP)
                assert len(products) == (part.p + 1 if i == 0 else 1)
                if i == 0:
                    objectives.append(trace.objective_per_iteration[0])
                objectives += trace.objective_per_iteration[1:]
                chosen += trace.chosen_block_per_iteration
                if trace.converged:
                    break
                assert _bytes(bank) == _bytes(long_trace.banks[i + 1])
            monkeypatch.undo()
            assert _bytes(bank) == _bytes(long_bank)
            assert objectives == long_trace.objective_per_iteration
            assert chosen == long_trace.chosen_block_per_iteration

    @pytest.mark.parametrize("make_model", SCREENED_MODELS)
    def test_other_bytes_form_the_state_again(self, monkeypatch, make_model):
        cfg = MbiConfig(epsilon=0.0, max_iterations=5)
        stop = MbiConfig(epsilon=np.inf)
        for seed in range(3):
            rng = np.random.default_rng(600 + seed)
            model, other = make_model(rng), make_model(rng)
            part = model.partition
            bank, _ = mbi_solve(model, init_bank(model), cfg)
            other_bank, _ = mbi_solve(other, CompressorBank.zeros(part), cfg)
            copied = CompressorBank(
                blocks=tuple(b.copy() for b in bank.blocks), partition=part
            )
            replaced = bank.replace(0, bank.blocks[0] + 1.0)

            def edited():
                # the bank the last solve ended in, changed in place
                bank.blocks[0][0, 0] += 1.0
                return bank

            # (the start, how many products the solve forms before its first
            # sweep); each sweep then forms one
            for make_start, formed in [
                (lambda: copied, 0),
                (lambda: replaced, part.p),
                (lambda: other_bank, part.p),
                (edited, part.p),
            ]:
                mbi_solve(model, bank, stop)  # the state now holds bank's bytes
                start = make_start()
                want = mbi_solve(_fresh(model), start, cfg)
                products = _count_products(monkeypatch)
                got = mbi_solve(model, start, cfg)
                monkeypatch.undo()
                sweeps = got[1].iterations_used + int(got[1].converged)
                assert len(products) == formed + sweeps
                _assert_same_solve(got, want)

    @pytest.mark.parametrize("make_model", SCREENED_MODELS)
    def test_screen_picks_the_singular_value_argmin(self, monkeypatch, make_model):
        sweeps = []
        real = solver._screen

        def spy(*args):
            scores = real(*args)
            sweeps.append((tol, int(np.argmin(scores)), _singular_value_scores(*args)))
            return scores

        monkeypatch.setattr(solver, "_screen", spy)
        for seed in range(5):
            model = make_model(np.random.default_rng(700 + seed))
            tol = 1e-12 * explained_energy(model)
            for start in (init_bank(model), CompressorBank.zeros(model.partition)):
                mbi_solve(model, start, MbiConfig(epsilon=0.0, max_iterations=30))
        # on rank_deficient_e_yy every sweep ties: the models fit to round-off
        for tol, pick, scores in sweeps:
            lowest = np.sort(scores)
            if lowest[1] - lowest[0] > tol:
                assert pick == int(np.argmin(scores))


def test_silent_sensor_gets_rank_zero():
    # the rows of E_yy^(1/2) of a sensor with E_11 = 0 are round-off; ranked
    # on their own scale they were fitted with ||F_1|| ~ 1e15, and the
    # analytic MSE fell 12-27% below the direct expansion
    for seed in range(10):
        model = _silent_sensor_model(np.random.default_rng(100 + seed))
        for start in (init_bank(model), CompressorBank.zeros(model.partition)):
            _, trace = mbi_solve(
                model, start, MbiConfig(epsilon=0.0, max_iterations=30)
            )
            for bank in trace.banks:
                assert not bank.blocks[1].any()
                want = direct_mse(model, bank)
                assert analytic_mse(model, bank) == pytest.approx(want, rel=1e-9)


def test_every_sensor_silent():
    # E_yy = 0 and E_xy = 0: the root's scale, and so the rank tolerance of
    # every G_j, is exactly 0. Every block has rank 0, nothing can be gained,
    # and no step divides by a zero singular value or warns
    part = SensorPartition(m=3, n=(2, 3), r=(1, 2))
    model = SecondMomentModel(
        partition=part,
        e_xx=np.diag([1.0, 2.0, 3.0]),
        e_xy=np.zeros((3, 5)),
        e_yy=np.zeros((5, 5)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bank, trace = mbi_solve(model, init_bank(model), MbiConfig(epsilon=0.0))
        mse = analytic_mse(model, bank)
        wsn = factorize_wsn(bank)
    assert trace.converged and trace.iterations_used == 0
    assert mse == trace.mse_per_iteration[0] == np.trace(model.e_xx)
    assert not any(b.any() for b in bank.blocks)
    assert not any(q.any() for q in wsn.encoders)


def test_rank_deficient_model_reaches_exact_fit(monkeypatch):
    # s = 16 samples of N = 256 observations, 32 per sensor: every G_j has
    # rank 16 < n_j, and the bank can fit h exactly
    part = SensorPartition(m=32, n=(32,) * 8, r=(8,) * 8)
    spec = ScenarioSpec(
        kind="linear_mixing", partition=part, s=16, sigmas=(0.3,) * 8, seed=1
    )
    model = estimate_moments(generate(spec), part)
    solves = _count_candidates(monkeypatch)
    bank, trace = mbi_solve(
        model, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=60)
    )
    assert trace.converged
    assert len(solves) == trace.iterations_used + 1
    _assert_oracle_sweeps(model, trace)
    assert analytic_mse(model, bank) <= 1e-12 * np.trace(model.e_xx)


def test_round_off_steps_are_not_committed():
    # sigma = 1e-7: the warm start fits the samples to about 3e-14 tr E_xx,
    # and each step a solve could commit gains under 1e-27 tr E_xx, far below
    # the N * eps * tr E_xx round-off of the objective (N = 512)
    part = SensorPartition(m=32, n=(32,) * 16, r=(2,) * 16)
    spec = ScenarioSpec(
        kind="additive_noise", partition=part, s=3000, sigmas=(1e-7,) * 16, seed=3
    )
    model = estimate_moments(generate(spec), part)
    _, trace = mbi_solve(
        model, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=60)
    )
    assert trace.iterations_used == 0
    assert trace.converged


# m = 8, p = 4 and uneven ranks; the property adds s = 500 and 60 sweeps
_SCALED_PART = SensorPartition(m=8, n=(8,) * 4, r=(2, 3, 2, 1))


def _solve_recording_warnings(model, cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bank, trace = mbi_solve(model, init_bank(model), cfg)
    warned = [(w.category, str(w.message)) for w in caught]
    return trace, analytic_mse(model, bank), warned


def _not_psd(c) -> bool:
    try:
        psd_sqrt(c)
    except NotPsd:
        return True
    return False


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["linear_mixing", "additive_noise"]),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-60, 60),
    epsilon=st.sampled_from([0.0, 1e-8]),
    shift=st.floats(0.0, 2.0),
)
def test_scaling_the_moments_by_a_power_of_four_changes_no_decision(
    kind, seed, k, epsilon, shift
):
    # scaling x and y by 2^k scales every moment by 4^k, exactly in floating
    # point, so every step, stop and warning must stay and every MSE scale
    spec = ScenarioSpec(
        kind=kind, partition=_SCALED_PART, s=500, sigmas=(0.3,) * 4, seed=seed
    )
    model = estimate_moments(generate(spec), _SCALED_PART)
    c = 4.0**k
    scaled = SecondMomentModel(
        partition=_SCALED_PART,
        e_xx=c * model.e_xx,
        e_xy=c * model.e_xy,
        e_yy=c * model.e_yy,
    )
    cfg = MbiConfig(epsilon=epsilon, max_iterations=60)
    trace, mse, caught = _solve_recording_warnings(model, cfg)
    trace_c, mse_c, caught_c = _solve_recording_warnings(scaled, cfg)
    assert trace_c.chosen_block_per_iteration == trace.chosen_block_per_iteration
    assert trace_c.converged == trace.converged
    assert caught_c == caught
    assert mse_c / c == mse
    # lowering the spectrum by up to twice its smallest eigenvalue crosses
    # psd_sqrt's NotPsd threshold for some shifts
    low = model.e_yy - shift * np.linalg.eigvalsh(model.e_yy)[0] * np.eye(32)
    assert _not_psd(c * low) == _not_psd(low)
