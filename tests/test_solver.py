"""Tests for problem reduction, the block solver and the MBI iteration."""

import warnings

import numpy as np
import pytest

from conftest import ONE_SWEEP, joint_model_from_factor, noisy_model, random_model
from kltmbi import (
    CompressorBank,
    DegenerateTruncationWarning,
    InvalidInput,
    MbiConfig,
    ScenarioSpec,
    SensorPartition,
    analytic_mse,
    estimate_moments,
    example1_model,
    generate,
    init_bank,
    klt_matrix,
    mbi_solve,
    objective,
    psd_sqrt,
    reduce_problem,
    svd,
)
from kltmbi import solver
from kltmbi.covariance import SecondMomentModel
from kltmbi.solver import _block_solve


class TestReduceProblem:
    def test_identity_e_yy(self):
        part = SensorPartition(m=2, n=(2, 2), r=(1, 1))
        e_xy = np.arange(8.0).reshape(2, 4)
        model = SecondMomentModel(
            partition=part, e_xx=np.eye(2), e_xy=e_xy, e_yy=np.eye(4)
        )
        rp = reduce_problem(model)
        assert np.allclose(rp.h, e_xy)
        assert np.allclose(rp.g_blocks[0], np.eye(4)[:2])
        assert np.allclose(rp.g_blocks[1], np.eye(4)[2:])

    def test_noiseless_single_sensor(self):
        part = SensorPartition(m=3, n=(3,), r=(3,))
        model = SecondMomentModel(
            partition=part, e_xx=np.eye(3), e_xy=np.eye(3), e_yy=np.eye(3)
        )
        rp = reduce_problem(model)
        assert np.allclose(rp.h, np.eye(3))
        assert np.allclose(rp.g_blocks[0], np.eye(3))

    def test_g_blocks_stack_to_root(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 3, (2, 3), (1, 2))
        rp = reduce_problem(model)
        assert np.array_equal(np.vstack(rp.g_blocks), psd_sqrt(model.e_yy))
        assert np.array_equal(np.vstack(rp.g_blocks), model.e_yy_root)
        assert np.array_equal(rp.h, model.h)

    def test_cached_projectors(self):
        # each stored SVD's row basis V_j is orthonormal and spans the row
        # space of G_j, and G_j V_j = U_j S_j
        rng = np.random.default_rng(1)
        model = random_model(rng, 2, (3, 2), (2, 1), extra_cols=1)
        rp = reduce_problem(model)
        for g, f in zip(rp.g_blocks, rp.factors):
            k = f.numeric_rank
            v, us = f.v[:, :k], f.u[:, :k] * f.sigma[:k]
            scale = max(1, np.linalg.norm(g))
            assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-12)
            assert np.linalg.norm(g @ v @ v.T - g) <= 1e-9 * scale
            assert np.linalg.norm(g @ v - us) <= 1e-9 * scale

    def test_trace_expansion_identity(self):
        # the reduced objective and the direct second-moment expansion of the
        # estimation error agree for consistent joint models
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, (2, 2), (1, 1))
        rp = reduce_problem(model)
        for _ in range(5):
            bank = CompressorBank(
                blocks=(rng.standard_normal((3, 2)), rng.standard_normal((3, 2))),
                partition=model.partition,
            )
            f_full = bank.full()
            direct = np.trace(
                model.e_xx
                - model.e_xy @ f_full.T
                - f_full @ model.e_xy.T
                + f_full @ model.e_yy @ f_full.T
            )
            reduced = (
                np.trace(model.e_xx)
                - np.linalg.norm(rp.h) ** 2
                + objective(rp, bank)
            )
            assert direct == pytest.approx(reduced, rel=1e-8)


class TestObjective:
    def test_zero_bank(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, (2, 2), (1, 1))
        rp = reduce_problem(model)
        bank = CompressorBank.zeros(model.partition)
        assert objective(rp, bank) == pytest.approx(np.linalg.norm(rp.h) ** 2)

    def test_exact_fit_single_sensor(self):
        part = SensorPartition(m=2, n=(3,), r=(3,))
        model = SecondMomentModel(
            partition=part,
            e_xx=np.eye(2),
            e_xy=np.arange(6.0).reshape(2, 3),
            e_yy=np.eye(3),
        )
        rp = reduce_problem(model)
        bank = CompressorBank(blocks=(rp.h @ rp.factors[0].pinv(),), partition=part)
        assert objective(rp, bank) == pytest.approx(0.0, abs=1e-18)

    def test_matches_entrywise_sum(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, (2, 3), (1, 2))
        rp = reduce_problem(model)
        bank = CompressorBank(
            blocks=(rng.standard_normal((3, 2)), rng.standard_normal((3, 3))),
            partition=model.partition,
        )
        resid = rp.h - bank.blocks[0] @ rp.g_blocks[0] - bank.blocks[1] @ rp.g_blocks[1]
        brute = sum(v * v for v in resid.ravel())
        assert objective(rp, bank) == pytest.approx(brute, rel=1e-12)


class TestRankConstrainedLsq:
    """The block step: the minimum-norm minimizer of ||s - F G||_F over
    rank-<=r matrices F."""

    def test_identity_g_unconstrained(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((3, 4))
        assert np.allclose(_block_solve(s, svd(np.eye(4)), 4), s)

    def test_zero_g(self):
        s = np.ones((2, 3))
        out = _block_solve(s, svd(np.zeros((3, 3))), 1)
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(6)
        m, nj, r = 3, 5, 2
        s = rng.standard_normal((m, 5))
        g = rng.standard_normal((nj, 5)) + np.eye(5)
        f_opt = _block_solve(s, svd(g), r)
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
            f_opt = _block_solve(s, svd(g), r)
            sigma = np.linalg.svd(s, compute_uv=False)  # R_G = I here
            tail = np.sqrt((sigma[r:] ** 2).sum())
            assert np.linalg.norm(s - f_opt @ g) == pytest.approx(tail, abs=1e-8)

    # a non-unique block solution is reported by DegenerateTruncationWarning
    def test_strict_gap_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateTruncationWarning)
            _block_solve(np.diag([3.0, 1.0]), svd(np.eye(2)), 1)

    def test_tied_singular_values_warn(self):
        with pytest.warns(DegenerateTruncationWarning):
            _block_solve(2 * np.eye(2), svd(np.eye(2)), 1)

    def test_full_rank_cut_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateTruncationWarning)
            _block_solve(np.diag([2.0, 2.0]), svd(np.eye(2)), 2)


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
        rp = reduce_problem(model)
        assert objective(rp, bank) == pytest.approx(0.0, abs=1e-16)

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
        rp = reduce_problem(model)
        bank, _ = mbi_solve(rp, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=200))
        f_before = objective(rp, bank)
        _, trace = mbi_solve(rp, bank, ONE_SWEEP)
        assert abs(trace.objective_per_iteration[-1] - f_before) <= 1e-12

    def test_single_sensor_step_is_klt(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, 4, (5,), (2,))
        rp = reduce_problem(model)
        bank, _ = mbi_solve(rp, CompressorBank.zeros(model.partition), ONE_SWEEP)
        k = klt_matrix(model.e_xy, model.e_yy, 2)
        assert np.linalg.norm(bank.blocks[0] - k) <= 1e-8 * max(1, np.linalg.norm(k))

    def test_strict_decrease_from_warm_start(self):
        model = example1_model()
        rp = reduce_problem(model)
        start = init_bank(model)
        _, trace = mbi_solve(rp, start, ONE_SWEEP)
        assert trace.objective_per_iteration[-1] < objective(rp, start)

    def test_tie_breaks_to_lowest_index(self):
        # symmetric two-sensor setup: both candidates improve equally
        part = SensorPartition(m=2, n=(2, 2), r=(1, 1))
        model = SecondMomentModel(
            partition=part,
            e_xx=np.eye(2),
            e_xy=np.hstack([np.eye(2), np.eye(2)]),
            e_yy=np.block([[2 * np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), 2 * np.eye(2)]]),
        )
        rp = reduce_problem(model)
        # the committed block's truncation is itself degenerate (sigma_1 = sigma_2)
        with pytest.warns(DegenerateTruncationWarning):
            _, trace = mbi_solve(rp, CompressorBank.zeros(part), ONE_SWEEP)
        assert trace.chosen_block_per_iteration == [0]


class TestMbiSolve:
    def test_infinite_epsilon_returns_init(self):
        model = example1_model()
        rp = reduce_problem(model)
        start = init_bank(model)
        bank, trace = mbi_solve(rp, start, MbiConfig(epsilon=np.inf))
        assert trace.iterations_used == 0
        assert len(trace.objective_per_iteration) == 1
        assert trace.converged
        assert all(np.array_equal(a, b) for a, b in zip(bank.blocks, start.blocks))

    def test_finite_epsilon_stops_on_incumbent(self):
        # epsilon set to sweep t's gain in an epsilon=0 run, where every
        # earlier sweep gained more, stops the solve at sweep t uncommitted
        model = noisy_model(np.random.default_rng(1), 4, (3, 4, 2), (1, 1, 1))
        rp = reduce_problem(model)
        start = init_bank(model)
        _, ref = mbi_solve(rp, start, MbiConfig(epsilon=0.0, max_iterations=30))
        assert not ref.converged
        gains = -np.diff(ref.objective_per_iteration)
        stops = [t for t in range(2, 31) if gains[t - 1] < gains[: t - 1].min()]
        assert len(stops) > 10
        for t in stops:
            bank, trace = mbi_solve(
                rp, start, MbiConfig(epsilon=gains[t - 1], max_iterations=30)
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
        rp = reduce_problem(model)
        bank, trace = mbi_solve(
            rp, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=2000)
        )
        assert trace.converged
        diffs = np.diff(trace.objective_per_iteration)
        assert np.all(diffs <= 0)

    def test_monotone_and_rank_feasible(self):
        rng = np.random.default_rng(15)
        model = noisy_model(rng, 4, (3, 4, 2), (2, 2, 1))
        rp = reduce_problem(model)
        bank, trace = mbi_solve(rp, init_bank(model), MbiConfig(max_iterations=50))
        assert np.all(np.diff(trace.objective_per_iteration) <= 0)
        for recorded in trace.banks:
            for b, r in zip(recorded.blocks, model.partition.r):
                assert np.linalg.matrix_rank(b) <= r

    def test_stationarity_at_convergence(self):
        rng = np.random.default_rng(16)
        model = noisy_model(rng, 3, (4, 3), (2, 1))
        rp = reduce_problem(model)
        bank, trace = mbi_solve(
            rp, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=300)
        )
        assert trace.converged
        f0 = objective(rp, bank)
        for j in range(model.partition.p):
            s_j = rp.h - sum(
                bank.blocks[i] @ rp.g_blocks[i]
                for i in range(model.partition.p)
                if i != j
            )
            cand = _block_solve(s_j, rp.factors[j], model.partition.r[j])
            assert f0 - objective(rp, bank.replace(j, cand)) < 1e-9

    def test_trace_off_skips_banks(self):
        model = example1_model()
        rp = reduce_problem(model)
        _, trace = mbi_solve(
            rp, init_bank(model), MbiConfig(max_iterations=3, record_trace=False)
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
        ):
            with pytest.raises(InvalidInput):
                MbiConfig(**kwargs)

    def test_numpy_numbers_pass(self):
        cfg = MbiConfig(epsilon=np.float32(0.5), max_iterations=np.int64(3))
        assert type(cfg.epsilon) is float and type(cfg.max_iterations) is int
        assert (cfg.epsilon, cfg.max_iterations) == (0.5, 3)


def _full_block_solves(rp, bank):
    """Yield (s_j, candidate) for each block: its full solve from ``bank``
    with the block solver."""
    total = sum(fj @ gj for fj, gj in zip(bank.blocks, rp.g_blocks))
    for j, gj in enumerate(rp.g_blocks):
        s_j = rp.h - total + bank.blocks[j] @ gj
        yield s_j, _block_solve(s_j, svd(gj), rp.partition.r[j])


def _exhaustive_mbi(rp, bank, max_iterations):
    """Reference MBI with epsilon = 0: every sweep solves all p blocks in
    full with the block solver and commits the best one."""
    f_cur = objective(rp, bank)
    chosen = []
    for _ in range(max_iterations):
        cands = [
            (float(np.linalg.norm(s_j - cand @ gj) ** 2), cand)
            for (s_j, cand), gj in zip(_full_block_solves(rp, bank), rp.g_blocks)
        ]
        j = min(range(rp.partition.p), key=lambda i: cands[i][0])  # ties -> lowest index
        new_bank = bank.replace(j, cands[j][1])
        f_new = objective(rp, new_bank)
        if f_new >= f_cur:
            break
        bank, f_cur = new_bank, f_new
        chosen.append(j)
    return bank, chosen


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
    # sensor 1 observes nothing: G_1 = 0 has numeric rank 0
    part = SensorPartition(m=3, n=(3, 2, 3), r=(1, 1, 2))
    a = rng.standard_normal((11, 14))
    a[6:8] = 0.0
    return joint_model_from_factor(a, part)


def _best_block_objective(rp, bank):
    """Smallest objective that one full block solve from ``bank`` reaches."""
    return min(
        objective(rp, bank.replace(j, cand))
        for j, (_, cand) in enumerate(_full_block_solves(rp, bank))
    )


def _assert_best_block_sweeps(rp, trace):
    """Every sweep commits a bank whose objective is within 1e-12 ||h||^2 of
    the best full block solve from the bank before it; a sweep that keeps
    the incumbent ends the solve, and then no block does better either."""
    tol = 1e-12 * np.linalg.norm(rp.h) ** 2
    banks = trace.banks
    for before, after in zip(banks, banks[1:]):
        assert objective(rp, after) <= _best_block_objective(rp, before) + tol
    if trace.converged:
        assert objective(rp, banks[-1]) <= _best_block_objective(rp, banks[-1]) + tol


def _count_candidates(monkeypatch):
    calls = []
    real = solver._block_solve

    def spy(s, f, r):
        calls.append(r)
        return real(s, f, r)

    monkeypatch.setattr(solver, "_block_solve", spy)
    return calls


class TestScreenedSweepEquivalence:
    """mbi_solve scores every candidate from the row bases and solves only
    the best-scored one in full. Where no scores tie it commits exactly what
    an exhaustive sweep of full block solves commits; where blocks tie to
    rounding (``ties``) it may commit another of them, so each sweep is
    checked against the best full block solve from the same bank."""

    @pytest.mark.parametrize(
        "make_model, ties",
        [
            (lambda rng: noisy_model(rng, 4, (3, 4, 2), (1, 1, 1)), False),
            (lambda rng: noisy_model(rng, 4, (3, 2, 2), (3, 2, 2)), False),
            (lambda rng: random_model(rng, 5, (4, 3, 3, 2), (2, 1, 3, 1)), False),
            (lambda rng: _sampled_model(int(rng.integers(1000))), True),
            (_identical_sensors_model, True),
            (_silent_sensor_model, False),
        ],
        ids=[
            "r_is_1",
            "r_is_n",
            "random",
            "rank_deficient_e_yy",
            "identical_sensors",
            "silent_sensor",
        ],
    )
    def test_matches_exhaustive_sweep(self, make_model, ties):
        # from the zero bank, tied blocks are separated only by rounding
        for seed in range(10):
            model = make_model(np.random.default_rng(100 + seed))
            rp = reduce_problem(model)
            for start in (init_bank(model), CompressorBank.zeros(model.partition)):
                bank, trace = mbi_solve(
                    rp, start, MbiConfig(epsilon=0.0, max_iterations=30)
                )
                if ties:
                    _assert_best_block_sweeps(rp, trace)
                    continue
                ref_bank, ref_chosen = _exhaustive_mbi(rp, start, 30)
                assert trace.chosen_block_per_iteration == ref_chosen
                assert all(
                    np.array_equal(a, b) for a, b in zip(bank.blocks, ref_bank.blocks)
                )

    @pytest.mark.parametrize(
        "make_model, ties",
        [
            (lambda: _sampled_model(3), True),
            (lambda: _sampled_model(5), True),
            (lambda: noisy_model(np.random.default_rng(1), 4, (3, 4, 2), (1, 1, 1)), False),
        ],
        ids=["sampled_seed3", "sampled_seed5", "noisy"],
    )
    def test_screen_runs_every_sweep(self, monkeypatch, make_model, ties):
        screens = []
        real = solver._screen

        def spy(rp, bank, resid):
            screens.append(1)
            return real(rp, bank, resid)

        monkeypatch.setattr(solver, "_screen", spy)
        solves = _count_candidates(monkeypatch)
        model = make_model()
        rp = reduce_problem(model)
        start = init_bank(model)
        bank, trace = mbi_solve(rp, start, MbiConfig(epsilon=0.0, max_iterations=20))
        sweeps = trace.iterations_used + int(trace.converged)
        assert sweeps > 1
        assert len(screens) == sweeps
        assert len(solves) == sweeps
        if ties:
            _assert_best_block_sweeps(rp, trace)
            return
        ref_bank, ref_chosen = _exhaustive_mbi(rp, start, 20)
        assert trace.chosen_block_per_iteration == ref_chosen
        assert all(np.array_equal(a, b) for a, b in zip(bank.blocks, ref_bank.blocks))


def test_rank_deficient_model_reaches_exact_fit(monkeypatch):
    # s = 16 samples of N = 256 observations, 32 per sensor: every G_j has
    # rank 16 < n_j, and the bank can fit h exactly
    part = SensorPartition(m=32, n=(32,) * 8, r=(8,) * 8)
    spec = ScenarioSpec(
        kind="linear_mixing", partition=part, s=16, sigmas=(0.3,) * 8, seed=1
    )
    model = estimate_moments(generate(spec), part)
    rp = reduce_problem(model)
    solves = _count_candidates(monkeypatch)
    bank, trace = mbi_solve(
        rp, init_bank(model), MbiConfig(epsilon=0.0, max_iterations=60)
    )
    assert trace.converged
    assert len(solves) == trace.iterations_used + 1
    _assert_best_block_sweeps(rp, trace)
    assert analytic_mse(model, bank) <= 1e-12 * np.trace(model.e_xx)
