"""Tests for the block solver and the MBI iteration, stated through the
public contract: ``mbi_solve`` solves from the model itself; a bank's
objective is what a solve records for it, its analytic MSE less the Wiener
MSE; and each step is checked against the per-block KLT oracle of
``conftest``."""

import copy
import dataclasses
import functools
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ONE_SWEEP,
    best_block,
    block_step,
    block_target,
    direct_mse,
    explained_energy,
    joint_model_from_factor,
    noisy_model,
    random_model,
    recorded,
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
from kltmbi.linalg import psd_sqrt
from kltmbi.solver import klt_matrix


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
        assert recorded(model, bank)[0] == pytest.approx(0.0, abs=1e-16)

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

    def test_start_above_its_rank_bound_is_refused(self):
        # a full-rank block where r_j = 1 was solved from and returned
        model = example1_model(r=(1, 1))
        start = CompressorBank((np.eye(3), np.eye(3)), model.partition)
        with pytest.raises(InvalidInput, match=r"block 0 has rank 3 > r\[0\] = 1"):
            mbi_solve(model, start, ONE_SWEEP)

    @pytest.mark.parametrize("name", ["e_xx", "e_xy", "e_yy"])
    def test_a_moment_made_writeable_again_is_refused(self, name):
        model = example1_model()
        start = init_bank(model)
        mbi_solve(model, start, ONE_SWEEP)  # the model now keeps a set-up
        getattr(model, name).flags.writeable = True
        for call in (mbi_solve, analytic_mse):
            with pytest.raises(InvalidInput, match=f"{name} has been made writeable"):
                call(model, start)

    def test_rescaled_moments_are_refused_not_read_stale(self):
        # the kept set-up would still describe the moments as they were
        model = example1_model()
        start = init_bank(model)
        analytic_mse(model, start)
        e_xx, e_xy = model.e_xx, model.e_xy
        for a in (e_xx, e_xy):
            a.flags.writeable = True
        e_xx *= 4
        e_xy *= 2
        for call in (mbi_solve, analytic_mse):
            with pytest.raises(InvalidInput, match="e_xx has been made writeable"):
                call(model, start)

    def test_not_psd_raises_before_any_step(self, monkeypatch):
        # E_yy's negative eigenvalue lies just below, then just inside, the
        # band [-1e-8 * ||E_yy||, 0) that is clamped as estimation noise
        solves = _spy(monkeypatch, "_block_solve")
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
        assert new.partition is part and np.array_equal(new.blocks[k], block)
        assert not new.blocks[k].flags.writeable
        kept = [i for i in range(part.p) if i != k]
        assert all(new.blocks[i] is bank.blocks[i] for i in kept)
        assert not bank.blocks[k].any()

    # True would replace block 1, or slice sensor 1's rows; 1.0 ended in
    # TypeError and 3 = p in IndexError
    @pytest.mark.parametrize("j", [True, np.True_, 1.0, "1", None, 3, -4, 2**70])
    def test_replace_rejects_an_index_that_is_not_a_block(self, j):
        part = SensorPartition(m=2, n=(2, 1, 3), r=(1, 1, 1))
        bank = CompressorBank.zeros(part)
        for call in (lambda: bank.replace(j, np.ones((2, 1))), lambda: part.y_slice(j)):
            with pytest.raises(InvalidInput, match=r"\bj\b"):
                call()


def _spy(monkeypatch, name) -> list:
    """Record each call of ``solver.<name>`` as its arguments and result."""
    calls, real = [], getattr(solver, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(solver, name, spy)
    return calls


def _fresh(model):
    """A model of the same moments that no solve has run on."""
    return SecondMomentModel(model.partition, model.e_xx, model.e_xy, model.e_yy)


def _bytes(bank):
    return [b.tobytes() for b in bank.blocks]


def _assert_oracle_sweeps(model, trace, scored, epsilon):
    """Check a solve against the per-block KLT oracle to within tol =
    1e-12 ||H||^2, the zero bank's objective. Each recorded MSE is its bank's
    direct MSE. From each bank a sweep ran on, the score
    ``scored[t][j]`` is the change in direct MSE of block j's oracle step,
    and the committed step reaches the best of them; it is the best where no
    other is within tol, and a converged solve ends where none gains more
    than its stopping rule's epsilon."""
    p = model.partition.p
    tol = 1e-12 * explained_energy(model)
    mse = trace.mse_per_iteration
    for f, bank in zip(mse, trace.banks):
        assert abs(f - direct_mse(model, bank)) <= tol
    chosen = trace.chosen_block_per_iteration

    def oracle(bank, j):
        return direct_mse(model, bank.replace(j, best_block(model, bank, j)))

    scores = []
    for t, (bank, gains) in enumerate(zip(trace.banks, scored)):
        # a step keeps the other blocks, so the oracle's step on the block
        # it committed, and the MSE it reaches, stay as they were
        kept = chosen[t - 1] if t else None
        scores = [scores[j] if j == kept else oracle(bank, j) for j in range(p)]
        for score, after in zip(gains, scores):
            assert abs(score - (after - mse[t])) <= tol
        best = min(scores)
        if t == len(chosen):  # the sweep that stopped the solve
            assert mse[t] <= best + tol + epsilon * np.trace(model.e_xx)
            continue
        assert mse[t + 1] <= best + tol
        runner_up = sorted(scores)[1] if p > 1 else np.inf
        if runner_up > best + tol:
            assert chosen[t] == scores.index(best)


def _identical_sensors_model(rng):
    # sensors 0 and 1 observe the same signal: in exact arithmetic they tie
    part = SensorPartition(m=3, n=(3, 3, 2), r=(1, 1, 1))
    x = rng.standard_normal((3, 14))
    y0 = rng.standard_normal((3, 3)) @ x + 0.3 * rng.standard_normal((3, 14))
    y2 = rng.standard_normal((2, 3)) @ x + 0.3 * rng.standard_normal((2, 14))
    return joint_model_from_factor(np.vstack([x, y0, y0, y2]), part)


def _silent_sensor_model(rng):
    # sensor 1 observes nothing: E_11 = 0 exactly, and its rows of E_yy^(1/2)
    # are round-off, which must count for rank 0
    part = SensorPartition(m=3, n=(3, 2, 3), r=(1, 1, 2))
    a = rng.standard_normal((11, 14))
    a[6:8] = 0.0
    return joint_model_from_factor(a, part)


def _sampled(rng, m, n, r, s):
    # moments estimated from s samples of linear_mixing
    part = SensorPartition(m=m, n=n, r=r)
    spec = ScenarioSpec("linear_mixing", part, s, (0.3,) * len(n), rng.integers(1000))
    return estimate_moments(generate(spec), part)


# The model families of SOLVES, drawn from a generator the row seeds. The
# first six have sensors of unequal numeric ranks k_j (r_is_1, random), a
# rank-deficient E_yy, tied sensors and a silent sensor with k_j = 0.
FAMILIES = {
    "r_is_1": lambda rng: noisy_model(rng, 4, (3, 4, 2), (1, 1, 1)),
    "r_is_n": lambda rng: noisy_model(rng, 4, (3, 2, 2), (3, 2, 2)),
    "random": lambda rng: random_model(rng, 5, (4, 3, 3, 2), (2, 1, 3, 1)),
    # s = 3 samples of N = 12 observations: E_yy has rank 3, psd_sqrt keeps
    # no round-off rank, so each G_j has numeric rank 3 and cond(G_j) < 30
    "rank_deficient_e_yy": lambda rng: _sampled(rng, 4, (4,) * 3, (2, 1, 2), 3),
    "identical_sensors": _identical_sensors_model,
    "silent_sensor": _silent_sensor_model,
    "example1": lambda rng: example1_model(),
    "uneven_ranks": lambda rng: noisy_model(rng, 4, (3, 4, 2), (2, 2, 1)),
    "two_sensors": lambda rng: noisy_model(rng, 3, (4, 3), (2, 1)),
    "thin_factor": lambda rng: random_model(rng, 2, (3, 2), (2, 1), extra_cols=1),
    # s = 16 samples of N = 256 observations, 32 per sensor: every G_j has
    # rank 16 < n_j, and the bank can fit h exactly
    "exact_fit": lambda rng: _sampled(rng, 32, (32,) * 8, (8,) * 8, 16),
}


def _silent_stays_zero(model, trace):
    # ranked on their own scale, sensor 1's round-off rows were fitted with
    # ||F_1|| ~ 1e15, and the analytic MSE fell 12-27% below the direct one
    for bank in trace.banks:
        assert not bank.blocks[1].any()
        want = direct_mse(model, bank)
        assert analytic_mse(model, bank) == pytest.approx(want, rel=1e-9)


def _fits_exactly(model, trace):
    assert trace.converged
    assert trace.mse_per_iteration[-1] <= 1e-12 * np.trace(model.e_xx)


def _converges(model, trace):
    assert trace.converged


class Solve(NamedTuple):
    family: str  # a key of FAMILIES
    seed: int
    start: str  # "init_bank" or "zeros"
    cfg: MbiConfig
    extra: Callable | None = None  # extra(model, trace) asserts the rest


_sweeps = functools.partial(MbiConfig, 0.0)  # _sweeps(n): epsilon 0, n sweeps
_STARTS = ("init_bank", "zeros")
_EXTRAS = {"rank_deficient_e_yy": _fits_exactly, "silent_sensor": _silent_stays_zero}
_SCREENED = list(FAMILIES)[:6]
# One row per solve the solver tests check; _assert_solve checks each.
SOLVES = [
    *(
        Solve(family, seed, start, _sweeps(30), _EXTRAS.get(family))
        for family in _SCREENED
        for seed in range(100, 110)
        for start in _STARTS
    ),
    Solve("example1", 0, "init_bank", _sweeps(2000), _converges),
    Solve("uneven_ranks", 15, "init_bank", MbiConfig(max_iterations=50)),
    Solve("two_sensors", 16, "init_bank", _sweeps(300), _converges),
    *(Solve("thin_factor", 1, start, _sweeps(10)) for start in _STARTS),
    *(Solve("exact_fit", 1, start, _sweeps(60), _fits_exactly) for start in _STARTS),
]


def _assert_solve(row: Solve, monkeypatch) -> None:
    """Solve ``row`` once and check, on that one solve:
    1. objectives never increase, banks are rank-feasible, and each recorded
       objective and MSE is, bit for bit, what a solve records for its bank
       and its analytic MSE;
    2. every sweep agrees with the per-block KLT oracle;
    3. each sweep scores the gains once and runs one full block solve, and
       every score is the oracle step's change in the direct MSE;
    4. each step, replayed from its bank with the gains forced to its
       block, commits the next bank bit for bit, and up to 20 chained
       one-sweep solves redo the solve: p + 1 products, then 1 per call."""
    model = FAMILIES[row.family](np.random.default_rng(row.seed))
    part = model.partition
    start = init_bank(model) if row.start == "init_bank" else CompressorBank.zeros(part)
    gains = _spy(monkeypatch, "_gains")
    solves = _spy(monkeypatch, "_block_solve")
    products = _spy(monkeypatch, "_product")
    _, trace = mbi_solve(model, start, row.cfg)
    sweeps = trace.iterations_used + int(trace.converged)
    assert len(gains) == len(solves) == sweeps
    assert len(products) == part.p + sweeps
    f, banks = trace.objective_per_iteration, trace.banks
    chosen = trace.chosen_block_per_iteration
    assert np.all(np.diff(f) <= 0)
    assert all(np.linalg.matrix_rank(b) <= r for b, r in zip(start.blocks, part.r))
    for t, j in enumerate(chosen):
        assert np.linalg.matrix_rank(banks[t + 1].blocks[j]) <= part.r[j]
    for bank, mse in zip(banks, trace.mse_per_iteration, strict=True):
        assert analytic_mse(model, bank) == mse
    _assert_oracle_sweeps(model, trace, [s for _, s in gains], row.cfg.epsilon)
    assert recorded(_fresh(model), banks[-1])[0] == f[-1]

    one = dataclasses.replace(row.cfg, max_iterations=1, record_trace=False)
    chained, bank, got = _fresh(model), start, []
    for i in range(min(20, row.cfg.max_iterations)):
        products.clear()
        bank, link = mbi_solve(chained, bank, one)
        assert len(products) == (part.p + 1 if i == 0 else 1)
        n, got = len(got), got + link.chosen_block_per_iteration
        assert link.objective_per_iteration == f[n : len(got) + 1]
        assert _bytes(bank) == _bytes(banks[len(got)])
        if link.converged:
            assert trace.converged and len(got) == trace.iterations_used
            break
    assert got == chosen[: len(got)]

    # no solve on the model returned the bank a replay starts from, so each
    # replay forms its p products from the bank
    for i, j in enumerate(chosen):
        forced = np.where(np.arange(part.p) == j, -1.0, 0.0)
        monkeypatch.setattr(solver, "_gains", lambda *args: forced)
        products.clear()
        step, replay = mbi_solve(model, banks[i], one)
        assert len(products) == part.p + 1
        assert replay.chosen_block_per_iteration == [j]
        assert replay.objective_per_iteration == f[i : i + 2]
        assert _bytes(step) == _bytes(banks[i + 1])

    if row.extra is not None:
        row.extra(model, trace)


def _row_id(row: Solve) -> str:
    return f"{row.family}-{row.start}-{row.seed}"


@pytest.mark.parametrize("row", SOLVES, ids=_row_id)
def test_solve(row, monkeypatch):
    _assert_solve(row, monkeypatch)


@pytest.mark.parametrize("row", SOLVES[::30], ids=_row_id)
def test_the_oracle_step_is_klt_matrix(row):
    # best_block keeps one root pseudo-inverse per model and sensor; its step
    # is klt_matrix's, bit for bit, on the first call and on later ones
    model = FAMILIES[row.family](np.random.default_rng(row.seed))
    part = model.partition
    bank = init_bank(model)
    for _ in range(2):
        for j in range(part.p):
            yj = part.y_slice(j)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateTruncationWarning)
                want = klt_matrix(
                    block_target(model, bank, j), model.e_yy[yj, yj], part.r[j]
                )
            assert best_block(model, bank, j).tobytes() == want.tobytes()


class TestResume:
    """A solve keeps on the model the bank it returned and the state it ended
    in. The next solve from that very bank resumes from it and forms one
    product per sweep; any other bank, of the same bytes or not, forms all p
    again. Either way it does what a solve on a model no solve has run on
    does, bit for bit."""

    CFG = MbiConfig(epsilon=0.0, max_iterations=5, record_trace=False)

    def _assert_solves_as_fresh(self, monkeypatch, model, start, formed):
        """A solve from ``start`` forms ``formed`` products before its first
        sweep and returns what a solve on a fresh model does."""
        want_bank, want = mbi_solve(_fresh(model), start, self.CFG)
        products = _spy(monkeypatch, "_product")
        got_bank, got = mbi_solve(model, start, self.CFG)
        monkeypatch.undo()
        assert len(products) == formed + got.iterations_used + got.converged
        assert _bytes(got_bank) == _bytes(want_bank)
        # objectives, MSEs, chosen blocks and the converged flag
        assert vars(got) == vars(want)

    @pytest.mark.parametrize("family", _SCREENED)
    def test_the_returned_bank_resumes(self, monkeypatch, family):
        for seed in range(3):
            model = FAMILIES[family](np.random.default_rng(600 + seed))
            bank, _ = mbi_solve(model, init_bank(model), self.CFG)
            self._assert_solves_as_fresh(monkeypatch, model, bank, 0)

    @pytest.mark.parametrize("family", _SCREENED)
    def test_any_other_bank_forms_the_state_again(self, monkeypatch, family):
        stop = MbiConfig(epsilon=np.inf)
        for seed in range(3):
            rng = np.random.default_rng(600 + seed)
            model, other = FAMILIES[family](rng), FAMILIES[family](rng)
            part = model.partition
            bank, _ = mbi_solve(model, init_bank(model), self.CFG)
            other_bank, _ = mbi_solve(other, CompressorBank.zeros(part), self.CFG)
            for start in [
                copy.copy(bank),
                copy.deepcopy(bank),
                CompressorBank(bank.blocks, part),
                bank.replace(0, bank.blocks[0]),
                bank.replace(0, 2.0 * bank.blocks[0]),
                other_bank,
            ]:
                mbi_solve(model, bank, stop)  # the model now keeps bank
                self._assert_solves_as_fresh(monkeypatch, model, start, part.p)

    @pytest.mark.parametrize("family", _SCREENED)
    def test_a_returned_bank_made_writeable_forms_the_state_again(
        self, monkeypatch, family
    ):
        # a block changed in place after its flag was set again: the state
        # the model keeps no longer describes the bank
        for seed in range(3):
            model = FAMILIES[family](np.random.default_rng(600 + seed))
            bank, _ = mbi_solve(model, init_bank(model), self.CFG)
            block = bank.blocks[0]
            block.flags.writeable = True
            block *= 2.0
            self._assert_solves_as_fresh(monkeypatch, model, bank, model.partition.p)


def _state_bytes(state):
    """A solver state's bank, the bytes of every array it holds and its
    objective."""
    arrays = [*state.bank.blocks, *state.products, *state.fus, state.resid]
    return state.bank, [a.tobytes() for a in arrays], state.f


@pytest.mark.parametrize("family", _SCREENED)
def test_a_commit_leaves_its_state_as_it_was(monkeypatch, family):
    # each step makes a new state: the one it starts from keeps its bank,
    # products, F_j U_j S_j, residual and objective, bit for bit, and the new
    # objective is the one formed from scratch from the new bank
    calls, real = [], solver._commit

    def commit(model, state, j):
        before = _state_bytes(state)
        new = real(model, state, j)
        calls.append((model, state, before, new))
        return new

    monkeypatch.setattr(solver, "_commit", commit)
    for seed in range(3):
        model = FAMILIES[family](np.random.default_rng(700 + seed))
        mbi_solve(model, init_bank(model), _sweeps(10))
    monkeypatch.undo()
    assert len(calls) >= 3
    fresh = {model: _fresh(model) for model, *_ in calls}
    for model, state, before, new in calls:
        assert _state_bytes(state) == before
        assert recorded(fresh[model], new.bank)[0] == new.f


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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    sensors=st.lists(
        st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        min_size=1,
        max_size=4,
    ),
    make=st.sampled_from([random_model, noisy_model]),
    first=st.sampled_from(["init_bank", "zeros"]),
)
def test_no_bank_beats_the_centralized_klt(seed, m, sensors, make, first):
    # F = [F_1 ... F_p] has rank at most R = min(m, sum_j r_j), so no bank
    # does better than the rank-R KLT of the stacked y; with one sensor, MBI's
    # first step is that KLT
    n, r = zip(*sensors)
    model = make(np.random.default_rng(seed), m, n, r)
    part = model.partition
    start = init_bank(model) if first == "init_bank" else CompressorBank.zeros(part)
    bank, _ = mbi_solve(model, start, MbiConfig(epsilon=0.0, max_iterations=30))
    central = klt_matrix(model.e_xy, model.e_yy, min(m, sum(r)))
    blocks = tuple(central[:, part.y_slice(j)] for j in range(part.p))
    floor = direct_mse(model, CompressorBank(blocks=blocks, partition=part))
    tol = 1e-12 * np.trace(model.e_xx)
    assert direct_mse(model, bank) >= floor - tol
    if part.p == 1:
        assert direct_mse(model, bank) <= floor + tol
