"""Core solver: rank-constrained block least squares and the greedy
maximum-block-improvement (MBI) iteration.

The estimation problem min ||x - sum_j F_j y_j||^2 over banks of per-sensor
matrices F_j with rank F_j <= r_j reduces to the matrix problem
min ||H - sum_j F_j G_j||_F^2 where H = E_xy (E_yy^(1/2))^+ and the G_j are
the row blocks of E_yy^(1/2). Each block subproblem has the closed-form
minimum-norm solution [S_j R_{G_j}]_{r_j} G_j^+; the MBI loop scores all p
candidates per sweep, solves only the best in full and commits it.

Scoring. With G_j = U_j S_j V_j^T (numeric rank k_j) and the residual
E = H - sum_i F_i G_i, block j's best step changes the objective ||E||^2 by
Delta_j = sum_{i > r_j} sigma_i^2(E V_j + F_j U_j S_j) - ||E V_j||^2 <= 0:
one m x N x k_j product and the singular values of an m x k_j matrix
(N = n_total). The block with the lowest Delta_j is solved in full, which
forms its one row-space projector V_j V_j^T, and E and the objective are
recomputed from the new bank. A sweep costs O(m N^2 + n_j N^2) instead of
the O(p m N^2) of solving every block.

Set-up. E_yy^(1/2), H and the thin SVD of each G_j, with the rank rule
:class:`~kltmbi.covariance.SecondMomentModel` documents, are computed on
first use and cached on the model. Every solve on a model, and
:func:`~kltmbi.wsn.analytic_mse`, reads that one set-up: about 2 N^2 + m N
numbers whatever p is (~4.5 MB at N = 512, p = 16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import SecondMomentModel, SensorPartition, _dimension, _real
from .errors import InvalidInput
from .linalg import _EPS, SvdFactors, pinv, psd_sqrt, truncated


@dataclass(frozen=True, eq=False)
class CompressorBank:
    """The iterate F = (F_1, ..., F_p); each block maps sensor j's
    observation into the source space and must have rank <= r_j. Compared
    by identity: ``==`` is ``is``, and a bank hashes, so ``bank in banks``
    finds that very bank."""

    blocks: tuple[np.ndarray, ...]
    partition: SensorPartition

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.blocks) != self.partition.p:
            raise InvalidInput("one block per sensor is required")
        for j, b in enumerate(self.blocks):
            want = (self.partition.m, self.partition.n[j])
            if b.shape != want:
                raise InvalidInput(f"block {j} must be {want}, got {b.shape}")
            if not np.isfinite(b).all():
                raise InvalidInput(f"block {j} contains NaN or Inf entries")

    @classmethod
    def zeros(cls, partition: SensorPartition) -> "CompressorBank":
        return cls(
            blocks=tuple(np.zeros((partition.m, nj)) for nj in partition.n),
            partition=partition,
        )

    def full(self) -> np.ndarray:
        """The stacked m x n_total matrix [F_1, ..., F_p]."""
        return np.hstack(self.blocks)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Apply the bank to stacked observations (columns are samples)."""
        if y.shape[0] != self.partition.n_total:
            raise InvalidInput(
                f"y must have {self.partition.n_total} rows, got {y.shape[0]}"
            )
        return self.full() @ y

    def replace(self, j: int, block: np.ndarray) -> "CompressorBank":
        blocks = list(self.blocks)
        blocks[j] = block
        return CompressorBank(blocks=tuple(blocks), partition=self.partition)


@dataclass(frozen=True)
class MbiConfig:
    """Stopping rule f_old - f_new <= (epsilon + N * eps) * tr E_xx (the sweep
    that meets it is not committed; N = n_total, eps the float64 machine
    epsilon) with an iteration budget. ``epsilon`` is relative to tr E_xx,
    the MSE of the zero estimate, so scaling the data changes no decision;
    0 stops once no step gains more than round-off. ``record_trace`` keeps
    every intermediate bank."""

    epsilon: float = 1e-8
    max_iterations: int = 100
    record_trace: bool = True

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon"))
        if not self.epsilon >= 0:
            raise InvalidInput(f"epsilon must be >= 0, got {self.epsilon}")
        object.__setattr__(
            self, "max_iterations", _dimension(self.max_iterations, "max_iterations")
        )
        if self.max_iterations < 1:
            raise InvalidInput(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )


@dataclass(eq=False)
class MbiTrace:
    """Record of one solve: objective and analytic MSE after every committed
    step (index 0 is the start's), the sensor index chosen at each step, and,
    when requested, the bank after every step, each differing from the one
    before only in the chosen block. ``mse_per_iteration[i]`` is
    :func:`~kltmbi.wsn.analytic_mse` of ``banks[i]``, bit for bit. Every MSE
    ``klt-mbi run`` prints comes from this record: the analytic MSE from
    ``mse_per_iteration``, and the empirical MSE by following, chunk by
    chunk, a residual that each chosen block updates.
    Compared by identity: ``==`` is ``is``, and a trace hashes."""

    objective_per_iteration: list[float]
    mse_per_iteration: list[float]
    chosen_block_per_iteration: list[int]
    converged: bool
    banks: list[CompressorBank] | None = None

    @property
    def iterations_used(self) -> int:
        return len(self.chosen_block_per_iteration)


def reduce_problem(model: SecondMomentModel) -> SecondMomentModel:
    """Form the set-up :func:`mbi_solve` reads on ``model`` and return the
    model. Not part of the pipeline: the CLI calls it only so that the
    benchmark can time the set-up apart from the solve, and the next
    benchmark revision (ROADMAP.md, item 1) deletes it."""
    model._g_factors
    model.h
    return model


def _sq_norm(a: np.ndarray) -> np.float64:
    """||a||^2 as the norm times itself, so that scaling ``a`` by 2^k scales
    it by exactly 4^k. ``** 2`` on a NumPy scalar calls C ``pow``, which is
    not correctly rounded in every libm: glibc 2.36 misrounds about 0.1% of
    squares."""
    n = np.linalg.norm(a)
    return n * n


def _residual(
    h: np.ndarray, g_blocks, bank: CompressorBank
) -> tuple[np.ndarray, float]:
    """The residual E = h - sum_j F_j G_j, formed in the product buffer, and
    ||E||^2. Every objective and analytic MSE of the library comes from it."""
    t = np.zeros_like(h)
    for fj, gj in zip(bank.blocks, g_blocks):
        t += fj @ gj
    np.subtract(h, t, out=t)
    return t, float(_sq_norm(t))


def _mse(model: SecondMomentModel, objectives) -> list[float]:
    """The analytic MSE tr E_xx - ||H||^2 + f of a bank whose objective is
    f, for each f in ``objectives``. The one MSE formula of the library."""
    wiener = np.trace(model.e_xx) - _sq_norm(model.h)
    # The terms cancel almost completely for near-perfect banks, so
    # round-off can leave a tiny negative residue; the true value is >= 0.
    return [max(float(wiener + f), 0.0) for f in objectives]


def _block_solve(s: np.ndarray, f: SvdFactors, r: int) -> np.ndarray:
    """Minimum-norm minimizer of ||s - F G||_F over rank-<=r matrices F, for
    the block G whose thin SVD is ``f``: ``[s R]_r G^+``, where ``R``
    projects onto the row space of G."""
    v = f.v[:, : f.numeric_rank]
    return truncated(s @ (v @ v.T), r) @ f.pinv()


def klt_matrix(e_xy: np.ndarray, e_yy: np.ndarray, r: int) -> np.ndarray:
    """Optimal rank-<=r estimator of x from a single observation y:
    ``[E_xy (E_yy^+)^(1/2)]_r (E_yy^+)^(1/2)`` (minimum-norm choice)."""
    root_pinv = pinv(psd_sqrt(e_yy))
    return truncated(e_xy @ root_pinv, r) @ root_pinv


def allocate_x_blocks(part: SensorPartition) -> list[int] | None:
    """Split the source dimension across sensors proportionally to the n_j,
    remainders going to the lowest indices. None when m < p (infeasible)."""
    m, p = part.m, part.p
    if m < p:
        return None
    # 1 per sensor so every block is non-empty, the rest in proportion
    spare = m - p
    alloc = [1 + int(spare * (nj / part.n_total)) for nj in part.n]
    for j in range(m - sum(alloc)):
        alloc[j] += 1
    return alloc


def init_bank(model: SecondMomentModel) -> CompressorBank:
    """Warm start: per-sensor optimal compressors on a block-diagonal split.

    The source x is partitioned conformally with the sensors by
    :func:`allocate_x_blocks`; block j is the optimal rank-r_j estimator of
    x_j from y_j, lifted to an m x n_j matrix with zero rows outside the x_j
    rows. When no split is feasible (m < p) the all-zero bank is returned.
    """
    part = model.partition
    x_blocks = allocate_x_blocks(part)
    if x_blocks is None:
        return CompressorBank.zeros(part)
    blocks = []
    row = 0
    for j in range(part.p):
        mj, yj = x_blocks[j], part.y_slice(j)
        fj = np.zeros((part.m, part.n[j]))
        fj[row : row + mj] = klt_matrix(
            model.e_xy[row : row + mj, yj], model.e_yy[yj, yj], part.r[j]
        )
        blocks.append(fj)
        row += mj
    return CompressorBank(blocks=tuple(blocks), partition=part)


def _screen(
    resid: np.ndarray, blocks, factors: tuple[SvdFactors, ...], r: tuple[int, ...]
) -> np.ndarray:
    """Each block's objective change Delta_j (see the module docstring) if
    its candidate, the fit of s_j = E + F_j G_j, were committed, found
    without solving any block. ``factors[j]`` is the SVD of G_j and ``r[j]``
    its rank bound."""
    scores = np.empty(len(factors))
    for j, (fj, f, rj) in enumerate(zip(blocks, factors, r)):
        k = f.numeric_rank
        ev = resid @ f.v[:, :k]
        w = ev + fj @ (f.u[:, :k] * f.sigma[:k])
        sigma = np.linalg.svd(w, compute_uv=False)
        tail = float(np.sum(sigma[rj:] ** 2))
        scores[j] = tail - float(np.vdot(ev, ev))
    return scores


def mbi_solve(
    model: SecondMomentModel, start: CompressorBank, cfg: MbiConfig = MbiConfig()
) -> tuple[CompressorBank, MbiTrace]:
    """Run MBI sweeps from ``start`` on the residual E = H - sum_j F_j G_j.

    Each sweep solves in full only the block :func:`_screen` scores lowest
    (the lowest index on equal scores) and recomputes E and the objective f
    from the new bank. The solve stops once a sweep improves f by at most
    (epsilon + N * eps) * tr E_xx, where N * eps * tr E_xx is about the
    round-off of f (by at most 0 when tr E_xx is not positive), keeping the
    incumbent, so f never increases; running out of budget is reported via
    the trace flag. Where scores differ only by rounding, the block
    chosen may not be the one an exhaustive sweep of full solves would rank
    first, but its objective is within rounding of that sweep's best.

    Raises :class:`InvalidInput` when ``start`` is not a bank of the
    model's partition, and :class:`NotPsd`, before any step, when E_yy has
    an eigenvalue below -1e-8 * ||E_yy||.
    """
    part = model.partition
    if start.partition != part:
        raise InvalidInput(f"start bank is for {start.partition}, model is {part}")
    factors = model._g_factors
    g_blocks = [model.e_yy_root[part.y_slice(j)] for j in range(part.p)]
    tr_exx = float(np.trace(model.e_xx))
    bank = start
    resid, f_cur = _residual(model.h, g_blocks, bank)
    objectives = [f_cur]
    chosen: list[int] = []
    banks = [bank] if cfg.record_trace else None
    converged = False
    # inf * 0 would be NaN, which no improvement is at or below
    tol = (cfg.epsilon + part.n_total * _EPS) * tr_exx if tr_exx > 0 else 0.0
    for _ in range(cfg.max_iterations):
        j = int(np.argmin(_screen(resid, bank.blocks, factors, part.r)))
        s_j = resid + bank.blocks[j] @ g_blocks[j]
        new_bank = bank.replace(j, _block_solve(s_j, factors[j], part.r[j]))
        new_resid, f_new = _residual(model.h, g_blocks, new_bank)
        if f_cur - f_new <= tol:
            converged = True
            break
        bank, resid, f_cur = new_bank, new_resid, f_new
        objectives.append(f_cur)
        chosen.append(j)
        if banks is not None:
            banks.append(bank)
    trace = MbiTrace(
        objective_per_iteration=objectives,
        mse_per_iteration=_mse(model, objectives),
        chosen_block_per_iteration=chosen,
        converged=converged,
        banks=banks,
    )
    return bank, trace
