"""Core solver: problem reduction, rank-constrained block least squares, and
the greedy maximum-block-improvement (MBI) iteration.

The estimation problem min ||x - sum_j F_j y_j||^2 over banks of per-sensor
matrices F_j with rank F_j <= r_j reduces to the matrix problem
min ||H - sum_j F_j G_j||_F^2 where H = E_xy (E_yy^(1/2))^+ and the G_j are
the row blocks of E_yy^(1/2). Each block subproblem has the closed-form
minimum-norm solution [S_j R_{G_j}]_{r_j} G_j^+; the MBI loop computes all p
candidates per sweep and commits only the best one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .covariance import SecondMomentModel, SensorPartition
from .errors import InvalidInput
from .linalg import pinv, psd_sqrt, svd, truncated


@dataclass(frozen=True)
class ReducedProblem:
    """Data of the reduced objective ||h - sum_j F_j g_blocks[j]||^2.

    ``right_projectors[j]`` and ``g_pinvs[j]`` are the row-space projector and
    pseudo-inverse of ``g_blocks[j]``, cached from a single SVD per block.
    """

    h: np.ndarray
    g_blocks: tuple[np.ndarray, ...]
    right_projectors: tuple[np.ndarray, ...]
    g_pinvs: tuple[np.ndarray, ...]
    partition: SensorPartition


@dataclass(frozen=True)
class CompressorBank:
    """The iterate F = (F_1, ..., F_p); each block maps sensor j's
    observation into the source space and must have rank <= r_j."""

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
    """Stopping rule |f_new - f_old| <= epsilon (absolute, as stated) with an
    iteration budget. ``record_trace`` keeps every intermediate bank."""

    epsilon: float = 1e-8
    max_iterations: int = 100
    record_trace: bool = True

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise InvalidInput(f"epsilon must be >= 0, got {self.epsilon}")
        if self.max_iterations < 1:
            raise InvalidInput(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )


@dataclass
class MbiTrace:
    """Record of one solve: objective after every committed step (index 0 is
    the initial objective), the sensor index chosen at each step, and, when
    requested, the bank after every step."""

    objective_per_iteration: list[float]
    chosen_block_per_iteration: list[int]
    converged: bool
    iterations_used: int
    banks: list[CompressorBank] | None = None


class Uniqueness(enum.Enum):
    UNIQUE = "unique"
    NON_UNIQUE = "non_unique"


def reduce_problem(model: SecondMomentModel) -> ReducedProblem:
    """Build h = E_xy (E_yy^(1/2))^+ and the row blocks of E_yy^(1/2),
    both read from the model's cache.

    Propagates :class:`NotPsd` when E_yy fails the PSD tolerance.
    """
    part = model.partition
    root = model.e_yy_root
    g_blocks = []
    projectors = []
    g_pinvs = []
    for j in range(part.p):
        g = root[part.y_slice(j)]
        f = svd(g)
        k = f.numeric_rank
        proj = f.v[:, :k] @ f.v[:, :k].T
        g_blocks.append(g)
        projectors.append((proj + proj.T) / 2.0)
        if k == 0:
            g_pinvs.append(np.zeros((g.shape[1], g.shape[0])))
        else:
            g_pinvs.append((f.v[:, :k] / f.sigma[:k]) @ f.u[:, :k].T)
    return ReducedProblem(
        h=model.h,
        g_blocks=tuple(g_blocks),
        right_projectors=tuple(projectors),
        g_pinvs=tuple(g_pinvs),
        partition=part,
    )


def objective(rp: ReducedProblem, bank: CompressorBank) -> float:
    """Squared Frobenius norm of h - sum_j F_j G_j."""
    return float(np.linalg.norm(rp.h - _total(rp, bank)) ** 2)


def _total(rp: ReducedProblem, bank: CompressorBank) -> np.ndarray:
    t = np.zeros_like(rp.h)
    for fj, gj in zip(bank.blocks, rp.g_blocks):
        t += fj @ gj
    return t


def rank_constrained_lsq(
    s_j: np.ndarray,
    g_j: np.ndarray,
    r_j: int,
    *,
    right_projector: np.ndarray | None = None,
    g_pinv: np.ndarray | None = None,
) -> np.ndarray:
    """Minimum-norm minimizer of ||s_j - F g_j||_F over rank-<=r_j matrices F.

    Returns ``[s_j R]_{r_j} g_j^+`` where ``R`` projects onto the row space of
    ``g_j``. The cached projector/pseudo-inverse may be supplied to avoid
    recomputing the SVD of ``g_j``.
    """
    if s_j.shape[1] != g_j.shape[1]:
        raise InvalidInput(
            f"column counts differ: s is {s_j.shape}, g is {g_j.shape}"
        )
    if not 1 <= r_j <= g_j.shape[0]:
        raise InvalidInput(f"need 1 <= r_j <= {g_j.shape[0]}, got {r_j}")
    if right_projector is None:
        from .linalg import right_projector as _rproj

        right_projector = _rproj(g_j)
    if g_pinv is None:
        g_pinv = pinv(g_j)
    return truncated(s_j @ right_projector, r_j) @ g_pinv


def uniqueness_check(s_j: np.ndarray, g_j: np.ndarray, r_j: int) -> Uniqueness:
    """Whether the rank-constrained minimizer is unique for this block.

    Unique when r_j covers the full rank of ``s_j R_{g_j}`` or when there is a
    strict gap between singular values r_j and r_j + 1. Informational only.
    """
    from .linalg import right_projector as _rproj

    f = svd(s_j @ _rproj(g_j))
    if r_j >= f.numeric_rank:
        return Uniqueness.UNIQUE
    gap = f.sigma[r_j - 1] - f.sigma[r_j]
    if gap > 1e-10 * max(1.0, float(f.sigma[0])):
        return Uniqueness.UNIQUE
    return Uniqueness.NON_UNIQUE


def klt_matrix(e_xy: np.ndarray, e_yy: np.ndarray, r: int) -> np.ndarray:
    """Optimal rank-<=r estimator of x from a single observation y:
    ``[E_xy (E_yy^+)^(1/2)]_r (E_yy^+)^(1/2)`` (minimum-norm choice)."""
    root_pinv = pinv(psd_sqrt(e_yy))
    return truncated(e_xy @ root_pinv, r) @ root_pinv


def klt_single(model: SecondMomentModel, r: int | None = None) -> np.ndarray:
    """Single-sensor optimal compressor; requires a one-sensor model."""
    if model.partition.p != 1:
        raise InvalidInput(f"klt_single needs p = 1, got p = {model.partition.p}")
    if r is None:
        r = model.partition.r[0]
    return klt_matrix(model.e_xy, model.e_yy, r)


def allocate_x_blocks(part: SensorPartition) -> list[int] | None:
    """Split the source dimension across sensors proportionally to the n_j,
    remainders going to the lowest indices. None when m < p (infeasible)."""
    m, p = part.m, part.p
    if m < p:
        return None
    # start from 1 per sensor so every block is non-empty
    alloc = [1] * p
    spare = m - p
    weights = [nj / part.n_total for nj in part.n]
    extra = [int(spare * w) for w in weights]
    for j in range(p):
        alloc[j] += extra[j]
    for j in range(spare - sum(extra)):
        alloc[j] += 1
    return alloc


def init_bank(
    model: SecondMomentModel, m_blocks: list[int] | None = None
) -> CompressorBank:
    """Warm start: per-sensor optimal compressors on a block-diagonal split.

    The source x is partitioned conformally with the sensors (``m_blocks``,
    summing to m); block j is the optimal rank-r_j estimator of x_j from y_j,
    lifted to an m x n_j matrix with zero rows outside the x_j rows. When no
    split is given one is allocated proportionally to the n_j; when none is
    feasible (m < p) the all-zero bank is returned.
    """
    part = model.partition
    if m_blocks is None:
        m_blocks = allocate_x_blocks(part)
        if m_blocks is None:
            return CompressorBank.zeros(part)
    if len(m_blocks) != part.p or sum(m_blocks) != part.m:
        raise InvalidInput(
            f"m_blocks must have {part.p} entries summing to {part.m}"
        )
    if any(mj < 1 for mj in m_blocks):
        raise InvalidInput("every m_blocks entry must be >= 1")
    blocks = []
    row = 0
    for j in range(part.p):
        mj = m_blocks[j]
        e_xj_yj = model.e_xy_block(j)[row : row + mj]
        e_yj_yj = model.e_yy_block(j, j)
        fj = np.zeros((part.m, part.n[j]))
        fj[row : row + mj] = klt_matrix(e_xj_yj, e_yj_yj, part.r[j])
        blocks.append(fj)
        row += mj
    return CompressorBank(blocks=tuple(blocks), partition=part)


def _candidate(rp: ReducedProblem, bank: CompressorBank, total, j: int):
    gj = rp.g_blocks[j]
    s_j = rp.h - total + bank.blocks[j] @ gj
    cand = rank_constrained_lsq(
        s_j,
        gj,
        rp.partition.r[j],
        right_projector=rp.right_projectors[j],
        g_pinv=rp.g_pinvs[j],
    )
    f_j = float(np.linalg.norm(s_j - cand @ gj) ** 2)
    return cand, f_j


def _step(rp: ReducedProblem, bank: CompressorBank, total, f_cur: float):
    """One MBI sweep. Returns (bank, chosen j, objective, total), with the
    objective and total recomputed exactly from the committed bank. Keeps the
    incumbent when no block strictly improves, so the objective never
    increases and an exact fixed point reports zero change."""
    p = rp.partition.p
    results = [_candidate(rp, bank, total, j) for j in range(p)]
    best_j = min(range(p), key=lambda j: results[j][1])  # ties -> lowest index
    new_bank = bank.replace(best_j, results[best_j][0])
    new_total = _total(rp, new_bank)
    f_best = float(np.linalg.norm(rp.h - new_total) ** 2)
    if f_best >= f_cur:
        return bank, best_j, f_cur, total
    return new_bank, best_j, f_best, new_total


def mbi_step(
    rp: ReducedProblem, bank: CompressorBank
) -> tuple[CompressorBank, int, float]:
    """Single maximum-block-improvement step: best single-block replacement."""
    total = _total(rp, bank)
    f_cur = float(np.linalg.norm(rp.h - total) ** 2)
    new_bank, j, f_new, _ = _step(rp, bank, total, f_cur)
    return new_bank, j, f_new


def mbi_solve(
    rp: ReducedProblem, init: CompressorBank, cfg: MbiConfig = MbiConfig()
) -> tuple[CompressorBank, MbiTrace]:
    """Iterate MBI steps until |f_new - f_old| <= epsilon or the budget runs
    out. Non-convergence within the budget is reported via the trace flag."""
    bank = init
    total = _total(rp, bank)
    f_cur = float(np.linalg.norm(rp.h - total) ** 2)
    objectives = [f_cur]
    chosen: list[int] = []
    banks = [bank] if cfg.record_trace else None
    converged = False
    for _ in range(cfg.max_iterations):
        new_bank, j, f_new, total_new = _step(rp, bank, total, f_cur)
        if abs(f_new - f_cur) <= cfg.epsilon:
            converged = True
            break
        bank, f_cur, total = new_bank, f_new, total_new
        objectives.append(f_cur)
        chosen.append(j)
        if banks is not None:
            banks.append(bank)
    trace = MbiTrace(
        objective_per_iteration=objectives,
        chosen_block_per_iteration=chosen,
        converged=converged,
        iterations_used=len(chosen),
        banks=banks,
    )
    return bank, trace
