"""Core solver: rank-constrained block least squares and the greedy
maximum-block-improvement (MBI) iteration.

The estimation problem min ||x - sum_j F_j y_j||^2 over banks of per-sensor
matrices F_j with rank F_j <= r_j reduces to the matrix problem
min ||H - sum_j F_j G_j||_F^2 where H = E_xy (E_yy^(1/2))^+ and the G_j are
the row blocks of E_yy^(1/2). Each block subproblem has the closed-form
minimum-norm solution [S_j R_{G_j}]_{r_j} G_j^+. A solve moves from one
:class:`_State`, a bank and its residual E = H - sum_j F_j G_j, to the next:
each sweep scores every block (:func:`_gains`), commits the best
(:func:`_commit`) and keeps the new state if f = ||E||^2 fell by more than
the stopping rule's floor.

Gains. With G_j = U_j S_j V_j^T (numeric rank k_j), block j's best step
changes f by Delta_j = sum_{i > r_j} sigma_i^2(W_j) - ||E V_j||^2 <= 0,
where W_j = E V_j + F_j U_j S_j is m x k_j. One m x N x sum_j k_j product
E [V_1 ... V_p] scores every block (N = n_total). Each tail is the sum of
the d - r_j smallest eigenvalues of the d x d Gram of W_j (d = min(m, k_j)),
from one batched ``eigvalsh`` per distinct k_j: the gains only pick the
block, so no SVD is needed.

Commit. The block is solved in full: its row-space projector V_j V_j^T, one
N x k_j x N GEMM, is applied at m N^2, and the m x N result is truncated
through its SVD, about 30% of a sweep at N = 512, m = 32, p = 16 (the gains'
``eigvalsh`` takes about 20%). The new state forms only the block's own
product, one m x n_j x N, and its F_j U_j S_j; E and f are summed again
from the p products in index order: the arithmetic of forming E from the
whole bank, bit for bit. A sweep costs O(m N sum_j k_j + N^2 k_j + m N^2)
instead of the O(p m N^2) of solving every block.

Set-up. E_yy^(1/2), H, the thin SVD of each G_j with its numeric rank
(:func:`_setup` states the rank rule), the rows [V_1 ... V_p]^T and the
U_j S_j form one :class:`_Setup`, made on first use and kept beside the
model in the weak-keyed ``_SETUPS``, so it goes when the model does. H is
formed before the G_j SVDs, so the N x N SVD of the root behind it, its
workspace and its factors are freed before the G_j factors exist. Every
solve on a model, and :func:`~kltmbi.wsn.analytic_mse`, reads that one
set-up: about 3 N^2 + m N numbers whatever p is (~6.4 MB at N = 512,
p = 16). A replaced, copied or unpickled model forms its own.

Resuming. A solve keeps the state it ends in, p products of m x N and E
(2 MB at N = 512, m = 32, p = 16), as the set-up's ``carried``. A solve
from that state's very bank starts in it (:func:`_state`), so chained
one-sweep solves form one product per sweep; any other start has each
block's rank checked, p SVDs of m x n_j, and is formed from its blocks
(:func:`_form`), p products of m x n_j x N. Models and banks hold
read-only arrays, so both ways give the same bits. A caller can still set
an array's ``writeable`` flag again: a model with such a moment is
refused, and a start with such a block is formed from its blocks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from .covariance import (
    SecondMomentModel,
    SensorPartition,
    _block_index,
    _dimension,
    _frozen,
    _instance,
    _partition,
    _real,
    _sequence,
)
from .errors import InvalidInput
from .linalg import _EPS, SvdFactors, _real_array, psd_sqrt, svd, truncated


@dataclass(frozen=True, eq=False)
class CompressorBank:
    """The iterate F = (F_1, ..., F_p); each block maps sensor j's
    observation into the source space, must have rank <= r_j, follows the
    README's array rule, finite norm included, and is held read-only. The
    rank is checked where a bank is used: :func:`mbi_solve` refuses a start,
    and :func:`~kltmbi.wsn.factorize_wsn` a bank, with a block above its
    bound. Compared by identity: ``==`` is ``is``, and a bank hashes, so
    ``bank in banks`` finds that very bank."""

    blocks: tuple[np.ndarray, ...]
    partition: SensorPartition

    def __post_init__(self):
        _partition(self.partition)
        object.__setattr__(self, "blocks", _sequence(self.blocks, "blocks"))
        if len(self.blocks) != self.partition.p:
            raise InvalidInput("one block per sensor is required")
        for j, b in enumerate(self.blocks):
            want = (self.partition.m, self.partition.n[j])
            _real_array(b, f"block {j}", want, finite=True)
        object.__setattr__(self, "blocks", tuple(map(_frozen, self.blocks)))

    def __reduce__(self):
        return type(self), (self.blocks, self.partition)

    @classmethod
    def zeros(cls, partition: SensorPartition) -> "CompressorBank":
        m, n = _partition(partition).m, partition.n
        return cls(blocks=tuple(np.zeros((m, nj)) for nj in n), partition=partition)

    def full(self) -> np.ndarray:
        """The stacked m x n_total matrix [F_1, ..., F_p]."""
        return np.hstack(self.blocks)

    def replace(self, j: int, block: np.ndarray) -> "CompressorBank":
        """This bank with block ``j`` replaced by ``block``, the one block
        checked: the others were checked when this bank was made. ``j`` is
        an integer in [-p, p), negative values counting from the end."""
        part = self.partition
        j = _block_index(part, j)
        _real_array(block, f"block {j}", (part.m, part.n[j]), finite=True)
        blocks = self.blocks[:j] + (_frozen(block),) + self.blocks[j + 1 :]
        bank = object.__new__(CompressorBank)
        vars(bank).update(blocks=blocks, partition=part)
        return bank


@dataclass(frozen=True)
class MbiConfig:
    """Stopping rule f_old - f_new <= (epsilon + N * eps) * tr E_xx (the sweep
    that meets it is not committed; N = n_total, eps the float64 machine
    epsilon) with an iteration budget. ``epsilon`` is relative to tr E_xx,
    the MSE of the zero estimate, so scaling the data changes no decision;
    0 stops once no step gains more than round-off. ``record_trace``, a
    bool, keeps every intermediate bank."""

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
        if not isinstance(self.record_trace, (bool, np.bool_)):
            raise InvalidInput(
                f"record_trace must be a bool, got {self.record_trace!r}"
            )


@dataclass(eq=False)
class MbiTrace:
    """Record of one solve: objective and analytic MSE after every committed
    step (index 0 is the start's), the sensor index chosen at each step, and,
    when requested, the bank after every step, each differing from the one
    before only in the chosen block. ``mse_per_iteration[i]`` is
    :func:`~kltmbi.wsn.analytic_mse` of ``banks[i]``, bit for bit. Every MSE
    ``klt-mbi run`` prints comes from this record: the analytic MSE from
    ``mse_per_iteration``, and the empirical MSE by replaying ``banks`` and
    ``chosen_block_per_iteration`` on the samples chunk by chunk.
    Compared by identity: ``==`` is ``is``, and a trace hashes."""

    objective_per_iteration: list[float]
    mse_per_iteration: list[float]
    chosen_block_per_iteration: list[int]
    converged: bool
    banks: list[CompressorBank] | None = None

    @property
    def iterations_used(self) -> int:
        return len(self.chosen_block_per_iteration)


@dataclass(eq=False)
class _Setup:
    """A model's set-up (see Set-up above) and the state the last solve on it
    ended in, or None (see Resuming)."""

    root: np.ndarray
    h: np.ndarray
    factors: tuple[SvdFactors, ...]
    rows: np.ndarray
    us: tuple[np.ndarray, ...]
    carried: _State | None = None


@dataclass(frozen=True, eq=False)
class _State:
    """A bank, its products P_j = F_j G_j, the F_j U_j S_j, the residual
    E = H - sum_j P_j and f = ||E||^2; nothing changes it once it is made."""

    bank: CompressorBank
    products: tuple[np.ndarray, ...]
    fus: tuple[np.ndarray, ...]
    resid: np.ndarray
    f: float


_SETUPS = weakref.WeakKeyDictionary()  # model -> _Setup; models hash by identity


def _setup(model: SecondMomentModel) -> _Setup:
    """``model``'s set-up, formed on first use and kept in ``_SETUPS`` while
    the model lives; one that raises :class:`NotPsd` is not kept. Each
    numeric rank k_j counts the singular values of G_j above
    N * eps * max_i sigma_1(G_i), the root's scale rather than the block's
    own: a sensor with E_jj = 0, whose G_j is round-off, gets k_j = 0 and
    F_j = 0. A moment made writeable again, which could have changed since
    the set-up was formed, raises :class:`InvalidInput` naming it."""
    for name in ("e_xx", "e_xy", "e_yy"):
        if getattr(model, name).flags.writeable:
            raise InvalidInput(f"the model's {name} has been made writeable again")
    setup = _SETUPS.get(model)
    if setup is None:
        part = model.partition
        root = psd_sqrt(model.e_yy)
        h = model.e_xy @ svd(root).pinv()
        factors = [svd(root[part.y_slice(j)]) for j in range(part.p)]
        tol = part.n_total * _EPS * max(f.sigma[0] for f in factors)
        ks = [int(np.count_nonzero(f.sigma > tol)) for f in factors]
        setup = _SETUPS[model] = _Setup(
            root,
            h,
            tuple(replace(f, numeric_rank=k) for f, k in zip(factors, ks)),
            rows=np.vstack([f.v[:, :k].T for f, k in zip(factors, ks)]),
            us=tuple(f.u[:, :k] * f.sigma[:k] for f, k in zip(factors, ks)),
        )
    return setup


def reduce_problem(model: SecondMomentModel) -> SecondMomentModel:
    """Form the set-up :func:`mbi_solve` reads on ``model`` and return the
    model. Not part of the pipeline: the CLI calls it only so that the
    benchmark can time the set-up apart from the solve, and the next
    benchmark revision (ROADMAP.md, item 1) deletes it."""
    _setup(model)
    return model


def _sq_norm(a: np.ndarray) -> np.float64:
    """||a||^2 as the norm times itself, so that scaling ``a`` by 2^k scales
    it by exactly 4^k. ``** 2`` on a NumPy scalar calls C ``pow``, which is
    not correctly rounded in every libm: glibc 2.36 misrounds about 0.1% of
    squares."""
    n = np.linalg.norm(a)
    return n * n


def _product(model: SecondMomentModel, j: int, fj: np.ndarray) -> np.ndarray:
    """P_j = F_j G_j, block j's m x N share of the bank's fit."""
    return fj @ _setup(model).root[model.partition.y_slice(j)]


def _residual(model: SecondMomentModel, products) -> tuple[np.ndarray, float]:
    """The residual E = H - sum_j P_j of the block products ``products``
    (:func:`_product` of each block, in sensor order), summed in index order
    into one buffer, and ||E||^2. Every objective and analytic MSE of the
    library comes from it."""
    h = _setup(model).h
    t = np.zeros_like(h)
    for pj in products:
        t += pj
    np.subtract(h, t, out=t)
    return t, float(_sq_norm(t))


def _mse(model: SecondMomentModel, objectives) -> list[float]:
    """The analytic MSE tr E_xx - ||H||^2 + f of a bank whose objective is
    f, for each f in ``objectives``. The one MSE formula of the library."""
    wiener = np.trace(model.e_xx) - _sq_norm(_setup(model).h)
    # The terms cancel almost completely for near-perfect banks, so
    # round-off can leave a tiny negative residue; the true value is >= 0.
    return [max(float(wiener + f), 0.0) for f in objectives]


def _block_solve(s: np.ndarray, f: SvdFactors, vt: np.ndarray, r: int) -> np.ndarray:
    """Minimum-norm minimizer of ||s - F G||_F over rank-<=r matrices F, for
    the block G whose thin SVD is ``f``: ``[s R]_r G^+``, where ``R`` =
    V V^T projects onto the row space of G. ``vt`` holds the rows V^T in a
    buffer apart from ``f.v``, so that NumPy forms R by one GEMM rather
    than by SYRK and a copy of its triangle."""
    return truncated(s @ (f.v[:, : f.numeric_rank] @ vt), r) @ f.pinv()


def klt_matrix(e_xy: np.ndarray, e_yy: np.ndarray, r: int) -> np.ndarray:
    """Optimal rank-<=r estimator of x from a single observation y:
    ``[E_xy (E_yy^+)^(1/2)]_r (E_yy^+)^(1/2)`` (minimum-norm choice)."""
    root_pinv = svd(psd_sqrt(e_yy)).pinv()
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
    part = _instance(model, SecondMomentModel, "model").partition
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


def _rank_checked(fj: np.ndarray, j: int, rj: int) -> SvdFactors:
    """The SVD of block ``j`` of a bank, ``fj``. A numeric rank above its
    bound ``rj``, which no r_j-row link could carry, raises
    :class:`InvalidInput` naming the block."""
    f = svd(fj)
    if f.numeric_rank > rj:
        raise InvalidInput(f"block {j} has rank {f.numeric_rank} > r[{j}] = {rj}")
    return f


def _objective(model: SecondMomentModel, bank: CompressorBank) -> float:
    """``bank``'s objective f as :func:`_form` sums it, one product at a time."""
    products = (_product(model, j, fj) for j, fj in enumerate(bank.blocks))
    return _residual(model, products)[1]


def _form(model: SecondMomentModel, bank: CompressorBank) -> _State:
    """``bank``'s state, formed from its blocks (see Resuming above)."""
    products = tuple(_product(model, j, fj) for j, fj in enumerate(bank.blocks))
    fus = tuple(fj @ usj for fj, usj in zip(bank.blocks, _setup(model).us))
    return _State(bank, products, fus, *_residual(model, products))


def _state(model: SecondMomentModel, bank: CompressorBank) -> _State:
    """The state a solve from ``bank`` starts in (see Resuming above): the
    carried one, or else one formed once each block's rank is checked."""
    carried = _setup(model).carried
    if carried is not None and carried.bank is bank:
        if not any(b.flags.writeable for b in bank.blocks):
            return carried
    for j, fj in enumerate(bank.blocks):
        _rank_checked(fj, j, model.partition.r[j])
    return _form(model, bank)


def _gains(model: SecondMomentModel, state: _State) -> np.ndarray:
    """Each block's objective change Delta_j (see Gains above) if its best
    step from ``state`` were committed, found without solving any block."""
    resid, fus, r = state.resid, state.fus, model.partition.r
    m, ks = resid.shape[0], [fu.shape[1] for fu in fus]
    evs = np.split(resid @ _setup(model).rows.T, np.cumsum(ks)[:-1], axis=1)
    scores = np.array([-float(np.vdot(e, e)) for e in evs])
    for k in sorted(set(ks)):
        # blocks with r_j >= d have no tail
        group = [j for j, kj in enumerate(ks) if kj == k and min(m, k) > r[j]]
        if not group:
            continue
        w = np.stack([evs[j] + fus[j] for j in group])
        wt = w.transpose(0, 2, 1)
        gram = wt @ w if k <= m else w @ wt
        for j, lam in zip(group, np.linalg.eigvalsh(gram)):
            scores[j] += float(np.sum(lam[: lam.size - r[j]]))
    return scores


def _commit(model: SecondMomentModel, state: _State, j: int) -> _State:
    """The state after block ``j`` of ``state`` is solved in full (see
    Commit above); ``state`` is left as it was."""
    setup = _setup(model)
    fj = setup.factors[j]
    first = sum(f.numeric_rank for f in setup.factors[:j])
    vt = setup.rows[first : first + fj.numeric_rank]
    s = state.resid + state.products[j]
    block = _block_solve(s, fj, vt, model.partition.r[j])
    bank = state.bank.replace(j, block)
    pj = _product(model, j, block)
    products = (*state.products[:j], pj, *state.products[j + 1 :])
    fus = (*state.fus[:j], block @ setup.us[j], *state.fus[j + 1 :])
    return _State(bank, products, fus, *_residual(model, products))


def mbi_solve(
    model: SecondMomentModel, start: CompressorBank, cfg: MbiConfig = MbiConfig()
) -> tuple[CompressorBank, MbiTrace]:
    """Run MBI sweeps from ``start`` on the residual E = H - sum_j F_j G_j.

    Each sweep commits the block :func:`_gains` scores lowest (the lowest
    index on equal scores). The solve stops once a sweep improves the
    objective f by at most (epsilon + N * eps) * tr E_xx, where
    N * eps * tr E_xx is about the round-off of f (by at most 0 when tr E_xx
    is not positive), keeping the incumbent, so f never increases; running
    out of budget is reported via the trace flag. Where scores differ only
    by rounding, the block chosen may not be the one an exhaustive sweep of
    full solves would rank first, but its objective is within rounding of
    that sweep's best. A solve whose ``start`` is the bank the last solve on
    ``model`` returned resumes from that solve's state (see the module
    docstring).

    Raises :class:`InvalidInput` when ``model`` is not a
    :class:`SecondMomentModel`, ``start`` not a bank of the model's
    partition, a block of ``start`` above its rank bound (the bank the last
    solve returned is not checked again), a moment of ``model`` made
    writeable again or ``cfg`` not an :class:`MbiConfig`, and
    :class:`NotPsd`, before any step, when E_yy has an eigenvalue below
    -1e-8 * ||E_yy||.
    """
    part = _instance(model, SecondMomentModel, "model").partition
    if _instance(start, CompressorBank, "start").partition != part:
        raise InvalidInput(f"start bank is for {start.partition}, model is {part}")
    _instance(cfg, MbiConfig, "cfg")
    tr_exx = float(np.trace(model.e_xx))
    state = _state(model, start)
    objectives, chosen = [state.f], []
    banks = [start] if cfg.record_trace else None
    converged = False
    # inf * 0 would be NaN, which no improvement is at or below
    tol = (cfg.epsilon + part.n_total * _EPS) * tr_exx if tr_exx > 0 else 0.0
    for _ in range(cfg.max_iterations):
        j = int(np.argmin(_gains(model, state)))
        new = _commit(model, state, j)
        if state.f - new.f <= tol:
            converged = True
            break
        state = new
        objectives.append(state.f)
        chosen.append(j)
        if banks is not None:
            banks.append(state.bank)
    _setup(model).carried = state
    mse = _mse(model, objectives)
    return state.bank, MbiTrace(objectives, mse, chosen, converged, banks)
