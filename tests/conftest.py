"""Model builders and the per-block KLT oracle shared by the test modules.

Each builder draws from the generator it is given, so a seeded test sees the
same model whichever module builds it. The oracle reads only a model's
moments and a bank, never the solver's reduced form, so the solver is
checked against the paper's statement of each MBI step rather than its own
internals.
"""

import os
import warnings
import weakref

import numpy as np
from hypothesis import settings

from kltmbi import (
    CompressorBank,
    DegenerateTruncationWarning,
    MbiConfig,
    SensorPartition,
    mbi_solve,
)
from kltmbi.covariance import SecondMomentModel
from kltmbi.linalg import psd_sqrt, svd, truncated

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# that fails in CI fails the same way locally; plain runs stay randomized.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# One MBI sweep from a given bank: what the benchmark's library workload runs
# per mbi_solve call.
ONE_SWEEP = MbiConfig(epsilon=0.0, max_iterations=1, record_trace=False)


def joint_model_from_factor(a, part: SensorPartition) -> SecondMomentModel:
    """Consistent joint model from a factor ``a`` with m + n_total rows; the
    model's shape check rejects any other count.

    The Gram matrix ``a a^T`` is partitioned into (E_xx, E_xy, E_yy), so the
    stacked joint matrix is PSD by construction.
    """
    a = np.asarray(a, dtype=np.float64)
    m = part.m
    gram = a @ a.T
    gram = (gram + gram.T) / 2.0
    return SecondMomentModel(
        partition=part, e_xx=gram[:m, :m], e_xy=gram[:m, m:], e_yy=gram[m:, m:]
    )


def random_model(rng, m, n, r, extra_cols=8):
    """Gram model of a standard normal factor with ``extra_cols`` more
    columns than rows."""
    part = SensorPartition(m=m, n=tuple(n), r=tuple(r))
    d = part.m + part.n_total
    return joint_model_from_factor(rng.standard_normal((d, d + extra_cols)), part)


def noisy_model(rng, m, n, r, noise=0.5, extra_cols=20):
    """Well-conditioned model: a Gram model plus independent observation
    noise, which keeps MBI well inside its convergence budget."""
    model = random_model(rng, m, n, r, extra_cols=extra_cols)
    e_yy = model.e_yy + noise * np.eye(model.partition.n_total)
    return SecondMomentModel(
        partition=model.partition, e_xx=model.e_xx, e_xy=model.e_xy, e_yy=e_yy
    )


def _start_record(model, bank):
    """The trace of a solve from ``bank`` that stops at once: it records only
    its start."""
    _, trace = mbi_solve(model, bank, MbiConfig(epsilon=np.inf, record_trace=False))
    return trace


def recorded_objective(model, bank) -> float:
    """The objective a solve records for ``bank``."""
    return _start_record(model, bank).objective_per_iteration[0]


def recorded_mse(model, bank) -> float:
    """The analytic MSE a solve records for ``bank``."""
    return _start_record(model, bank).mse_per_iteration[0]


def explained_energy(model) -> float:
    """tr(E_xy E_yy^+ E_yx) from the moments alone: tr E_xx less the MSE of
    the best estimator without rank constraints, and the objective of the
    zero bank."""
    return float(np.trace(model.e_xy @ svd(model.e_yy).pinv() @ model.e_xy.T))


def direct_mse(model, bank) -> float:
    """The MSE of ``bank`` expanded from the moments alone:
    tr E_xx - 2 <F, E_xy> + <F E_yy, F> with F = [F_1, ..., F_p]."""
    f = bank.full()
    return float(
        np.trace(model.e_xx) - 2 * np.vdot(f, model.e_xy) + np.vdot(f @ model.e_yy, f)
    )


def block_target(model, bank, j) -> np.ndarray:
    """E_{x y_j} - sum_{i != j} F_i E_{y_i y_j}: what the blocks of ``bank``
    other than j leave for block j to fit."""
    part = model.partition
    yj = part.y_slice(j)
    target = model.e_xy[:, yj].copy()
    for i in range(part.p):
        if i != j:
            target -= bank.blocks[i] @ model.e_yy[part.y_slice(i), yj]
    return target


# model -> {j: (E_jj^(1/2))^+}; sound because a model's moments are read-only
_ROOT_PINVS = weakref.WeakKeyDictionary()


def best_block(model, bank, j) -> np.ndarray:
    """The per-block KLT step: the best rank-r_j F_j with the other blocks of
    ``bank`` fixed, the single-sensor KLT of y_j for the target left by them,
    klt_matrix(block_target(model, bank, j), E_jj, r_j). The factor
    (E_jj^(1/2))^+ is formed once per model and sensor."""
    pinvs = _ROOT_PINVS.setdefault(model, {})
    if j not in pinvs:
        yj = model.partition.y_slice(j)
        pinvs[j] = svd(psd_sqrt(model.e_yy[yj, yj])).pinv()
    target, root_pinv = block_target(model, bank, j), pinvs[j]
    # callers compare candidates within a tolerance, so a tie at the cut is
    # theirs to judge
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateTruncationWarning)
        return truncated(target @ root_pinv, model.partition.r[j]) @ root_pinv


def block_step(s, g, r) -> np.ndarray:
    """The solver's step on one block G = ``g`` toward the target ``s``: one
    MBI sweep from F = 0 on the single-sensor model of the factor [s; g]
    (E_xx = s s^T, E_xy = s g^T, E_yy = g g^T), whose MSE of F is
    ||s - F g||_F^2."""
    part = SensorPartition(m=s.shape[0], n=(g.shape[0],), r=(r,))
    model = joint_model_from_factor(np.vstack([s, g]), part)
    bank, _ = mbi_solve(model, CompressorBank.zeros(part), ONE_SWEEP)
    return bank.blocks[0]
