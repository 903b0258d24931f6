"""Model builders shared by the test modules.

Each builder draws from the generator it is given, so a seeded test sees the
same model whichever module builds it.
"""

import numpy as np

from kltmbi import InvalidInput, MbiConfig, SensorPartition
from kltmbi.covariance import SecondMomentModel

# One MBI sweep from a given bank: what the benchmark's library workload runs
# per mbi_solve call.
ONE_SWEEP = MbiConfig(epsilon=0.0, max_iterations=1, record_trace=False)


def joint_model_from_factor(a, part: SensorPartition) -> SecondMomentModel:
    """Consistent joint model from a factor ``a`` with m + n_total rows.

    The Gram matrix ``a a^T`` is partitioned into (E_xx, E_xy, E_yy), so the
    stacked joint matrix is PSD by construction.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = part.m, part.n_total
    if a.shape[0] != m + n:
        raise InvalidInput(f"factor must have {m + n} rows, got {a.shape[0]}")
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
