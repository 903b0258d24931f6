"""Second-moment models of a jointly observed pair (x, y) with sensor blocks.

Models hold the matrices E_xx, E_xy, E_yy together with the partition of y
into per-sensor blocks. They are built either from exact matrices or
estimated from training samples with the plain (non-centered) sample
estimator ``(1/s) A B^T``.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidInput
from .linalg import _EPS, SvdFactors, _real_array, psd_sqrt, svd


def _dimension(value, name: str) -> int:
    """An integer dimension. NumPy integers pass; bool, float and str, which
    ``int()`` would silently coerce, raise :class:`InvalidInput`."""
    if isinstance(value, (bool, np.bool_)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None


def _real(value, name: str) -> float:
    """A real number as a float. NumPy reals pass; bool and str, which
    ``float()`` would silently coerce, raise :class:`InvalidInput`, as does
    an integer beyond the float range."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise InvalidInput(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidInput(f"{name} is out of range: {value!r}") from None


@dataclass(frozen=True)
class SensorPartition:
    """Dimensions (m, n_1..n_p, r_1..r_p) of a p-sensor configuration.

    ``m`` is the source-signal dimension, ``n[j]`` the observation dimension
    at sensor j and ``r[j]`` the number of coordinates sensor j transmits
    (``1 <= r[j] <= n[j]``).
    """

    m: int
    n: tuple[int, ...]
    r: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", _dimension(self.m, "m"))
        object.__setattr__(
            self, "n", tuple(_dimension(v, f"n[{j}]") for j, v in enumerate(self.n))
        )
        object.__setattr__(
            self, "r", tuple(_dimension(v, f"r[{j}]") for j, v in enumerate(self.r))
        )
        if self.m < 1:
            raise InvalidInput(f"m must be >= 1, got {self.m}")
        if len(self.n) < 1:
            raise InvalidInput("at least one sensor is required")
        if len(self.r) != len(self.n):
            raise InvalidInput("n and r must have one entry per sensor")
        for j, (nj, rj) in enumerate(zip(self.n, self.r)):
            if nj < 1:
                raise InvalidInput(f"n[{j}] must be >= 1, got {nj}")
            if not 1 <= rj <= nj:
                raise InvalidInput(f"need 1 <= r[{j}] <= n[{j}], got r={rj}, n={nj}")

    @property
    def p(self) -> int:
        return len(self.n)

    @property
    def n_total(self) -> int:
        return sum(self.n)

    def y_slice(self, j: int) -> slice:
        """Row/column slice of sensor j inside the stacked observation."""
        start = sum(self.n[:j])
        return slice(start, start + self.n[j])


def _instance(value, cls: type, name: str):
    """``value``, if it is a ``cls``; anything else, None included, raises
    :class:`InvalidInput` naming ``name``."""
    if not isinstance(value, cls):
        got = type(value).__name__
        raise InvalidInput(f"{name} must be of type {cls.__name__}, got {got}")
    return value


def _partition(value) -> SensorPartition:
    """``value``, if it is a :class:`SensorPartition`; anything else raises
    :class:`InvalidInput` naming the partition."""
    return _instance(value, SensorPartition, "partition")


def _sequence(value, name: str) -> tuple:
    """``value``, a list or tuple, as a tuple. Anything else, None or a
    generator included, raises :class:`InvalidInput` naming ``name``."""
    if not isinstance(value, (list, tuple)):
        got = type(value).__name__
        raise InvalidInput(f"{name} must be a list or tuple, got {got}")
    return tuple(value)


@dataclass(frozen=True, eq=False)
class SecondMomentModel:
    """The triple (E_xx, E_xy, E_yy) with sensor-block structure.

    The moments follow the README's array rule, finite norm included, and
    are treated as immutable: the solver's private set-up (``_e_yy_root``,
    ``_h``, ``_g_factors`` and ``_g_bases``) is computed from them on first
    use and cached on the model, so mutating an array in place afterwards
    would leave the cache stale. ``_carried`` holds the state the last
    :func:`~kltmbi.solver.mbi_solve` on the model ended in, for the next
    solve to resume from (the solver module says when it may). Compared by
    identity: ``==`` is ``is``, and a model hashes.
    """

    partition: SensorPartition
    e_xx: np.ndarray
    e_xy: np.ndarray
    e_yy: np.ndarray
    # Not a field: set by the solver, never by the constructor.
    _carried = None

    def __post_init__(self):
        m, n = _partition(self.partition).m, self.partition.n_total
        for name, shape in (("e_xx", (m, m)), ("e_xy", (m, n)), ("e_yy", (n, n))):
            _real_array(getattr(self, name), name, shape, finite=True)

    @cached_property
    def _e_yy_root(self) -> np.ndarray:
        """Symmetric PSD square root E_yy^(1/2); raises :class:`NotPsd` when
        E_yy fails the PSD tolerance."""
        return psd_sqrt(self.e_yy)

    @cached_property
    def _h(self) -> np.ndarray:
        """H = E_xy (E_yy^(1/2))^+, the target of the solver's objective."""
        return self.e_xy @ svd(self._e_yy_root).pinv()

    @cached_property
    def _g_factors(self) -> tuple[SvdFactors, ...]:
        """Thin SVD G_j = U_j S_j V_j^T of each row block of E_yy^(1/2).

        The G_j are slices of one root, so each numeric rank k_j counts the
        singular values above N * eps * max_i sigma_1(G_i), the root's scale
        rather than the block's own: a sensor with E_jj = 0, whose G_j is
        round-off, gets k_j = 0 and F_j = 0.
        """
        part = self.partition
        root = self._e_yy_root
        factors = [svd(root[part.y_slice(j)]) for j in range(part.p)]
        tol = part.n_total * _EPS * max(f.sigma[0] for f in factors)
        return tuple(
            replace(f, numeric_rank=int(np.count_nonzero(f.sigma > tol)))
            for f in factors
        )

    @cached_property
    def _g_bases(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """What the solver reads of the G_j besides their SVDs: their
        numeric-rank right bases stacked as rows, [V_1 ... V_p]^T
        (sum_j k_j x N), a buffer apart from the SVDs' own V_j, and each
        U_j S_j (n_j x k_j)."""
        ranked = [(f, f.numeric_rank) for f in self._g_factors]
        rows = np.vstack([f.v[:, :k].T for f, k in ranked])
        return rows, tuple(f.u[:, :k] * f.sigma[:k] for f, k in ranked)


@dataclass(frozen=True, eq=False)
class SampleEnsemble:
    """Training samples, arrays under the README's array rule: one column per
    draw, rows stacked per sensor. Compared by identity: ``==`` is ``is``,
    and an ensemble hashes."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        _real_array(self.x, "x")
        _real_array(self.y, "y")
        if self.x.shape[1] != self.y.shape[1]:
            raise InvalidInput(
                f"sample counts differ: x has {self.x.shape[1]}, y has {self.y.shape[1]}"
            )
        if self.x.shape[1] < 1:
            raise InvalidInput("at least one sample is required")

    @property
    def s(self) -> int:
        return self.x.shape[1]


def estimate_moments(ens: SampleEnsemble, part: SensorPartition) -> SecondMomentModel:
    """Plain sample second moments ``(1/s) X X^T`` etc., no mean subtraction.

    The estimated E_yy may be rank-deficient when ``s < n_total``; this is
    accepted as-is since every downstream formula uses pseudo-inverses.
    """
    _instance(ens, SampleEnsemble, "ens")
    _partition(part)
    _real_array(ens.x, "x", (part.m, None))
    _real_array(ens.y, "y", (part.n_total, None))
    s = ens.s
    # moments beyond the float range come out infinite or NaN, and the model
    # rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        e_xx = (ens.x @ ens.x.T) / s
        e_xy = (ens.x @ ens.y.T) / s
        e_yy = (ens.y @ ens.y.T) / s
        # remove rounding asymmetry before any eigendecomposition downstream
        e_xx = (e_xx + e_xx.T) / 2.0
        e_yy = (e_yy + e_yy.T) / 2.0
    return SecondMomentModel(partition=part, e_xx=e_xx, e_xy=e_xy, e_yy=e_yy)


# Two-sensor benchmark: three-dimensional source observed through additive
# independent noise with per-sensor deviations 0.2 and 0.4.
_EX1_EXX = np.array(
    [
        [0.585, 0.270, 0.390],
        [0.270, 0.405, 0.180],
        [0.390, 0.180, 0.260],
    ]
)
_EX1_SIGMAS = (0.2, 0.4)
# Example 1's partition: a scenario may choose r, but not m or n.
EXAMPLE1_PARTITION = SensorPartition(m=3, n=(3, 3), r=(1, 1))


def example1_model(r=(1, 1)) -> SecondMomentModel:
    """Exact two-sensor benchmark model on :data:`EXAMPLE1_PARTITION` with
    the compression ranks ``r = (r_1, r_2)``, 1 <= r_j <= 3; other ranks
    raise :class:`InvalidInput`.

    Observations are y_j = x + xi_j with E[xi_j xi_j^T] = sigma_j^2 I, hence
    E_xy = [E_xx, E_xx] and E_yy has E_xx + sigma_j^2 I diagonal blocks.
    """
    exx = _EX1_EXX.copy()
    s1, s2 = (sig**2 for sig in _EX1_SIGMAS)
    e_xy = np.hstack([exx, exx])
    e_yy = np.block(
        [
            [exx + s1 * np.eye(3), exx],
            [exx, exx + s2 * np.eye(3)],
        ]
    )
    return SecondMomentModel(
        partition=replace(EXAMPLE1_PARTITION, r=r),
        e_xx=exx,
        e_xy=e_xy,
        e_yy=e_yy,
    )
