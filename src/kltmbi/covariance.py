"""Second-moment models of a jointly observed pair (x, y) with sensor blocks.

Models hold the matrices E_xx, E_xy, E_yy together with the partition of y
into per-sensor blocks. They are built either from exact matrices or
estimated from training samples with the plain (non-centered) sample
estimator ``(1/s) A B^T``.
"""

from __future__ import annotations

import numbers
import operator
import os
import secrets
import stat
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput
from .linalg import _real_array


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
        for name in ("n", "r"):
            dims = enumerate(_sequence(getattr(self, name), name))
            dims = tuple(_dimension(v, f"{name}[{j}]") for j, v in dims)
            object.__setattr__(self, name, dims)
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
        """Row/column slice of sensor j inside the stacked observation. ``j``
        is an integer in [-p, p), negative values counting from the end."""
        j = _block_index(self, j)
        start = sum(self.n[:j])
        return slice(start, start + self.n[j])


def _block_index(part: SensorPartition, j) -> int:
    """The sensor index ``j``, an integer in [-p, p), as one in [0, p).
    Anything else, a bool or a float included, raises :class:`InvalidInput`
    naming ``j``."""
    j = _dimension(j, "j")
    if not -part.p <= j < part.p:
        raise InvalidInput(f"j must be in [-{part.p}, {part.p}), got {j}")
    return j % part.p


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


def _file_name(value, name: str):
    """``value``, if it is a file name: a non-empty ``str`` or
    ``os.PathLike`` that holds no NUL and encodes in the file-system
    encoding. Anything else raises :class:`InvalidInput` naming ``name``."""
    if not isinstance(value, (str, os.PathLike)):
        got = type(value).__name__
        raise InvalidInput(f"{name} must be a str or os.PathLike, got {got}")
    try:
        encoded = os.fsencode(value)
    except UnicodeEncodeError:
        encoded = b""
    if not encoded or b"\0" in encoded:
        raise InvalidInput(f"{name} is not a file name: {value!r}")
    return value


def _write_target(path) -> tuple[str, int | None]:
    """The file a write to the :func:`_file_name` ``path`` lands in, every
    symbolic link resolved by ``os.path.realpath``, and its mode, None when
    it or a directory above it is missing. One that is not a regular file,
    or cannot be looked up (a link loop), raises :class:`OSError` naming it."""
    target = os.path.realpath(_file_name(path, "path"))
    try:
        mode = os.stat(target).st_mode
    except (FileNotFoundError, NotADirectoryError):
        return target, None
    except OSError as exc:
        raise OSError(f"cannot be looked up: {path} ({exc.strerror})") from None
    if stat.S_ISDIR(mode):
        raise OSError(f"is a directory: {path}")
    if not stat.S_ISREG(mode):
        raise OSError(f"is not a regular file: {path}")
    return target, mode


def atomic_write(path, data: bytes) -> None:
    """Write ``data`` to the file :func:`_write_target` finds for ``path``,
    through a temporary file made beside that file and renamed onto it, so a
    link stays a link. If that file cannot be made, the OSError names ``path``;
    a later failure removes it and leaves the target as it was. A new target
    gets the mode ``open`` gives (0o666 less the umask), an existing one its own."""
    target, mode = _write_target(path)
    tmp = os.path.join(os.path.dirname(target), f"tmp{secrets.token_hex(8)}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:  # a missing directory, say
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` if it is read-only, float64 and owns its data, else such a copy."""
    if a.dtype != np.float64 or a.flags.writeable or a.base is not None:
        a = np.array(a, dtype=np.float64)
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SecondMomentModel:
    """The triple (E_xx, E_xy, E_yy) with sensor-block structure.

    The moments follow the README's array rule, finite norm included, and
    the model holds them alone, as read-only float64 arrays of its own, so
    what the solver keeps beside it (the solver module says what and when)
    cannot go stale; the solver refuses a model whose moment has been made
    writeable again. Compared by identity: ``==`` is ``is``, and a model
    hashes.
    """

    partition: SensorPartition
    e_xx: np.ndarray
    e_xy: np.ndarray
    e_yy: np.ndarray

    def __post_init__(self):
        m, n = _partition(self.partition).m, self.partition.n_total
        for name, shape in (("e_xx", (m, m)), ("e_xy", (m, n)), ("e_yy", (n, n))):
            a = _real_array(getattr(self, name), name, shape, finite=True)
            object.__setattr__(self, name, _frozen(a))

    def __reduce__(self):
        return type(self), (self.partition, self.e_xx, self.e_xy, self.e_yy)


@dataclass(frozen=True, eq=False)
class SampleEnsemble:
    """Training samples, arrays under the README's array rule: one column per
    draw, rows stacked per sensor, held as float64 (a float64 array as it
    is). Compared by identity: ``==`` is ``is``, and an ensemble hashes."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("x", "y"):
            a = _real_array(getattr(self, name), name)
            object.__setattr__(self, name, a.astype(np.float64, copy=False))
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
    for a in (e_xx, e_xy, e_yy):  # the model keeps these, not copies
        a.flags.writeable = False
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
    s1, s2 = (sig**2 for sig in _EX1_SIGMAS)
    e_xy = np.hstack([_EX1_EXX, _EX1_EXX])
    e_yy = np.block(
        [
            [_EX1_EXX + s1 * np.eye(3), _EX1_EXX],
            [_EX1_EXX, _EX1_EXX + s2 * np.eye(3)],
        ]
    )
    return SecondMomentModel(
        partition=replace(EXAMPLE1_PARTITION, r=r),
        e_xx=_EX1_EXX,
        e_xy=e_xy,
        e_yy=e_yy,
    )
