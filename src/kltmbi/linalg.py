"""Dense linear-algebra primitives: SVD, truncation, pseudo-inverse, PSD root.

All functions are pure and deterministic for a fixed input. Numerical rank is
decided by the backward-stable threshold ``sigma_max * max(rows, cols) * eps``,
which :func:`psd_sqrt` applies to eigenvalues: every eigenvalue at or below
``N * eps * max(lambda_max, 0)`` becomes an exact zero, so a second moment
estimated from s < N samples keeps rank s instead of a round-off rank whose
pseudo-inverse would be scaled by ~1e8. Every tolerance here (rank,
truncation ties, PSD and symmetry) is relative to the input's own scale, so
scaling an input by a power of two changes no decision.

The module calls NumPy's own OpenBLAS through one binding,
:func:`_openblas`. Every SVD is one call of LAPACKE's ``dgesdd`` with
NumPy's job arguments, so it gives NumPy's results bit for bit; LAPACKE
sizes, allocates and frees the workspace. The call works in buffers of its
own: one Fortran-ordered copy of the input and LAPACK's outputs, copied to
NumPy's C order once the input copy is freed. NumPy holds all of those and
its own results at once, so the set-up's N x N SVDs peak two N x N arrays
lower. The outputs keep NumPy's order because for N up to about 100
OpenBLAS's small-matrix GEMMs round the products that follow (``pinv``)
differently when their operands are held in another order. Where the
driver is not bound, NumPy's ``svd`` is the path.

A thin SVD, one whose smaller side is at most 64, runs with the process's
OpenBLAS set to one thread and the caller's count restored after it: on two
threads it is about twice as slow and gives the same bits. Larger SVDs, and
every other call, keep the caller's count, because their bits depend on it.
Thin SVDs from several threads take turns, and while one runs, BLAS calls
from other threads of the process also run on one thread.

:func:`_subtract_product` forms ``c -= a @ b`` as one in-place OpenBLAS
GEMM where it can, with NumPy's two calls as the fallback.
"""

from __future__ import annotations

import ctypes
import functools
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotPsd

_EPS = np.finfo(np.float64).eps

# psd_sqrt's tolerance, relative to ||c||, for asymmetry and for negative
# eigenvalues that are clamped to zero as estimation noise.
_PSD_REL_TOL = 1e-8

# svd's one-thread cut-off on the smaller side; the thin SVDs that share bits
# on one and two threads stop between 128 x 512 and 256 x 512.
_ONE_THREAD_SIDE = 64

# Held for the length of a thin SVD, so that the count one saves is never
# the one thread another set.
_one_thread_lock = threading.Lock()


class DegenerateTruncationWarning(UserWarning):
    """Truncation at a repeated singular value: the result is not unique."""


def _real_array(a, name: str, shape=(None, None), *, sample=False, finite=False):
    """``a``, once it passes the README's array rule: a NumPy array of integer
    or float dtype with the sizes ``shape`` gives (None: any), the last one
    optional with ``sample`` (a single sample) and, with ``finite``, a
    finite Frobenius norm. Raises :class:`InvalidInput` naming ``name``."""
    if not isinstance(a, np.ndarray) or a.dtype.kind not in "iuf":
        got = f"{a.dtype} array" if isinstance(a, np.ndarray) else type(a).__name__
        raise InvalidInput(f"{name} must be a real NumPy array, got {got}")
    if sample and a.ndim == 1:
        shape = shape[:1]
    if a.ndim != len(shape):
        dims = "1-d or 2-d" if sample else f"{len(shape)}-d"
        raise InvalidInput(f"{name} must be {dims}, got shape {a.shape}")
    if shape[0] is not None and a.shape[0] != shape[0]:
        raise InvalidInput(f"{name} has {a.shape[0]} rows, expected {shape[0]} rows")
    if any(w is not None and w != d for d, w in zip(a.shape, shape)):
        raise InvalidInput(f"{name} must be {shape}, got {a.shape}")
    if finite:
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(a)
        if not np.isfinite(norm):
            raise InvalidInput(f"{name} or its norm is not finite")
    return a


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD ``c = u @ diag(sigma) @ v.T`` with a numerical rank estimate.

    ``u`` and ``v`` have orthonormal columns; ``sigma`` is non-increasing and
    non-negative; ``numeric_rank`` counts singular values above the rank
    threshold. Compared by identity: ``==`` is ``is``, and an instance
    hashes.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    numeric_rank: int

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse; singular values at or below the rank
        threshold count as exact zeros."""
        k = self.numeric_rank
        return (self.v[:, :k] / self.sigma[:k]) @ self.u[:, :k].T


# The forms, as (prefix, suffix), of the names under which NumPy's linalg
# module may link OpenBLAS, most likely first: NumPy's wheels link
# scipy-openblas, whose names carry the "scipy_" prefix, and a "64_" suffix
# marks the interface whose integer arguments are 64-bit.
_OPENBLAS_FORMS = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))

# CBLAS's enum values for a row-major matrix and an untransposed operand, and
# LAPACKE's for a column-major matrix.
_ROW_MAJOR, _NO_TRANS, _COL_MAJOR = 101, 111, 102

# Each function _openblas binds, by its field of _OpenBlas: its name without
# the form's prefix and suffix, then its result and argument types as codes:
# "i" the interface's integer (64-bit under the "64_" suffix), "e" a C int
# (an enum or a thread count), "c" a char, "d" a double, "p" a pointer and
# "" no result.
_SIGNATURES = {
    "get_threads": ("openblas_get_num_threads", "e", ""),
    "set_threads": ("openblas_set_num_threads", "", "e"),
    # order, transposes, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc
    "dgemm": ("cblas_dgemm", "", "eeeiiidpipidpi"),
    # layout, jobz, M, N, A, lda, S, U, ldu, VT, ldvt
    "gesdd": ("LAPACKE_dgesdd", "i", "eciipippipi"),
}


@dataclass(frozen=True)
class _OpenBlas:
    """The OpenBLAS functions of ``_SIGNATURES``, each bound with its
    signature, or None where it is not found."""

    get_threads: object = None
    set_threads: object = None
    dgemm: object = None
    gesdd: object = None


@functools.cache
def _openblas() -> _OpenBlas:
    """The functions of ``_SIGNATURES`` as NumPy's linalg module links them,
    in the first form of ``_OPENBLAS_FORMS`` that names
    ``openblas_get_num_threads``; every field is None where that linalg is
    not OpenBLAS."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return _OpenBlas()
    for prefix, suffix in _OPENBLAS_FORMS:
        if hasattr(lib, f"{prefix}openblas_get_num_threads{suffix}"):
            break
    else:
        return _OpenBlas()
    types = {
        "i": ctypes.c_int64 if suffix == "64_" else ctypes.c_int,
        "e": ctypes.c_int,
        "c": ctypes.c_char,
        "d": ctypes.c_double,
        "p": ctypes.c_void_p,
        "": None,
    }
    bound = {}
    for field, (name, result, args) in _SIGNATURES.items():
        function = getattr(lib, f"{prefix}{name}{suffix}", None)
        if function is not None:
            function.restype = types[result]
            function.argtypes = [types[code] for code in args]
        bound[field] = function
    return _OpenBlas(**bound)


def _row_major(a: np.ndarray) -> bool:
    """Whether CBLAS can take ``a`` as a row-major float64 matrix: aligned,
    unit stride along a row, and rows at least a row's length apart."""
    return (
        a.dtype == np.float64
        and a.flags.aligned
        and a.strides[1] == a.itemsize
        and a.strides[0] % a.itemsize == 0
        and a.strides[0] >= a.itemsize * max(a.shape[1], 1)
    )


def _subtract_product(c: np.ndarray, a: np.ndarray, b: np.ndarray, scratch) -> None:
    """``c -= a @ b`` for 2-d ``c`` (M x N), ``a`` (M x K) and ``b`` (K x N).

    Where OpenBLAS's ``cblas_dgemm`` is bound and every operand is a
    row-major float64 matrix (:func:`_row_major`), ``c`` writeable and apart
    from ``a`` and ``b``, this is one call with alpha = -1 and beta = 1 on
    ``c`` in place. Otherwise it is ``np.matmul(a, b, out=scratch)`` and
    ``c -= scratch``, with ``scratch`` shaped as ``c``. OpenBLAS's kernel
    adds alpha * (a @ b) into ``c`` in both forms (beta = 0 only zeroes the
    output first), so the two give the same bits while K fits one of its K
    blocks: measured up to K = 256 under SkylakeX and Haswell kernels, on
    one and two threads. Past its K block, 256 under Haswell and 384 under
    SkylakeX, the two round differently.
    """
    gemm = _openblas().dgemm
    (m, k), n = a.shape, b.shape[1]
    if (
        gemm is not None
        and b.shape[0] == k
        and c.shape == (m, n)
        and c.flags.writeable
        and all(map(_row_major, (c, a, b)))
        and not np.may_share_memory(c, a)
        and not np.may_share_memory(c, b)
    ):
        lead = [x.strides[0] // x.itemsize for x in (a, b, c)]
        gemm(
            _ROW_MAJOR, _NO_TRANS, _NO_TRANS, m, n, k,
            -1.0, a.ctypes.data, lead[0], b.ctypes.data, lead[1],
            1.0, c.ctypes.data, lead[2],
        )
        return
    np.matmul(a, b, out=scratch)
    c -= scratch


def _gesdd(c: np.ndarray, gesdd) -> tuple:
    """``np.linalg.svd(c, full_matrices=False)`` as ``(u, s, vt)``, bit for
    bit and in its C order: one ``LAPACKE_dgesdd`` call with NumPy's job on
    a Fortran-ordered copy of ``c``, which LAPACK overwrites, into
    Fortran-ordered ``u`` and ``vt``, each copied to C order once that copy
    is freed. Leading dimensions of at least 1 let an empty ``c`` through
    with NumPy's shapes. An ``info`` other than 0 raises
    :class:`MemoryError` where LAPACKE could not allocate, else NumPy's
    :class:`numpy.linalg.LinAlgError`."""
    m, n = c.shape
    k = min(m, n)
    a = np.array(c, order="F")
    s = np.empty(k)
    u, vt = np.empty((m, k), order="F"), np.empty((k, n), order="F")
    info = gesdd(
        _COL_MAJOR, b"S", m, n, a.ctypes.data, max(m, 1), s.ctypes.data,
        u.ctypes.data, max(m, 1), vt.ctypes.data, max(k, 1),
    )
    del a
    if info in (-1010, -1011):  # no memory for the workspace or a transpose
        raise MemoryError(f"LAPACKE could not allocate memory (info {info})")
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vt)


@contextmanager
def _one_blas_thread(on: bool):
    """Run the body on one OpenBLAS thread, if ``on``, and restore the
    process's count after it. The body holds ``_one_thread_lock``, so
    callers on several threads take turns."""
    blas = _openblas()
    get, put = blas.get_threads, blas.set_threads
    if not on or get is None or put is None:
        yield
        return
    with _one_thread_lock:
        saved = get()
        put(1)
        try:
            yield
        finally:
            put(saved)


def svd(c) -> SvdFactors:
    """Thin SVD with numerical-rank detection.

    The SVD is one call of OpenBLAS's ``LAPACKE_dgesdd`` (:func:`_gesdd`),
    or NumPy's ``svd`` where that is not bound, on one OpenBLAS thread when
    the smaller side is at most 64 (see the module docstring). Raises
    :class:`InvalidInput` on a non-finite entry or norm,
    :class:`numpy.linalg.LinAlgError` when the SVD does not converge and
    :class:`MemoryError` when LAPACKE cannot allocate its workspace.
    """
    c = _real_array(np.asarray(c, dtype=np.float64), "c", finite=True)
    gesdd = _openblas().gesdd
    with _one_blas_thread(min(c.shape) <= _ONE_THREAD_SIDE):
        if gesdd is None:
            u, s, vt = np.linalg.svd(c, full_matrices=False)
        else:
            u, s, vt = _gesdd(c, gesdd)
    tol = float(s[0]) * max(c.shape) * _EPS if s.size else 0.0
    numeric_rank = int(np.count_nonzero(s > tol))
    return SvdFactors(u=u, sigma=s, v=vt.T, numeric_rank=numeric_rank)


def truncated(c, r: int) -> np.ndarray:
    """Best Frobenius rank-``r`` approximation of ``c``.

    Keeps the ``min(r, numeric_rank)`` leading singular triplets; for
    ``r >= numeric_rank`` this reproduces ``c`` up to the rank threshold.
    When the spectrum has no gap at the cut (``sigma_r == sigma_{r+1}``) the
    minimizer is not unique; the leading triplets as ordered by the SVD are
    kept deterministically and a :class:`DegenerateTruncationWarning` is
    emitted. Ties are judged to within ``tol = 1e-12 * sigma_1``, relative
    to the input's own scale: a cut warns when
    ``sigma_r - sigma_{r+1} <= tol`` and ``sigma_r > tol``. A cut between
    values that are both within ``tol`` of zero is unique to within ``tol``
    and does not warn. An MBI sweep truncates only for the one block it
    solves in full.
    """
    if r < 0:
        raise InvalidInput(f"truncation rank must be >= 0, got {r}")
    f = svd(c)
    k = min(r, f.numeric_rank)
    if 0 < k < f.sigma.size:
        tol = 1e-12 * f.sigma[0]
        if f.sigma[k - 1] > tol and f.sigma[k - 1] - f.sigma[k] <= tol:
            warnings.warn(
                f"singular values {k} and {k + 1} coincide; truncation is "
                "not unique",
                DegenerateTruncationWarning,
                stacklevel=2,
            )
    return (f.u[:, :k] * f.sigma[:k]) @ f.v[:, :k].T


def psd_sqrt(c) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    The root's rank follows the module's rank rule on the eigenvalues of the
    N x N input. Eigenvalues in ``[-1e-8 * ||c||, 0)`` are clamped as
    tolerated estimation noise; anything more negative raises
    :class:`NotPsd`, and an asymmetry ``||c - c^T||`` above
    ``1e-8 * ||c||`` raises :class:`InvalidInput`. NumPy's ``eigh`` of
    the symmetrized input keeps the root exactly symmetric, and raises
    :class:`numpy.linalg.LinAlgError` as ``eigh`` does.
    """
    c = _real_array(np.asarray(c, dtype=np.float64), "c", finite=True)
    n = c.shape[0]
    if n != c.shape[1]:
        raise InvalidInput(f"psd_sqrt needs a square matrix, got {c.shape}")
    scale = float(np.linalg.norm(c))
    # one N x N buffer for c - c^T, then the symmetrized input
    sym = np.empty(c.shape)
    if np.linalg.norm(np.subtract(c, c.T, out=sym)) > _PSD_REL_TOL * scale:
        raise InvalidInput("psd_sqrt input is not symmetric within tolerance")
    np.add(c, c.T, out=sym)
    sym /= 2.0
    w, vecs = np.linalg.eigh(sym)
    del sym
    if w.size and w[0] < -_PSD_REL_TOL * scale:
        raise NotPsd(f"eigenvalue {w[0]:.3e} below -{_PSD_REL_TOL:.0e} * ||c||")
    tol = n * _EPS * max(float(w[-1]), 0.0) if w.size else 0.0
    w = np.where(w > tol, w, 0.0)
    root = (vecs * np.sqrt(w)) @ vecs.T
    out = np.add(root, root.T)
    out /= 2.0
    return out
