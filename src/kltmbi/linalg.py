"""Dense linear-algebra primitives: SVD, truncation, pseudo-inverse, PSD root.

All functions are pure and deterministic for a fixed input. Numerical rank is
decided by the backward-stable threshold ``sigma_max * max(rows, cols) * eps``,
which :func:`psd_sqrt` applies to eigenvalues.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotPsd

_EPS = np.finfo(np.float64).eps

# psd_sqrt's tolerance, relative to max(1, ||c||), for asymmetry and for
# negative eigenvalues that are clamped to zero as estimation noise.
_PSD_REL_TOL = 1e-8


class DegenerateTruncationWarning(UserWarning):
    """Truncation at a repeated singular value: the result is not unique."""


def _as_matrix(c) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise InvalidInput(f"expected a 2-d array, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidInput("matrix contains NaN or Inf entries")
    return c


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``c = u @ diag(sigma) @ v.T`` with a numerical rank estimate.

    ``u`` and ``v`` have orthonormal columns; ``sigma`` is non-increasing and
    non-negative; ``numeric_rank`` counts singular values above the rank
    threshold.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    numeric_rank: int

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse; singular values at or below the rank
        threshold count as exact zeros."""
        k = self.numeric_rank
        if k == 0:
            return np.zeros((self.v.shape[0], self.u.shape[0]))
        return (self.v[:, :k] / self.sigma[:k]) @ self.u[:, :k].T

    def row_projector(self) -> np.ndarray:
        """Orthogonal projector ``V_k V_k^T`` onto the row space (range of
        ``c.T``). NumPy forms ``v @ v.T`` with a symmetric rank-k update, so
        the result is exactly symmetric."""
        v = self.v[:, : self.numeric_rank]
        return v @ v.T


def svd(c) -> SvdFactors:
    """Thin SVD with numerical-rank detection.

    Raises :class:`InvalidInput` on non-finite entries.
    """
    c = _as_matrix(c)
    u, s, vt = np.linalg.svd(c, full_matrices=False)
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
    emitted. An MBI sweep truncates only for the blocks it solves in full, so
    a candidate that its screen rules out never warns.
    """
    if r < 0:
        raise InvalidInput(f"truncation rank must be >= 0, got {r}")
    f = svd(c)
    k = min(r, f.numeric_rank)
    if 0 < k < f.sigma.size:
        gap = f.sigma[k - 1] - f.sigma[k]
        if gap <= 1e-12 * max(1.0, f.sigma[0]):
            warnings.warn(
                f"singular values {k} and {k + 1} coincide; truncation is "
                "not unique",
                DegenerateTruncationWarning,
                stacklevel=2,
            )
    return (f.u[:, :k] * f.sigma[:k]) @ f.v[:, :k].T


def pinv(c) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; singular values below the rank threshold
    are treated as exact zeros."""
    return svd(c).pinv()


def psd_sqrt(c) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    The root's rank is decided on the eigenvalues with the module's rank
    rule: every eigenvalue at or below ``N * eps * max(lambda_max, 0)`` of
    the N x N input is an exact zero, so round-off in a rank-deficient input
    (such as a sample moment from fewer samples than rows) adds no rank.
    This also clamps eigenvalues in ``[-1e-8 * max(1, ||c||), 0)``
    (tolerated estimation noise); anything more negative raises
    :class:`NotPsd`. The eigendecomposition of the symmetrized input keeps
    the root exactly symmetric.
    """
    c = _as_matrix(c)
    if c.shape[0] != c.shape[1]:
        raise InvalidInput(f"psd_sqrt needs a square matrix, got {c.shape}")
    scale = max(1.0, float(np.linalg.norm(c)))
    if np.linalg.norm(c - c.T) > _PSD_REL_TOL * scale:
        raise InvalidInput("psd_sqrt input is not symmetric within tolerance")
    sym = (c + c.T) / 2.0
    w, vecs = np.linalg.eigh(sym)
    if w.size and w[0] < -_PSD_REL_TOL * scale:
        raise NotPsd(f"eigenvalue {w[0]:.3e} below -{_PSD_REL_TOL:.0e} * ||c||")
    tol = c.shape[0] * _EPS * max(float(w[-1]), 0.0) if w.size else 0.0
    w = np.where(w > tol, w, 0.0)
    root = (vecs * np.sqrt(w)) @ vecs.T
    return (root + root.T) / 2.0
