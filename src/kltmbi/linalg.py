"""Dense linear-algebra primitives: SVD, truncation, pseudo-inverse, PSD root.

All functions are pure and deterministic for a fixed input. Numerical rank is
decided by a backward-stable threshold ``sigma_max * max(rows, cols) * eps``,
overridable per call via ``rank_tol``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotPsd

_EPS = np.finfo(np.float64).eps


class DegenerateTruncationWarning(UserWarning):
    """Truncation at a repeated singular value: the result is not unique."""


def _as_matrix(c) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise InvalidInput(f"expected a 2-d array, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidInput("matrix contains NaN or Inf entries")
    return c


def default_rank_tol(sigma: np.ndarray, shape: tuple[int, int]) -> float:
    """Backward-stable numerical-rank threshold for the given spectrum."""
    if sigma.size == 0:
        return 0.0
    return float(sigma[0]) * max(shape) * _EPS


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``c = u @ diag(sigma) @ v.T`` with a numerical rank estimate.

    ``u`` and ``v`` have orthonormal columns; ``sigma`` is non-increasing and
    non-negative; ``numeric_rank`` counts singular values above ``rank_tol``.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    numeric_rank: int
    rank_tol: float

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse; singular values at or below
        ``rank_tol`` count as exact zeros."""
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


def svd(c, rank_tol: float | None = None) -> SvdFactors:
    """Thin SVD with numerical-rank detection.

    Raises :class:`InvalidInput` on non-finite entries.
    """
    c = _as_matrix(c)
    u, s, vt = np.linalg.svd(c, full_matrices=False)
    tol = default_rank_tol(s, c.shape) if rank_tol is None else float(rank_tol)
    numeric_rank = int(np.count_nonzero(s > tol))
    return SvdFactors(u=u, sigma=s, v=vt.T, numeric_rank=numeric_rank, rank_tol=tol)


def truncated(c, r: int, rank_tol: float | None = None) -> np.ndarray:
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
    f = svd(c, rank_tol=rank_tol)
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


def pinv(c, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; singular values below the rank threshold
    are treated as exact zeros."""
    return svd(c, rank_tol=rank_tol).pinv()


def psd_sqrt(c, rel_tol: float = 1e-8) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in ``[-rel_tol * ||c||, 0)`` are clamped to zero (tolerated
    estimation noise); anything more negative raises :class:`NotPsd`.
    The eigendecomposition of the symmetrized input keeps the root exactly
    symmetric.
    """
    c = _as_matrix(c)
    if c.shape[0] != c.shape[1]:
        raise InvalidInput(f"psd_sqrt needs a square matrix, got {c.shape}")
    scale = max(1.0, float(np.linalg.norm(c)))
    if np.linalg.norm(c - c.T) > rel_tol * scale:
        raise InvalidInput("psd_sqrt input is not symmetric within tolerance")
    sym = (c + c.T) / 2.0
    w, vecs = np.linalg.eigh(sym)
    if w.size and w[0] < -rel_tol * scale:
        raise NotPsd(f"eigenvalue {w[0]:.3e} below -{rel_tol:.0e} * ||c||")
    w = np.clip(w, 0.0, None)
    root = (vecs * np.sqrt(w)) @ vecs.T
    return (root + root.T) / 2.0
