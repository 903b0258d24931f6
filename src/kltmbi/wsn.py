"""Deployable sensor/fusion-center models and error evaluation.

A solved compressor bank F = (F_1, ..., F_p) is factorized per sensor as
F_j = P_j Q_j via the truncated SVD: Q_j (r_j x n_j) is the encoder run at
sensor j, P_j (m x r_j) the corresponding block of the fusion-center decoder.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covariance import SampleEnsemble, SecondMomentModel, SensorPartition
from .errors import InvalidInput, ParseError
from .linalg import svd
from .solver import CompressorBank


@dataclass(frozen=True)
class FactorizedWsn:
    """Per-sensor encoders Q_j and fusion decoder blocks P_j with
    P_j Q_j = F_j. Encoder row counts are exactly r_j (the wire dimension),
    zero-padded when rank F_j < r_j. Raises :class:`InvalidInput` unless
    there are p finite encoders (r_j x n_j) and decoder blocks (m x r_j)."""

    encoders: tuple[np.ndarray, ...]
    decoder_blocks: tuple[np.ndarray, ...]
    partition: SensorPartition

    def __post_init__(self):
        object.__setattr__(self, "encoders", tuple(self.encoders))
        object.__setattr__(self, "decoder_blocks", tuple(self.decoder_blocks))
        part = self.partition
        if len(self.encoders) != part.p or len(self.decoder_blocks) != part.p:
            raise InvalidInput(
                f"need {part.p} encoders and decoder blocks, got "
                f"{len(self.encoders)} and {len(self.decoder_blocks)}"
            )
        for j in range(part.p):
            for what, a, want in (
                ("encoder", self.encoders[j], (part.r[j], part.n[j])),
                ("decoder block", self.decoder_blocks[j], (part.m, part.r[j])),
            ):
                if a.shape != want:
                    raise InvalidInput(f"{what} {j} must be {want}, got {a.shape}")
                if not np.all(np.isfinite(a)):
                    raise InvalidInput(f"{what} {j} has NaN or Inf entries")


def factorize_wsn(bank: CompressorBank) -> FactorizedWsn:
    """Split each block through its SVD with a balanced singular-value split:
    P_j = U sqrt(S), Q_j = sqrt(S) V^T. The product reproduces F_j exactly
    whenever rank F_j <= r_j."""
    part = bank.partition
    encoders = []
    decoders = []
    for j, fj in enumerate(bank.blocks):
        rj = part.r[j]
        f = svd(fj)
        k = min(rj, f.numeric_rank)
        scale = np.sqrt(f.sigma[:k])
        p_j = np.zeros((part.m, rj))
        q_j = np.zeros((rj, part.n[j]))
        p_j[:, :k] = f.u[:, :k] * scale
        q_j[:k] = (f.v[:, :k] * scale).T
        encoders.append(q_j)
        decoders.append(p_j)
    return FactorizedWsn(
        encoders=tuple(encoders), decoder_blocks=tuple(decoders), partition=part
    )


def compress(wsn: FactorizedWsn, y: np.ndarray) -> list[np.ndarray]:
    """Per-sensor transmitted vectors u_j = Q_j y_j (columns are samples)."""
    part = wsn.partition
    if y.shape[0] != part.n_total:
        raise InvalidInput(f"y must have {part.n_total} rows, got {y.shape[0]}")
    return [wsn.encoders[j] @ y[part.y_slice(j)] for j in range(part.p)]


def reconstruct(wsn: FactorizedWsn, u: list[np.ndarray]) -> np.ndarray:
    """Fusion-center estimate x_hat = sum_j P_j u_j."""
    part = wsn.partition
    if len(u) != part.p:
        raise InvalidInput(f"expected {part.p} compressed blocks, got {len(u)}")
    for j, uj in enumerate(u):
        if uj.shape[0] != part.r[j]:
            raise InvalidInput(
                f"compressed block {j} must have {part.r[j]} rows, got {uj.shape[0]}"
            )
    out = wsn.decoder_blocks[0] @ u[0]
    for j in range(1, part.p):
        out = out + wsn.decoder_blocks[j] @ u[j]
    return out


def analytic_mse(model: SecondMomentModel, bank: CompressorBank) -> float:
    """Model-based mean square error of the bank:
    tr(E_xx) - ||H||^2 + ||H - F E_yy^(1/2)||^2 with H = E_xy (E_yy^(1/2))^+.

    Works identically for exact and sample-estimated moments. E_yy^(1/2) and
    H are cached on the model, so each call costs one m x N x N product.
    """
    if bank.partition.n != model.partition.n or bank.partition.m != model.partition.m:
        raise InvalidInput("bank and model partitions disagree")
    h = model.h
    tail = np.linalg.norm(h - bank.full() @ model.e_yy_root) ** 2
    mse = float(np.trace(model.e_xx) - np.linalg.norm(h) ** 2 + tail)
    # The three terms cancel almost completely for near-perfect banks, so
    # round-off can leave a tiny negative residue; the true value is >= 0.
    return max(mse, 0.0)


def empirical_mse(ens: SampleEnsemble, bank: CompressorBank) -> float:
    """Average per-sample squared error (1/s) ||X - F Y||_F^2."""
    if ens.y.shape[0] != bank.partition.n_total:
        raise InvalidInput(
            f"y has {ens.y.shape[0]} rows, bank expects {bank.partition.n_total}"
        )
    if ens.x.shape[0] != bank.partition.m:
        raise InvalidInput(
            f"x has {ens.x.shape[0]} rows, bank expects {bank.partition.m}"
        )
    resid = ens.x - bank.apply(ens.y)
    return float(np.linalg.norm(resid) ** 2 / ens.s)


def wsn_to_dict(wsn: FactorizedWsn, provenance: dict | None = None) -> dict:
    """JSON-ready document: partition, per-sensor matrices, metadata."""
    from . import __version__

    part = wsn.partition
    return {
        "format": "klt-mbi-wsn",
        "library_version": __version__,
        "partition": {"m": part.m, "n": list(part.n), "r": list(part.r)},
        "provenance": provenance or {},
        "sensors": [
            {
                "encoder": wsn.encoders[j].tolist(),
                "decoder": wsn.decoder_blocks[j].tolist(),
            }
            for j in range(part.p)
        ],
    }


def wsn_from_dict(doc: dict) -> FactorizedWsn:
    """Inverse of :func:`wsn_to_dict`. A document with a missing key, a
    non-numeric matrix or matrices that contradict its partition raises
    :class:`ParseError`."""
    try:
        part = SensorPartition(
            m=doc["partition"]["m"],
            n=tuple(doc["partition"]["n"]),
            r=tuple(doc["partition"]["r"]),
        )
        sensors = doc["sensors"]
        return FactorizedWsn(
            encoders=[np.array(s["encoder"], dtype=np.float64) for s in sensors],
            decoder_blocks=[np.array(s["decoder"], dtype=np.float64) for s in sensors],
            partition=part,
        )
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers InvalidInput from the partition and the shapes
        raise ParseError(f"malformed network document: {exc}") from None


def atomic_write(path, write: Callable[[str], object]) -> None:
    """Have ``write`` fill a temporary file next to ``path``, then rename it
    onto ``path``. If anything fails, the temporary file is removed and an
    existing ``path`` keeps its old contents."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_wsn_json(wsn: FactorizedWsn, path, provenance: dict | None = None) -> None:
    """Atomically write the WSN document (temp file + rename)."""
    text = json.dumps(wsn_to_dict(wsn, provenance), indent=2) + "\n"
    atomic_write(path, lambda tmp: Path(tmp).write_text(text))


def load_wsn_json(path) -> FactorizedWsn:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path} is not JSON: {exc}") from None
    return wsn_from_dict(doc)
