"""Deployable sensor/fusion-center models and error evaluation.

A solved compressor bank F = (F_1, ..., F_p) is factorized per sensor as
F_j = P_j Q_j via the truncated SVD: Q_j (r_j x n_j) is the encoder run at
sensor j, P_j (m x r_j) the corresponding block of the fusion-center decoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .covariance import (
    SampleEnsemble,
    SecondMomentModel,
    SensorPartition,
    _file_name,
    _instance,
    _partition,
    _sequence,
    atomic_write,
)
from .errors import InvalidInput, ParseError
from .linalg import _real_array, _subtract_product
from .solver import CompressorBank, _mse, _objective, _rank_checked


@dataclass(frozen=True, eq=False)
class FactorizedWsn:
    """Per-sensor encoders Q_j and fusion decoder blocks P_j with
    P_j Q_j = F_j. Encoder row counts are exactly r_j (the wire dimension),
    zero-padded when rank F_j < r_j. The p encoders (r_j x n_j) and decoder
    blocks (m x r_j) follow the README's array rule, finite norm included.
    Compared by identity: ``==`` is ``is``, and an instance hashes."""

    encoders: tuple[np.ndarray, ...]
    decoder_blocks: tuple[np.ndarray, ...]
    partition: SensorPartition

    def __post_init__(self):
        part = _partition(self.partition)
        for name in ("encoders", "decoder_blocks"):
            object.__setattr__(self, name, _sequence(getattr(self, name), name))
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
                _real_array(a, f"{what} {j}", want, finite=True)


def factorize_wsn(bank: CompressorBank) -> FactorizedWsn:
    """Split each block through its SVD with a balanced singular-value split:
    P_j = U sqrt(S), Q_j = sqrt(S) V^T, so that P_j Q_j reproduces F_j.
    Raises :class:`InvalidInput` naming a block whose numeric rank exceeds
    its r_j, which no r_j-row link could carry."""
    part = _instance(bank, CompressorBank, "bank").partition
    encoders, decoders = [], []
    for j, fj in enumerate(bank.blocks):
        rj = part.r[j]
        f = _rank_checked(fj, j, rj)
        k = f.numeric_rank
        # the k leading triplets, zero-padded to the r_j-row wire
        scale = np.sqrt(f.sigma[:k])
        encoders.append(np.pad((f.v[:, :k] * scale).T, ((0, rj - k), (0, 0))))
        decoders.append(np.pad(f.u[:, :k] * scale, ((0, 0), (0, rj - k))))
    return FactorizedWsn(encoders, decoders, part)


def compress(wsn: FactorizedWsn, y: np.ndarray) -> list[np.ndarray]:
    """Per-sensor transmitted vectors u_j = Q_j y_j (columns are samples)."""
    part = _instance(wsn, FactorizedWsn, "wsn").partition
    y = _real_array(y, "y", (part.n_total, None), sample=True)
    return [wsn.encoders[j] @ y[part.y_slice(j)] for j in range(part.p)]


def reconstruct(wsn: FactorizedWsn, u: list[np.ndarray]) -> np.ndarray:
    """Fusion-center estimate x_hat = sum_j P_j u_j."""
    part = _instance(wsn, FactorizedWsn, "wsn").partition
    u = _sequence(u, "u")
    if len(u) != part.p:
        raise InvalidInput(f"expected {part.p} compressed blocks, got {len(u)}")
    for j, uj in enumerate(u):
        # r_j rows, and after block 0, the samples (columns) block 0 holds
        cols = u[0].shape[1:] if j else (None,)
        _real_array(uj, f"compressed block {j}", (part.r[j], *cols), sample=not j)
    return sum(wsn.decoder_blocks[j] @ u[j] for j in range(part.p))


def analytic_mse(model: SecondMomentModel, bank: CompressorBank) -> float:
    """Model-based mean square error of the bank:
    tr(E_xx) - ||H||^2 + ||H - sum_j F_j G_j||^2 with H = E_xy (E_yy^(1/2))^+
    and G_j the row blocks of E_yy^(1/2), clamped at 0.

    The objective ||H - sum_j F_j G_j||^2 is the one a solve from ``bank``
    starts from, and the MSE comes from the solver's one formula, so for
    every bank of a solve this equals the trace's ``mse_per_iteration``
    entry, bit for bit. The terms cancel at a near-exact fit, so the value
    is accurate to about N * eps * tr(E_xx) in absolute terms
    (N = n_total), and less where E_yy is ill-conditioned; below that,
    :func:`empirical_mse` of the training samples is the number to read.
    Works identically for exact and sample-estimated moments. Raises
    :class:`InvalidInput` when ``model`` is not a :class:`SecondMomentModel`,
    ``bank`` not a :class:`CompressorBank` or their partitions disagree, and
    :class:`NotPsd` when :func:`~kltmbi.solver.mbi_solve` would.
    """
    part = _instance(model, SecondMomentModel, "model").partition
    _instance(bank, CompressorBank, "bank")
    if bank.partition.n != part.n or bank.partition.m != part.m:
        raise InvalidInput("bank and model partitions disagree")
    return _mse(model, [_objective(model, bank)])[0]


def empirical_mse(ens: SampleEnsemble, bank: CompressorBank) -> float:
    """Average per-sample squared error (1/s) ||X - F Y||_F^2, computed as
    (1/s) sum_c ||X_c - F Y_c||_F^2 over the column chunks c of at most
    _CHUNK samples, in order, through two m x _CHUNK buffers and the bank's
    stacked m x N ``full()``: no m x s array is allocated. Raises
    :class:`InvalidInput` naming the samples whose ``y``, or whose
    ``x - F y``, is not finite or overflows when squared."""
    _instance(ens, SampleEnsemble, "ens")
    _instance(bank, CompressorBank, "bank")
    _real_array(ens.y, "y", (bank.partition.n_total, None))
    _real_array(ens.x, "x", (bank.partition.m, None))
    return _chunked_mse(ens, [bank], [])[0]


# Columns per chunk of the sample residual: each of its two buffers is
# m x _CHUNK, about 1 MB at m = 32.
_CHUNK = 4096
# A chunk's running residual R_c is formed again from scratch once its norm
# falls below this fraction of a bound on the norms subtracted from X_c to
# form it: past that point cancellation would cost it more digits than the
# trace prints.
_REFRESH_RATIO = 1e3


def _samples(cols: slice) -> str:
    """The samples (columns) ``cols`` holds, for an error message."""
    return f"samples {cols.start} to {cols.stop - 1}"


def _chunked_mse(
    ens: SampleEnsemble, banks: list[CompressorBank], chosen: list[int]
) -> list[float]:
    """:func:`empirical_mse` (1/s) ||X - F Y||_F^2 of each bank, where bank
    i differs from bank i - 1 only in block ``chosen[i-1]``, as the
    ``banks`` and ``chosen_block_per_iteration`` of an MBI trace do.

    For each column chunk c of at most _CHUNK samples, R_c = X_c - F Y_c is
    formed for the first bank, then every committed step is applied to it
    while it is in cache: step i changes only block j = ``chosen[i-1]``, so
    R_c -= (F_j' - F_j) Y_jc, one in-place GEMM on R_c
    (:func:`~kltmbi.linalg._subtract_product`; its two-call fallback, where
    OpenBLAS or the layout rules it out, goes through the step buffer). A
    step costs m x n_j x s flops in all instead of m x N x s. Row i adds
    ||R_c||^2 for each chunk in order and divides by s at the end. The
    in-place GEMM gives the bits of the two-call form while n_j fits one
    OpenBLAS K block (n_j <= 256 under SkylakeX and Haswell kernels); above
    that a row agrees with the two-call form to rounding only.

    R_c is formed from scratch for the first bank and whenever ||R_c|| falls
    below 1/_REFRESH_RATIO of sum_j ||F_j|| ||Y_jc|| plus
    sum ||F_j' - F_j|| ||Y_jc|| over the steps since, as it does on every row
    of a near-exact fit. A row whose every chunk is formed afresh equals
    :func:`empirical_mse` of its bank bit for bit.

    The replay holds two m x _CHUNK buffers, R_c and a step buffer that
    serves the fresh formations, which keep the two-call form
    ``F Y_c``, then ``X_c - F Y_c``, with K = N, so that a fresh row equals
    :func:`empirical_mse` bit for bit. A fresh formation also holds the one
    m x N stacked bank it multiplies by; a step's F_j' - F_j is formed when
    the step is applied. Nothing is kept per bank.

    Non-finite samples are found from norms the replay forms anyway: each
    chunk's row sums of Y_c squared, and the norm of each R_c formed from
    scratch, which every chunk's first row is. Either one that is not
    finite raises :class:`InvalidInput` naming the chunk's samples.
    """
    part = banks[0].partition
    m, s = part.m, ens.s
    rows = [part.y_slice(j) for j in range(part.p)]
    chunk = min(_CHUNK, s)
    resid_buf, step_buf = np.empty(m * chunk), np.empty(m * chunk)
    sums = [0.0] * len(banks)
    for start in range(0, s, chunk):
        cols = slice(start, min(start + chunk, s))
        resid = resid_buf[: m * (cols.stop - start)].reshape(m, -1)
        step = step_buf[: resid.size].reshape(m, -1)
        y_c = ens.y[:, cols]
        # row by row, without the copy a norm of the strided Y_jc makes
        y_sq = np.einsum("ij,ij->i", y_c, y_c)
        if not np.isfinite(y_sq).all():
            raise InvalidInput(
                f"y of {_samples(cols)} is not finite or its square overflows"
            )
        y_norms = [np.sqrt(y_sq[r].sum()) for r in rows]
        for i, bank in enumerate(banks):
            if i:
                j = chosen[i - 1]
                delta = bank.blocks[j] - banks[i - 1].blocks[j]
                drift += np.linalg.norm(delta) * y_norms[j]
                _subtract_product(resid, delta, y_c[rows[j]], step)
                norm = np.linalg.norm(resid)
            if i == 0 or drift > _REFRESH_RATIO * norm:
                drift = sum(np.linalg.norm(f) * y for f, y in zip(bank.blocks, y_norms))
                np.matmul(bank.full(), y_c, out=step)
                # a copy, then a subtraction of contiguous arrays: one from
                # the strided X_c would take a 64 KiB iterator buffer
                resid[...] = ens.x[:, cols]
                resid -= step
                with np.errstate(over="ignore"):
                    norm = np.linalg.norm(resid)
                if not np.isfinite(norm):
                    raise InvalidInput(
                        f"x - F y of {_samples(cols)} is not finite or its "
                        "norm overflows"
                    )
            sums[i] += norm * norm  # not ``norm**2``: see solver._sq_norm
    return [float(v / s) for v in sums]


def _json_matrix(rows, name: str) -> np.ndarray:
    """A matrix given as a JSON list of rows of numbers. ``np.array`` would
    coerce bools, numeric strings and nulls, so each entry is checked first."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ParseError(f"{name} must be a list of rows")
    for row in rows:
        for v in row:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ParseError(f"{name} has a non-numeric entry {v!r}")
    return np.array(rows, dtype=np.float64)


def save_wsn_json(wsn: FactorizedWsn, path, provenance: dict | None = None) -> None:
    """Write the WSN document (partition, per-sensor matrices, metadata) to
    ``path``, through any link, by :func:`~kltmbi.covariance.atomic_write`."""
    part = _instance(wsn, FactorizedWsn, "wsn").partition
    doc = {
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
    atomic_write(path, (json.dumps(doc, indent=2) + "\n").encode())


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises
    :class:`ParseError`, where ``dict`` would keep the last silently."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _read_json(path):
    """The document in the UTF-8 JSON file at the file name ``path``. A file
    that does not decode, or an object that gives a key twice, raises
    :class:`ParseError`; :class:`OSError` passes through."""
    with open(_file_name(path, "path"), encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        # a UnicodeDecodeError and the ParseError above are ValueErrors;
        # nesting too deep for the decoder raises RecursionError
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from None


def load_wsn_json(path) -> FactorizedWsn:
    """Inverse of :func:`save_wsn_json`, from a file name (not a descriptor).
    A file that is not JSON, a document with a missing key, a matrix entry
    that is not a JSON number, a partition dimension that is not a JSON
    integer or matrices that contradict its partition raises :class:`ParseError`."""
    doc = _read_json(path)
    try:
        part = SensorPartition(
            m=doc["partition"]["m"], n=doc["partition"]["n"], r=doc["partition"]["r"]
        )
        sensors = doc["sensors"]
        return FactorizedWsn(
            encoders=[
                _json_matrix(s["encoder"], f"sensors[{j}].encoder")
                for j, s in enumerate(sensors)
            ],
            decoder_blocks=[
                _json_matrix(s["decoder"], f"sensors[{j}].decoder")
                for j, s in enumerate(sensors)
            ],
            partition=part,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # ValueError covers InvalidInput from the partition and the shapes;
        # OverflowError an integer literal beyond the float range
        raise ParseError(f"malformed network document: {exc}") from None
