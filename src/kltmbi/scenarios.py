"""Seeded scenario generators for the simulation studies and PGM image I/O
for the image-compression experiment.

Every generator is a pure function of its spec (including the seed); the PRNG
is numpy's PCG64, explicitly seeded, so outputs are reproducible across
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covariance import (
    SampleEnsemble,
    SecondMomentModel,
    SensorPartition,
    example1_model,
)
from .errors import InvalidInput, ParseError

KINDS = ("exact_example1", "additive_noise", "pure_noise_obs", "linear_mixing", "image")


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation study: a scenario family, its partition, sample count,
    per-sensor noise scales, PRNG seed, and (for image runs) a source image."""

    kind: str
    partition: SensorPartition
    s: int = 1
    sigmas: tuple[float, ...] = ()
    seed: int = 0
    image_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(float(v) for v in self.sigmas))
        if self.kind not in KINDS:
            raise InvalidInput(f"unknown scenario kind {self.kind!r}")
        if self.s < 1:
            raise InvalidInput(f"sample count must be >= 1, got {self.s}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")
        if self.kind != "exact_example1" and len(self.sigmas) != self.partition.p:
            raise InvalidInput(
                f"sigmas must have one entry per sensor ({self.partition.p}), "
                f"got {len(self.sigmas)}"
            )
        if self.kind == "image" and not self.image_path:
            raise InvalidInput("image scenario requires image_path")


def _require_square_obs(part: SensorPartition, kind: str) -> None:
    if any(nj != part.m for nj in part.n):
        raise InvalidInput(f"{kind} scenario requires n_j = m for every sensor")


def generate(spec: ScenarioSpec) -> SampleEnsemble | SecondMomentModel:
    """Materialize a scenario.

    ``exact_example1`` returns the exact two-sensor benchmark model (with the
    spec's compression ranks); every other kind returns a seeded training
    ensemble. Source samples and mixing matrices have uniform entries in
    [0, 1); noise is standard normal scaled by sigma_j.
    """
    part = spec.partition
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "exact_example1":
        base = example1_model()
        if (part.m, part.n) != (base.partition.m, base.partition.n):
            raise InvalidInput(
                "exact_example1 requires m = 3 and n = (3, 3); "
                f"got m={part.m}, n={part.n}"
            )
        return SecondMomentModel(
            partition=part, e_xx=base.e_xx, e_xy=base.e_xy, e_yy=base.e_yy
        )
    if spec.kind == "additive_noise":
        _require_square_obs(part, spec.kind)
        x = rng.random((part.m, spec.s))
        y = np.vstack(
            [
                x + spec.sigmas[j] * rng.standard_normal((part.n[j], spec.s))
                for j in range(part.p)
            ]
        )
        return SampleEnsemble(x=x, y=y)
    if spec.kind == "pure_noise_obs":
        x = rng.random((part.m, spec.s))
        y = np.vstack(
            [rng.standard_normal((part.n[j], spec.s)) for j in range(part.p)]
        )
        return SampleEnsemble(x=x, y=y)
    if spec.kind == "linear_mixing":
        _require_square_obs(part, spec.kind)
        x = rng.random((part.m, spec.s))
        blocks = []
        for j in range(part.p):
            a_j = rng.random((part.m, part.m))
            noise = spec.sigmas[j] * rng.standard_normal((part.m, spec.s))
            blocks.append(a_j @ x + noise)
        return SampleEnsemble(x=x, y=np.vstack(blocks))
    # image
    return image_scenario(spec).ensemble


@dataclass(frozen=True)
class ImageScenarioData:
    """Full-resolution signals plus the even-column training ensemble."""

    x_full: np.ndarray
    y_full: np.ndarray
    ensemble: SampleEnsemble


def image_scenario(spec: ScenarioSpec) -> ImageScenarioData:
    """Image experiment: the source image X (scaled to [0, 1]) is observed as
    Y_j = A_j * X + sigma_j N_j with elementwise (Hadamard) mixing by a
    uniform A_j; training uses the even columns of X and Y_j."""
    if spec.kind != "image":
        raise InvalidInput(f"image_scenario needs kind='image', got {spec.kind!r}")
    part = spec.partition
    x_full = load_pgm(spec.image_path)
    if x_full.shape[0] != part.m:
        raise InvalidInput(
            f"image has {x_full.shape[0]} rows, partition expects m={part.m}"
        )
    if x_full.shape[1] < 2:
        raise InvalidInput("image must have at least 2 columns")
    _require_square_obs(part, spec.kind)
    rng = np.random.default_rng(spec.seed)
    y_blocks = []
    for j in range(part.p):
        a_j = rng.random(x_full.shape)
        noise = spec.sigmas[j] * rng.standard_normal(x_full.shape)
        y_blocks.append(a_j * x_full + noise)
    y_full = np.vstack(y_blocks)
    ens = SampleEnsemble(
        x=subsample_even_columns(x_full), y=subsample_even_columns(y_full)
    )
    return ImageScenarioData(x_full=x_full, y_full=y_full, ensemble=ens)


def subsample_even_columns(a: np.ndarray) -> np.ndarray:
    """Keep the even columns (2nd, 4th, ... in 1-based counting)."""
    if a.ndim != 2 or a.shape[1] < 2:
        raise InvalidInput("need a 2-d array with at least 2 columns")
    return a[:, 1::2].copy()


# ---------------------------------------------------------------------------
# PGM (portable graymap) I/O, P2 (ASCII) and P5 (binary)
# ---------------------------------------------------------------------------


def _pgm_tokens(data: bytes):
    """Header tokens, skipping whitespace and '#' comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i : i + 1]
        if c in b" \t\r\n":
            i += 1
            continue
        if c == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and data[i : i + 1] not in b" \t\r\n":
            i += 1
        yield data[start:i], i
    return


def load_pgm(path) -> np.ndarray:
    """Read a P2/P5 grayscale image; intensities are scaled to [0, 1]."""
    data = Path(path).read_bytes()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise ParseError("empty PGM file") from None
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"unsupported PGM magic {magic!r}")
    try:
        width_tok, _ = next(tokens)
        height_tok, _ = next(tokens)
        maxval_tok, end = next(tokens)
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except (StopIteration, ValueError):
        raise ParseError("malformed PGM header") from None
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ParseError(f"invalid PGM dimensions {width}x{height}, maxval {maxval}")
    if magic == b"P2":
        try:
            values = np.array(data[end:].split(), dtype=np.float64)
        except ValueError:
            raise ParseError("non-numeric P2 pixel data") from None
        if values.size != width * height:
            raise ParseError(
                f"expected {width * height} pixels, found {values.size}"
            )
        pixels = values.reshape(height, width)
    else:
        raster = data[end + 1 :]  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = width * height * dtype.itemsize
        if len(raster) < need:
            raise ParseError(
                f"truncated P5 raster: need {need} bytes, found {len(raster)}"
            )
        pixels = (
            np.frombuffer(raster[:need], dtype=dtype)
            .astype(np.float64)
            .reshape(height, width)
        )
    if pixels.max(initial=0) > maxval:
        raise ParseError("pixel value exceeds declared maxval")
    return pixels / maxval


def save_pgm(a: np.ndarray, path, maxval: int = 255) -> None:
    """Write a [0, 1]-scaled matrix as a binary (P5) graymap; values are
    clipped to [0, 1] and rounded."""
    if a.ndim != 2:
        raise InvalidInput("image must be a 2-d array")
    if not 0 < maxval < 65536:
        raise InvalidInput(f"maxval must be in [1, 65535], got {maxval}")
    q = np.rint(np.clip(a, 0.0, 1.0) * maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + q.astype(dtype).tobytes())
