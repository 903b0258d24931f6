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
    _dimension,
    _real,
    example1_model,
)
from .errors import InvalidInput, ParseError

KINDS = ("exact_example1", "additive_noise", "pure_noise_obs", "linear_mixing", "image")

# Kinds whose every sensor observes a signal of the source's shape (n_j = m).
_SQUARE_KINDS = ("additive_noise", "linear_mixing", "image")

# Largest scenario accepted (2 GiB), in bytes of float64 data: the samples x
# and y, (m + N) * s numbers for the sampled kinds, plus the joint second
# moments E_xx, E_xy and E_yy, at most (m + N)^2 numbers. An image scenario's
# sample count is that of its image file, not s.
MAX_SCENARIO_BYTES = 2 * 1024**3


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation study: a scenario family, its partition, sample count,
    per-sensor noise scales, PRNG seed, and (for image runs) a source image.

    Raises :class:`InvalidInput` when the partition does not fit the kind
    (n_j = m for additive_noise, linear_mixing and image; m = 3 and
    n = (3, 3) for exact_example1) or when the scenario needs more than
    :data:`MAX_SCENARIO_BYTES`, before anything is allocated.
    """

    kind: str
    partition: SensorPartition
    s: int = 1
    sigmas: tuple[float, ...] = ()
    seed: int = 0
    image_path: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "sigmas",
            tuple(_real(v, f"sigmas[{j}]") for j, v in enumerate(self.sigmas)),
        )
        object.__setattr__(self, "s", _dimension(self.s, "s"))
        object.__setattr__(self, "seed", _dimension(self.seed, "seed"))
        if self.kind not in KINDS:
            raise InvalidInput(f"unknown scenario kind {self.kind!r}")
        part = self.partition
        if self.kind == "exact_example1" and (part.m, part.n) != (3, (3, 3)):
            raise InvalidInput(
                "exact_example1 requires m = 3 and n = (3, 3); "
                f"got m={part.m}, n={part.n}"
            )
        if self.kind in _SQUARE_KINDS and any(nj != part.m for nj in part.n):
            raise InvalidInput(
                f"{self.kind} scenario requires n_j = m for every sensor"
            )
        if self.s < 1:
            raise InvalidInput(f"sample count must be >= 1, got {self.s}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")
        if self.kind != "exact_example1" and len(self.sigmas) != part.p:
            raise InvalidInput(
                f"sigmas must have one entry per sensor ({part.p}), "
                f"got {len(self.sigmas)}"
            )
        if not all(np.isfinite(self.sigmas)):
            raise InvalidInput(f"sigmas must be finite, got {self.sigmas}")
        if self.kind == "image" and not self.image_path:
            raise InvalidInput("image scenario requires image_path")
        dim = part.m + part.n_total
        samples = 0 if self.kind in ("exact_example1", "image") else self.s
        need = 8 * dim * (samples + dim)
        if need > MAX_SCENARIO_BYTES:
            raise InvalidInput(
                f"scenario needs {need} bytes, more than the "
                f"{MAX_SCENARIO_BYTES}-byte limit"
            )


def _fill_noisy(rng, out: np.ndarray, sigma: float, signal: np.ndarray) -> None:
    """out = signal + sigma * N(0, 1), with the noise drawn straight into
    ``out``. Callers draw what ``signal`` needs (A_j) from ``rng`` first, so
    the stream order is A_j, then its noise, as the references record.
    A noise scale so large that samples overflow leaves infinities, which
    the model built from them rejects."""
    rng.standard_normal(out=out)
    with np.errstate(over="ignore"):
        out *= sigma
    out += signal


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
        return SecondMomentModel(
            partition=part, e_xx=base.e_xx, e_xy=base.e_xy, e_yy=base.e_yy
        )
    if spec.kind == "pure_noise_obs":
        x = rng.random((part.m, spec.s))
        # one draw fills the stacked blocks in the order per-block draws would
        return SampleEnsemble(x=x, y=rng.standard_normal((part.n_total, spec.s)))
    if spec.kind == "image":
        return image_scenario(spec).ensemble
    # additive_noise and linear_mixing
    x = rng.random((part.m, spec.s))
    y = np.empty((part.n_total, spec.s))
    for j in range(part.p):
        signal = x
        if spec.kind == "linear_mixing":
            signal = rng.random((part.m, part.m)) @ x
        _fill_noisy(rng, y[part.y_slice(j)], spec.sigmas[j], signal)
    return SampleEnsemble(x=x, y=y)


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
    rng = np.random.default_rng(spec.seed)
    y_full = np.empty((part.n_total, x_full.shape[1]))
    for j in range(part.p):
        a_j = rng.random(x_full.shape)
        a_j *= x_full
        _fill_noisy(rng, y_full[part.y_slice(j)], spec.sigmas[j], a_j)
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


def save_pgm(a: np.ndarray, path) -> None:
    """Write a [0, 1]-scaled matrix as an 8-bit binary (P5) graymap; values
    are clipped to [0, 1] and rounded."""
    if a.ndim != 2:
        raise InvalidInput("image must be a 2-d array")
    q = np.rint(np.clip(a, 0.0, 1.0) * 255)
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + q.astype(np.uint8).tobytes())
