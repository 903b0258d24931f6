"""Seeded scenario generators for the simulation studies and PGM image I/O
for the image-compression experiment.

Every generator is a pure function of its spec (including the seed); the PRNG
is numpy's PCG64, explicitly seeded, so outputs are reproducible across
platforms.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .covariance import (
    EXAMPLE1_PARTITION,
    SampleEnsemble,
    SensorPartition,
    _dimension,
    _file_name,
    _instance,
    _partition,
    _real,
    _sequence,
    atomic_write,
)
from .errors import InvalidInput, ParseError
from .linalg import _real_array

# The fields each scenario kind reads besides kind, m, n, r and seed. A
# spec, or a config, that gives a kind a field it does not read is rejected.
KIND_FIELDS = {
    "exact_example1": (),
    "additive_noise": ("s", "sigmas"),
    "linear_mixing": ("s", "sigmas"),
    "pure_noise_obs": ("s",),
    "image": ("sigmas", "image_path"),
}

# Kinds whose every sensor observes a signal of the source's shape (n_j = m).
_SQUARE_KINDS = ("additive_noise", "image")

# Largest scenario accepted (2 GiB), in bytes of float64 data: the samples x
# and y, (m + N) * s numbers, plus the joint second moments E_xx, E_xy and
# E_yy, at most (m + N)^2 numbers. An image scenario's samples are its
# image's columns, counted when the image is loaded.
MAX_SCENARIO_BYTES = 2 * 1024**3


def _check_size(part: SensorPartition, samples: int) -> None:
    """Raise :class:`InvalidInput` if ``samples`` samples of ``part`` and
    their second moments exceed :data:`MAX_SCENARIO_BYTES`."""
    dim = part.m + part.n_total
    need = 8 * dim * (samples + dim)
    if need > MAX_SCENARIO_BYTES:
        raise InvalidInput(
            f"scenario needs {need} bytes, more than the "
            f"{MAX_SCENARIO_BYTES}-byte limit"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation study: a scenario family, its partition, PRNG seed and
    the fields :data:`KIND_FIELDS` says the kind reads: the sample count
    ``s`` (1 when left out), per-sensor noise scales ``sigmas`` (a list or
    tuple, one per sensor) and, for image runs, the source image's path.

    Raises :class:`InvalidInput` when a field is given to a kind that does
    not read it, when the image's path is no file name (the README's path
    rule), when the partition does not fit the kind (n_j = m for
    additive_noise and image; the m and n of
    ``EXAMPLE1_PARTITION`` for exact_example1) or when the scenario needs
    more than :data:`MAX_SCENARIO_BYTES`, before anything is allocated. An
    image scenario's image is checked when it is loaded.
    """

    kind: str
    partition: SensorPartition
    s: int | None = None
    sigmas: tuple[float, ...] | None = None
    seed: int = 0
    image_path: str | os.PathLike | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KIND_FIELDS:
            raise InvalidInput(f"unknown scenario kind {self.kind!r}")
        reads = KIND_FIELDS[self.kind]
        for name in ("s", "sigmas", "image_path"):
            if name not in reads and getattr(self, name) is not None:
                raise InvalidInput(f"kind {self.kind!r} does not read {name}")
        part = _partition(self.partition)
        if "s" in reads:
            s = _dimension(1 if self.s is None else self.s, "s")
            object.__setattr__(self, "s", s)
        if "sigmas" in reads:
            given = () if self.sigmas is None else _sequence(self.sigmas, "sigmas")
            sigmas = tuple(_real(v, f"sigmas[{j}]") for j, v in enumerate(given))
            object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "seed", _dimension(self.seed, "seed"))
        ex1 = EXAMPLE1_PARTITION
        if self.kind == "exact_example1" and (part.m, part.n) != (ex1.m, ex1.n):
            raise InvalidInput(
                f"exact_example1 requires m = {ex1.m} and n = {ex1.n}; "
                f"got m={part.m}, n={part.n}"
            )
        if self.kind in _SQUARE_KINDS and any(nj != part.m for nj in part.n):
            raise InvalidInput(
                f"{self.kind} scenario requires n_j = m for every sensor"
            )
        if self.s is not None and self.s < 1:
            raise InvalidInput(f"sample count must be >= 1, got {self.s}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")
        if self.sigmas is not None and len(self.sigmas) != part.p:
            raise InvalidInput(
                f"sigmas must have one entry per sensor ({part.p}), "
                f"got {len(self.sigmas)}"
            )
        if self.sigmas is not None and not all(np.isfinite(self.sigmas)):
            raise InvalidInput(f"sigmas must be finite, got {self.sigmas}")
        if "image_path" in reads:
            _file_name(self.image_path, "image_path")
        # an exact scenario holds no samples; an image's are its columns
        _check_size(part, self.s or 0)


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


def generate(spec: ScenarioSpec) -> SampleEnsemble:
    """Seeded training samples of ``additive_noise`` (y_j = x + sigma_j N_j),
    ``linear_mixing`` (y_j = A_j x + sigma_j N_j, A_j of n_j x m) or
    ``pure_noise_obs`` (y is unit normal noise independent of x). x and A_j
    are uniform on [0, 1).
    Other kinds raise :class:`InvalidInput`: ``exact_example1`` has no
    samples (see ``example1_model``) and ``image`` has ``image_scenario``."""
    if "s" not in KIND_FIELDS[_instance(spec, ScenarioSpec, "spec").kind]:
        raise InvalidInput(f"generate needs a sampled kind, got {spec.kind!r}")
    part = spec.partition
    rng = np.random.default_rng(spec.seed)
    x = rng.random((part.m, spec.s))
    if spec.kind == "pure_noise_obs":
        # one draw fills the stacked blocks in the order per-block draws would
        return SampleEnsemble(x=x, y=rng.standard_normal((part.n_total, spec.s)))
    y = np.empty((part.n_total, spec.s))
    for j in range(part.p):
        signal = x
        if spec.kind == "linear_mixing":
            signal = rng.random((part.n[j], part.m)) @ x
        _fill_noisy(rng, y[part.y_slice(j)], spec.sigmas[j], signal)
    return SampleEnsemble(x=x, y=y)


@dataclass(frozen=True, eq=False)
class ImageScenarioData:
    """Full-resolution signals plus the even-column training ensemble.
    Compared by identity: ``==`` is ``is``, and an instance hashes."""

    x_full: np.ndarray
    y_full: np.ndarray
    ensemble: SampleEnsemble


def image_scenario(spec: ScenarioSpec) -> ImageScenarioData:
    """Image experiment: the source image X (scaled to [0, 1]) is observed as
    Y_j = A_j * X + sigma_j N_j with elementwise (Hadamard) mixing by a
    uniform A_j; training uses the even columns of X and Y_j."""
    if _instance(spec, ScenarioSpec, "spec").kind != "image":
        raise InvalidInput(f"image_scenario needs kind='image', got {spec.kind!r}")
    part = spec.partition
    x_full = _load_image(spec)
    rng = np.random.default_rng(spec.seed)
    y_full = np.empty((part.n_total, x_full.shape[1]))
    for j in range(part.p):
        a_j = rng.random(x_full.shape)
        a_j *= x_full
        _fill_noisy(rng, y_full[part.y_slice(j)], spec.sigmas[j], a_j)
    # the even columns (2nd, 4th, ... in 1-based counting) train
    ens = SampleEnsemble(x=x_full[:, 1::2].copy(), y=y_full[:, 1::2].copy())
    return ImageScenarioData(x_full=x_full, y_full=y_full, ensemble=ens)


def _load_image(spec: ScenarioSpec) -> np.ndarray:
    """An image scenario's source image, with m rows, at least 2 columns and
    no more than :data:`MAX_SCENARIO_BYTES` with its columns as samples.
    Raises :class:`ParseError` or :class:`InvalidInput` otherwise."""
    part = spec.partition
    try:
        x = load_pgm(spec.image_path)
    except FileNotFoundError:
        raise ParseError(f"image file not found: {spec.image_path}") from None
    except OSError as exc:
        raise ParseError(f"image file cannot be read: {exc}") from None
    _real_array(x, "image", (part.m, None))
    if x.shape[1] < 2:
        raise InvalidInput("image must have at least 2 columns")
    _check_size(part, x.shape[1])
    return x


# ---------------------------------------------------------------------------
# PGM (portable graymap) I/O, P2 (ASCII) and P5 (binary)
# ---------------------------------------------------------------------------


# The header load_pgm states. A comment takes its line end with it, so a
# header matches one way only and a failed match backtracks in linear time.
_PGM_HEADER = re.compile(rb"P[25]" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)" * 3 + rb"\s")


def load_pgm(path) -> np.ndarray:
    """Read a P2 (plain) or P5 (raw) grayscale image, its intensities scaled
    to [0, 1]. The magic number ``P2`` or ``P5`` is the first two bytes.
    Width, height and maxval follow as ASCII decimals, each after whitespace
    in which ``#`` starts a comment that runs to the end of the line, and
    one whitespace byte ends the header. P2 samples are ASCII digit runs
    apart by whitespace; P5 samples are bytes, or big-endian byte pairs when
    maxval > 255. A file that breaks this, has no pixel, a maxval outside
    [1, 65535] or a sample above maxval raises :class:`ParseError`, and a
    ``path`` that breaks the README's path rule :class:`InvalidInput`."""
    with open(_file_name(path, "path"), "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"unsupported PGM magic number {magic!r}")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ParseError("malformed PGM header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ParseError(f"invalid PGM dimensions {width}x{height}, maxval {maxval}")
    raster = data[header.end() :]
    if magic == b"P2":
        samples = raster.split()
        if not all(map(bytes.isdigit, samples)):
            raise ParseError("P2 sample that is not an ASCII decimal")
        if len(samples) != width * height:
            raise ParseError(f"expected {width * height} pixels, found {len(samples)}")
        # a digit run beyond the float range reads as inf, above maxval
        pixels = np.array(samples, dtype=np.float64)
    else:
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = width * height * dtype.itemsize
        if len(raster) < need:
            raise ParseError(
                f"truncated P5 raster: need {need} bytes, found {len(raster)}"
            )
        pixels = np.frombuffer(raster[:need], dtype=dtype).astype(np.float64)
    if pixels.max() > maxval:
        raise ParseError(f"pixel value outside [0, {maxval}]")
    return pixels.reshape(height, width) / maxval


def save_pgm(a: np.ndarray, path) -> None:
    """Write a [0, 1]-scaled matrix as an 8-bit binary (P5) graymap; values
    are clipped to [0, 1] and rounded. ``a`` follows the README's array
    rule, finite norm included, and is not empty, or nothing is written.
    ``path`` is written through any link by :func:`~kltmbi.covariance.atomic_write`."""
    _real_array(a, "image", finite=True)
    if a.size == 0:
        raise InvalidInput(f"image is empty, shape {a.shape}")
    q = np.rint(np.clip(a, 0.0, 1.0) * 255)
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii")
    atomic_write(path, header + q.astype(np.uint8).tobytes())
