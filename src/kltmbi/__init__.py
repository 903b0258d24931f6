"""Compression, de-noising and reconstruction of distributed random signals.

A library for designing wireless-sensor-network style pipelines in which p
sensors each compress a noisy observation of a common source signal and a
fusion center reconstructs the source. Sensor encoders and the decoder are
jointly optimized (in the mean-square sense) by a greedy maximum-block-
improvement iteration over rank-constrained per-sensor compressors, built
entirely from pseudo-inverses so degenerate covariances are handled.

The names exported here are the pipeline's, listed by stage in the README's
Public API section; the linear algebra it is built from stays in
:mod:`kltmbi.linalg` and :mod:`kltmbi.solver`.
"""

__version__ = "0.1.0"

from .covariance import (
    SampleEnsemble,
    SecondMomentModel,
    SensorPartition,
    estimate_moments,
    example1_model,
)
from .errors import InvalidInput, NotPsd, ParseError
from .linalg import DegenerateTruncationWarning
from .scenarios import (
    ImageScenarioData,
    ScenarioSpec,
    generate,
    image_scenario,
    load_pgm,
    save_pgm,
)
from .solver import (
    CompressorBank,
    MbiConfig,
    MbiTrace,
    init_bank,
    mbi_solve,
)
from .wsn import (
    FactorizedWsn,
    analytic_mse,
    compress,
    empirical_mse,
    factorize_wsn,
    load_wsn_json,
    reconstruct,
    save_wsn_json,
)

__all__ = [
    "__version__",
    "CompressorBank",
    "DegenerateTruncationWarning",
    "FactorizedWsn",
    "ImageScenarioData",
    "InvalidInput",
    "MbiConfig",
    "MbiTrace",
    "NotPsd",
    "ParseError",
    "SampleEnsemble",
    "ScenarioSpec",
    "SecondMomentModel",
    "SensorPartition",
    "analytic_mse",
    "compress",
    "empirical_mse",
    "estimate_moments",
    "example1_model",
    "factorize_wsn",
    "generate",
    "image_scenario",
    "init_bank",
    "load_pgm",
    "load_wsn_json",
    "mbi_solve",
    "reconstruct",
    "save_pgm",
    "save_wsn_json",
]
