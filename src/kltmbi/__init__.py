"""Compression, de-noising and reconstruction of distributed random signals.

A library for designing wireless-sensor-network style pipelines in which p
sensors each compress a noisy observation of a common source signal and a
fusion center reconstructs the source. Sensor encoders and the decoder are
jointly optimized (in the mean-square sense) by a greedy maximum-block-
improvement iteration over rank-constrained per-sensor compressors, built
entirely from pseudo-inverses so degenerate covariances are handled.
"""

__version__ = "0.1.0"

from .covariance import (
    SampleEnsemble,
    SecondMomentModel,
    SensorPartition,
    estimate_moments,
    example1_model,
    joint_model_from_factor,
    load_ensemble_csv,
)
from .errors import InvalidInput, NotPsd, ParseError
from .linalg import (
    DegenerateTruncationWarning,
    SvdFactors,
    pinv,
    psd_sqrt,
    svd,
    truncated,
)
from .scenarios import (
    ImageScenarioData,
    ScenarioSpec,
    generate,
    image_scenario,
    load_pgm,
    save_pgm,
    subsample_even_columns,
)
from .solver import (
    CompressorBank,
    MbiConfig,
    MbiTrace,
    ReducedProblem,
    init_bank,
    klt_matrix,
    klt_single,
    mbi_solve,
    mbi_step,
    objective,
    rank_constrained_lsq,
    reduce_problem,
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
    "ReducedProblem",
    "SampleEnsemble",
    "ScenarioSpec",
    "SecondMomentModel",
    "SensorPartition",
    "SvdFactors",
    "analytic_mse",
    "compress",
    "empirical_mse",
    "estimate_moments",
    "example1_model",
    "factorize_wsn",
    "generate",
    "image_scenario",
    "init_bank",
    "joint_model_from_factor",
    "klt_matrix",
    "klt_single",
    "load_ensemble_csv",
    "load_pgm",
    "load_wsn_json",
    "mbi_solve",
    "mbi_step",
    "objective",
    "pinv",
    "psd_sqrt",
    "rank_constrained_lsq",
    "reconstruct",
    "reduce_problem",
    "save_pgm",
    "save_wsn_json",
    "subsample_even_columns",
    "svd",
    "truncated",
]
