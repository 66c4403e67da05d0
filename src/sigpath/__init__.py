"""Truncated signatures of piecewise linear paths and linear-functional
approximation of path functionals, random ODEs, and SDE targets."""

from .tensor import (
    all_words,
    apply_shuffle_check,
    basis_element,
    exp,
    level_blocks,
    log,
    mul,
    norm,
    row_level,
    shuffle,
    total_entries,
    unit,
    word_index,
)
from .paths import (
    PathFormatError,
    PiecewiseLinearPath,
    dyadic_times,
    holder_norm,
    insert_breakpoint,
    read_path_csv,
    time_extend,
    weight,
    write_path_csv,
)
from .signature import (
    LinearFunctional,
    levy_area_functional,
    reverse_check,
    segment_signature,
    signature_stream,
)
from .stochastic import sample_brownian_batch, sde_exact_gbm
from .regress import FeatureMatrix, FitReport, fit, lp_error
from .experiments import ConfigError, ExperimentConfig, run_config

__version__ = "0.1.0"
