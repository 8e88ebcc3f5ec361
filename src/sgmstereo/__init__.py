"""Stereo disparity estimation with census features and semi-global
cost smoothing, plus a scalar reference lane for differential testing."""

from .aggregation import aggregate_all, aggregate_path
from .census import FLAT_FEATURE, PAIR_OFFSETS, census_transform
from .cost_volume import dump_cost_volume, load_cost_volume, matching_cost
from .disparity import median_filter_3x3, select_disparity
from .evaluation import CameraGeometry, EvalResult, bad_pixel_rate, disparity_to_depth, metrics_csv
from .image_io import (
    PgmError,
    load_disparity,
    load_pgm,
    read_disparity,
    read_pgm,
    save_disparity,
    save_pgm,
    write_disparity,
    write_pgm,
)
from .params import PATH_SETS, ConfigError, SgmParams
from .pipeline import (
    BenchReport,
    PipelineConfig,
    PipelineResult,
    compute_disparity,
    run_pipeline,
)
from .synthetic import shift_recovery_mask, shifted_pair

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "CameraGeometry",
    "ConfigError",
    "EvalResult",
    "FLAT_FEATURE",
    "PAIR_OFFSETS",
    "PATH_SETS",
    "PgmError",
    "PipelineConfig",
    "PipelineResult",
    "SgmParams",
    "aggregate_all",
    "aggregate_path",
    "bad_pixel_rate",
    "census_transform",
    "compute_disparity",
    "disparity_to_depth",
    "dump_cost_volume",
    "load_cost_volume",
    "load_disparity",
    "load_pgm",
    "matching_cost",
    "median_filter_3x3",
    "metrics_csv",
    "read_disparity",
    "read_pgm",
    "run_pipeline",
    "save_disparity",
    "save_pgm",
    "select_disparity",
    "shift_recovery_mask",
    "shifted_pair",
    "write_disparity",
    "write_pgm",
]
