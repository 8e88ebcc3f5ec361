"""Disparity accuracy metrics and disparity-to-depth conversion."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .params import ConfigError, SgmParams, as_array, as_int

DEFAULT_THRESHOLD = 3


@dataclass(frozen=True)
class EvalResult:
    """Bad-pixel statistics: a pixel is bad when |est - gt| > threshold."""

    total: int
    bad: int
    accuracy: float
    threshold: int


@dataclass(frozen=True)
class CameraGeometry:
    """Focal length in pixels and stereo baseline in meters."""

    focal: float
    baseline: float

    def __post_init__(self) -> None:
        if self.focal <= 0 or self.baseline <= 0:
            raise ValueError(f"focal and baseline must be positive, got {self.focal}, {self.baseline}")


def bad_pixel_rate(
    est: np.ndarray,
    gt: np.ndarray,
    mask: np.ndarray | None = None,
    threshold: int = DEFAULT_THRESHOLD,
) -> EvalResult:
    """Fraction of evaluated pixels whose disparity error exceeds threshold.

    ``est`` and ``gt`` are non-empty 2-d integer maps of one shape and
    ``threshold`` an integer >= 0, else ConfigError.  ``mask``, of
    ``est``'s shape, selects the pixels to evaluate (nonzero means
    evaluate, e.g. a non-occluded mask); without it every pixel counts.
    """
    est = as_array("est", est, 2, np.integer)
    gt = as_array("gt", gt, 2, np.integer, like=("est", est))
    threshold = as_int("threshold", threshold, 0)
    diff = np.abs(est.astype(np.int64) - gt.astype(np.int64))
    if mask is not None:
        diff = diff[as_array("mask", mask, 2, np.generic, like=("est", est)) != 0]
    total = int(diff.size)
    if total == 0:
        raise ValueError("no pixels selected for evaluation")
    bad = int(np.count_nonzero(diff > threshold))
    return EvalResult(total=total, bad=bad, accuracy=1.0 - bad / total, threshold=threshold)


def disparity_to_depth(disparity: float, geometry: CameraGeometry) -> float:
    """Triangulated depth in meters: focal * baseline / disparity, which
    must be a positive number (no array or bool), else ConfigError."""
    if isinstance(disparity, bool) or not isinstance(disparity, numbers.Real) or not disparity > 0:
        raise ConfigError(f"disparity must be a positive number to triangulate, got {disparity!r}")
    return geometry.focal * geometry.baseline / disparity


def metrics_csv(result: EvalResult, params: SgmParams, width: int, height: int) -> str:
    """One CSV line: width,height,D,paths,P1,P2,threshold,total,bad,accuracy."""
    return (
        f"{width},{height},{params.disparities},{params.paths},{params.p1},{params.p2},"
        f"{result.threshold},{result.total},{result.bad},{result.accuracy:.6f}"
    )
