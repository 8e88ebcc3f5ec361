"""Shared configuration types for the disparity pipeline."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

Direction = tuple[int, int]

# Canonical direction order; the 2-, 4- and 8-direction sets are prefixes.
_ALL_DIRECTIONS: tuple[Direction, ...] = (
    (1, 0),
    (0, 1),
    (-1, 0),
    (0, -1),
    (1, 1),
    (-1, 1),
    (1, -1),
    (-1, -1),
)

PATH_SETS: dict[int, tuple[Direction, ...]] = {
    2: _ALL_DIRECTIONS[:2],
    4: _ALL_DIRECTIONS[:4],
    8: _ALL_DIRECTIONS,
}

# disparity indices are bytes in the pipeline's maps
MAX_DISPARITIES = 256

# Hamming costs peak at 31, so p2 <= 224 keeps every aggregated cost <= 255
# and the volumes can stay single-byte.
MAX_COST = 31
MAX_P2 = 255 - MAX_COST

# A packed uint16 cell holds a cost C in its high COST_BITS bits and, below
# them, a sum S over up to 8 smoothed costs, each at most MAX_COST + MAX_P2:
# S <= 8 * 255 = 2040 < 2 ** SUM_BITS, so adding to S never carries into C.
COST_BITS = MAX_COST.bit_length()
SUM_BITS = 16 - COST_BITS


def sum_volumes(directions: tuple[Direction, ...], p2: int) -> str:
    """How the pipeline sums its smoothed directions, each layout two bytes
    a cell or fewer, counting the cost cube:

    * ``"byte"``: one byte volume sums every direction's smoothed costs.  A
      smoothed cost is at most MAX_COST + p2, so this holds when
      paths <= 255 // (MAX_COST + p2), as at 2 paths and p2 <= 96.
    * ``"fold"``: a smoothed cost L is its matching cost C plus a residual r
      in [0, p2], so the sum is S = paths * C + sum(r).  The pipeline's
      walks visit every cell paths times, once per direction.  When one
      byte holds the residuals of every visit but the last
      (paths - 1 <= 255 // p2) and one residual plus paths * C fits a byte
      (paths * MAX_COST + p2 <= 255), one byte volume sums those residuals,
      each cell's last visit overwrites its byte in the cost cube with
      r + paths * C, and S is the volume plus the cube.
    * ``"packed"``: otherwise the cost cube is uint16, each cell packing C
      above S (see COST_BITS), and every direction adds its smoothed costs
      into the sum bits.
    """
    paths = len(directions)
    if paths <= 255 // (MAX_COST + p2):
        return "byte"
    if paths - 1 <= 255 // p2 and paths * MAX_COST + p2 <= 255:
        return "fold"
    return "packed"


class ConfigError(ValueError):
    """Invalid pipeline configuration or inconsistent inputs."""


def as_int(name: str, value: object, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an ``int``: Python and numpy integers pass, bools and
    everything else raise ConfigError naming ``name``, as does an integer
    below ``lo`` or above ``hi`` where those are given."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"<= {hi}" if lo is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be an integer {bounds}, got {value}")
    return value


def as_array(name: str, value: object, ndim: int, dtype: type,
             like: tuple[str, np.ndarray] | None = None) -> np.ndarray:
    """``np.asarray(value)``, which must be non-empty, ``ndim``-d and of a
    dtype under ``dtype`` by ``np.issubdtype`` (``np.integer`` takes every
    integer dtype), else ConfigError naming ``name``; a ragged sequence
    fails as the object array it makes.  With ``like``, an
    ``(other_name, other)`` pair, the array must then have ``other``'s
    shape, else a "dimension mismatch" ConfigError naming both."""
    try:
        a = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape"
        a = np.asarray(value, dtype=object)
    if a.size == 0 or a.ndim != ndim or not np.issubdtype(a.dtype, dtype):
        raise ConfigError(f"{name} must be a non-empty {ndim}-d {dtype.__name__} array, "
                          f"got shape {a.shape}, dtype {a.dtype}")
    if like is not None and a.shape != like[1].shape:
        raise ConfigError(f"dimension mismatch: {name} shape {a.shape} vs {like[0]} shape {like[1].shape}")
    return a


@dataclass(frozen=True)
class SgmParams:
    """Disparity search range, smoothness penalties and path-direction set.

    ``p1`` penalises one-level disparity changes between neighbouring pixels
    along a path, ``p2`` penalises larger jumps.  ``paths`` selects how many
    scan directions contribute to the smoothing (2: left-to-right and
    top-to-bottom; 4: adds the reverse sweeps; 8: adds the four diagonals).
    """

    disparities: int = 128
    p1: int = 7
    p2: int = 84
    paths: int = 4

    def __post_init__(self) -> None:
        for name, *bounds in (("disparities", 1, MAX_DISPARITIES), ("p1",), ("p2",), ("paths",)):
            object.__setattr__(self, name, as_int(name, getattr(self, name), *bounds))
        if not 0 < self.p1 < self.p2 <= MAX_P2:
            raise ConfigError(
                f"penalties must satisfy 0 < p1 < p2 <= {MAX_P2}, got p1={self.p1}, p2={self.p2}"
            )
        if self.paths not in PATH_SETS:
            raise ConfigError(f"paths must be one of {sorted(PATH_SETS)}, got {self.paths}")

    @property
    def directions(self) -> tuple[Direction, ...]:
        return PATH_SETS[self.paths]
