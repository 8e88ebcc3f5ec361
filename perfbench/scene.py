"""Banded random-texture stereo scenes with known disparity.

A scene's rows fall into ``BANDS`` horizontal bands of (nearly) equal
height.  Inside a band every left pixel ``(x, y)`` matches the right pixel
``(x - shift, y)``, with one shift per band drawn uniformly from
``[1, D - 1]``.  Both views crop a common random texture, so the true
disparity is known exactly without the program's own ``synthetic`` module;
the program only ever sees the two images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BANDS = 6
# Rows next to a band edge see two different shifts inside the 9x7 census
# window and the 3x3 median; columns near the left and right edges either
# have no true match or a clamped census window.  Both are left out of the
# accuracy check.
EDGE_ROWS = 5
CENSUS_MARGIN = 4
# Interior pixels with |error| > 1 tolerated per frame.  Measured misses
# stayed at or below 0.006% of the interior on seeds 0-5 of every workload
# configuration; a broken stage misses most pixels.
MAX_MISS_SHARE = 0.005


@dataclass(frozen=True)
class Scene:
    left: np.ndarray
    right: np.ndarray
    truth: np.ndarray  # int32 true disparity per pixel
    interior: np.ndarray  # bool mask of pixels the accuracy check covers


def band_bounds(height: int) -> list[tuple[int, int]]:
    return [(height * i // BANDS, height * (i + 1) // BANDS) for i in range(BANDS)]


def make_scene(width: int, height: int, disparities: int, seed: int, index: int) -> Scene:
    """Frame ``index`` of the cycle drawn from ``seed``; same arguments, same
    arrays."""
    rng = np.random.default_rng([seed, index])
    shifts = rng.integers(1, max(disparities, 2), size=BANDS)
    texture = rng.integers(0, 256, size=(height, width + disparities), dtype=np.uint8)
    left = np.empty((height, width), dtype=np.uint8)
    right = np.empty((height, width), dtype=np.uint8)
    truth = np.empty((height, width), dtype=np.int32)
    interior = np.zeros((height, width), dtype=bool)
    for (y0, y1), shift in zip(band_bounds(height), shifts):
        shift = int(shift)
        left[y0:y1] = texture[y0:y1, :width]
        right[y0:y1] = texture[y0:y1, shift : shift + width]
        truth[y0:y1] = shift
        interior[y0 + EDGE_ROWS : y1 - EDGE_ROWS, shift + CENSUS_MARGIN : width - CENSUS_MARGIN] = True
    return Scene(left=left, right=right, truth=truth, interior=interior)
