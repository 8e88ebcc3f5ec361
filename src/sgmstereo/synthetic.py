"""Synthetic stereo pairs with known ground-truth disparity."""

from __future__ import annotations

import numpy as np

from .census import WINDOW_HALF_X
from .params import as_int


def shifted_pair(width: int, height: int, shift: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random-texture pair where every left pixel sits ``shift`` columns to
    the right of its match: left[y, x] corresponds to right[y, x - shift].

    Both views crop a common texture, so the true disparity is uniformly
    ``shift`` with no occlusions.
    """
    shift = as_int("shift", shift, 0)
    rng = np.random.default_rng(seed)
    texture = rng.integers(0, 256, size=(height, width + shift), dtype=np.uint8)
    left = texture[:, :width].copy()
    right = texture[:, shift:].copy()
    return left, right


def shift_recovery_mask(width: int, height: int, shift: int) -> np.ndarray:
    """Interior mask for shift-recovery checks: drops the ``shift`` columns
    at the left border (no true match inside the image) and a margin of the
    census window's half width on every side."""
    margin = WINDOW_HALF_X
    mask = np.zeros((height, width), dtype=np.uint8)
    mask[margin : height - margin, max(shift, margin) : width - margin] = 1
    return mask
