"""Center-symmetric census features over a 9x7 window.

Every pixel is described by a 31-bit word: one bit per point-symmetric pixel
pair of the surrounding window, set when the leading pixel is >= its mirror.
Comparing only local intensity order makes the feature invariant to additive
brightness shifts, and a single corrupted pixel can flip at most one bit of
any affected descriptor.
"""

from __future__ import annotations

import numpy as np

WINDOW_HALF_X = 4
WINDOW_HALF_Y = 3
FEATURE_BITS = 31
FLAT_FEATURE = 0x7FFF_FFFF  # all 31 comparisons hold on a constant patch

# (dx, dy) of the leading pixel of each symmetric pair, most significant bit
# first; the mirror pixel sits at (-dx, -dy).  Columns 1..4 contribute a full
# 7-row sweep, the centre column only its strict lower half.
PAIR_OFFSETS: tuple[tuple[int, int], ...] = tuple(
    [(dx, dy) for dx in range(1, WINDOW_HALF_X + 1) for dy in range(-WINDOW_HALF_Y, WINDOW_HALF_Y + 1)]
    + [(0, dy) for dy in range(1, WINDOW_HALF_Y + 1)]
)


def _check_image(image: np.ndarray) -> None:
    if image.ndim != 2 or image.size == 0:
        raise ValueError(f"expected a non-empty 2-d image, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {image.dtype}")


def census_rows(image: np.ndarray, out: np.ndarray, y0: int, y1: int) -> None:
    """Fill the ``(y1 - y0, W)`` slab ``out`` with the census features of
    rows [y0, y1) of ``image``: ``out[k]`` is the words of row ``y0 + k``.

    Neighbour reads outside the image clamp to the nearest edge pixel.
    Row ranges are independent, so the slabs of any partition of [0, H),
    stacked, are identical to a single full-range call.
    """
    height, width = image.shape
    hy, hx = WINDOW_HALF_Y, WINDOW_HALF_X
    # pad only the rows [y0 - hy, y1 + hy) that the window reads
    top, bottom = max(0, y0 - hy), min(height, y1 + hy)
    padded = np.pad(image[top:bottom], ((top - y0 + hy, y1 + hy - bottom), (hx, hx)), mode="edge")
    rows = y1 - y0
    out.fill(0)
    for dx, dy in PAIR_OFFSETS:
        u = padded[hy + dy : hy + dy + rows, hx + dx : hx + dx + width]
        v = padded[hy - dy : hy - dy + rows, hx - dx : hx - dx + width]
        out <<= 1
        out |= u >= v


def census_transform(image: np.ndarray) -> np.ndarray:
    """Census-transform an 8-bit image into per-pixel 31-bit feature words."""
    image = np.asarray(image)
    _check_image(image)
    out = np.empty(image.shape, dtype=np.uint32)
    census_rows(image, out, 0, image.shape[0])
    return out
