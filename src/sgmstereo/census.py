"""Center-symmetric census features over a 9x7 window.

Every pixel is described by a 31-bit word: one bit per point-symmetric pixel
pair of the surrounding window, set when the leading pixel is >= its mirror.
Comparing only local intensity order makes the feature invariant to additive
brightness shifts, and a single corrupted pixel can flip at most one bit of
any affected descriptor.
"""

from __future__ import annotations

import sys

import numpy as np

from .params import as_array

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


def census_rows(image: np.ndarray, out: np.ndarray, y0: int, y1: int) -> None:
    """Fill the ``(y1 - y0, W)`` slab ``out`` with the census features of
    rows [y0, y1) of ``image``: ``out[k]`` is the words of row ``y0 + k``.
    ``out`` is uint32 with contiguous rows.

    Neighbour reads outside the image clamp to the nearest edge pixel.
    Row ranges are independent, so the slabs of any partition of [0, H),
    stacked, are identical to a single full-range call.

    The rows the window reads, edge-padded, lie in one flat run, so a pair's
    two pixels are that run shifted by +-(dy * padded width + dx), and each
    compare, shift and or is one byte loop over the whole slab.  The bits
    build up in four byte planes, one per byte of the word, which are then
    written into ``out``'s bytes.  The planes hold the pad columns too, and
    drop them in that last write; a margin of ``hx`` bytes at each end of
    the run keeps the shifted reads in bounds, and only pad columns read it.
    """
    height, width = image.shape
    hy, hx = WINDOW_HALF_Y, WINDOW_HALF_X
    rows, stride = y1 - y0, width + 2 * hx
    # edge-pad only the rows [y0 - hy, y1 + hy) that the window reads
    top, bottom = max(0, y0 - hy), min(height, y1 + hy)
    run = np.empty(hx + (rows + 2 * hy) * stride + hx, np.uint8)
    padded = run[hx:-hx].reshape(rows + 2 * hy, stride)
    t, b = top - y0 + hy, bottom - y0 + hy
    padded[t:b, hx:-hx] = image[top:bottom]
    padded[:t, hx:-hx] = image[top]
    padded[b:, hx:-hx] = image[bottom - 1]
    padded[:, :hx] = padded[:, hx : hx + 1]
    padded[:, -hx:] = padded[:, -hx - 1 : -hx]
    cells, first = rows * stride, hx + hy * stride  # the slab in the run
    planes = np.empty((4, cells), np.uint8)
    ge = np.empty(cells, np.uint8)
    for k, (dx, dy) in enumerate(PAIR_OFFSETS):
        bit = FEATURE_BITS - 1 - k
        plane, shift = planes[bit // 8], dy * stride + dx
        u = run[first + shift : first + shift + cells]
        v = run[first - shift : first - shift + cells]
        if k == 0 or bit % 8 == 7:  # the plane's first bit
            np.greater_equal(u, v, out=plane.view(bool))
        else:
            np.add(plane, plane, out=plane)  # a shift by one
            np.greater_equal(u, v, out=ge.view(bool))
            np.bitwise_or(plane, ge, out=plane)
    words = out.view(np.uint8).reshape(rows, width, 4)
    for j, plane in enumerate(planes if sys.byteorder == "little" else planes[::-1]):
        words[..., j] = plane.reshape(rows, stride)[:, hx:-hx]


def census_transform(image: np.ndarray) -> np.ndarray:
    """Census-transform an 8-bit image into per-pixel 31-bit feature words."""
    image = as_array("image", image, 2, np.uint8)
    out = np.empty(image.shape, dtype=np.uint32)
    census_rows(image, out, 0, image.shape[0])
    return out
