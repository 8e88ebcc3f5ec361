"""Hamming-distance matching costs between two census images.

The cost cube is (height, width, disparities) with the disparity index
varying fastest in memory, stored as single bytes: the Hamming distance of
two 31-bit features never exceeds 31.
"""

from __future__ import annotations

import struct

import numpy as np

from .params import MAX_DISPARITIES, SUM_BITS, as_array, as_int

# bytes of the uint32 xor scratch per row block: larger blocks spread
# numpy's per-call cost over more pixels, and 1 MiB keeps the scratch a
# negligible share of a frame's peak memory
_BLOCK_BYTES = 1 << 20


def matching_cost_rows(base: np.ndarray, match: np.ndarray, out: np.ndarray, y0: int, y1: int) -> None:
    """Fill rows [y0, y1) of the cost cube ``out``.

    out[y, x, d] = popcount(base[y, x] ^ match[y, x - d]), with x - d clamped
    to column 0.  Rows are independent; any partition gives identical output.
    ``out`` is the byte cube or a uint16 cube of packed cells: each then
    holds its cost in the cost bits and a zero sum (see params.SUM_BITS).

    Each block of rows is one xor of every base pixel against its D match
    pixels, read through a strided window view of the reversed, padded
    match rows, into a (rows, W, D) uint32 scratch; one popcount then
    writes the block straight into ``out``'s D-fastest layout.
    """
    width = base.shape[1]
    disparities = out.shape[2]
    block = max(1, min(y1 - y0, _BLOCK_BYTES // (4 * width * disparities)))
    # match rows reversed, then D - 1 copies of column 0: the window that
    # starts at W - 1 - x holds match[y, x - d] at d, the clamp built in, so
    # the innermost loop runs forward over contiguous words
    padded = np.empty((block, width + disparities - 1), dtype=np.uint32)
    diff = np.empty((block, width, disparities), dtype=np.uint32)
    for r0 in range(y0, y1, block):
        r1 = min(r0 + block, y1)
        rows = r1 - r0
        pad, bits = padded[:rows], diff[:rows]
        pad[:, :width] = match[r0:r1, ::-1]
        pad[:, width:] = match[r0:r1, :1]
        windows = np.lib.stride_tricks.sliding_window_view(pad, disparities, axis=1)
        np.bitwise_xor(base[r0:r1, :, None], windows[:, ::-1], out=bits)
        cells = out[r0:r1]
        np.bitwise_count(bits, out=cells)
        if cells.dtype == np.uint16:  # packed: C above a zero sum
            np.multiply(cells, 1 << SUM_BITS, out=cells)  # a shift, faster as a multiply


def matching_cost(base: np.ndarray, match: np.ndarray, disparities: int) -> np.ndarray:
    """Build the (H, W, D) byte cost cube from two census images."""
    base = as_array("base", base, 2, np.uint32)
    match = as_array("match", match, 2, np.uint32, like=("base", base))
    disparities = as_int("disparities", disparities, 1, MAX_DISPARITIES)
    height, width = base.shape
    out = np.empty((height, width, disparities), dtype=np.uint8)
    matching_cost_rows(base, match, out, 0, height)
    return out


def dump_cost_volume(volume: np.ndarray) -> bytes:
    """Serialise a cost cube: width, height, D as little-endian u32, then the
    raw bytes in disparity-fastest order."""
    volume = as_array("volume", volume, 3, np.uint8)
    height, width, disparities = volume.shape
    return struct.pack("<III", width, height, disparities) + volume.tobytes()


def load_cost_volume(data: bytes) -> np.ndarray:
    """Inverse of :func:`dump_cost_volume`."""
    if len(data) < 12:
        raise ValueError("truncated cost volume dump")
    width, height, disparities = struct.unpack_from("<III", data)
    count = width * height * disparities
    if count == 0:
        raise ValueError(f"cost volume dump has a zero dimension: {width}x{height}x{disparities}")
    body = data[12 : 12 + count]
    if len(body) < count:
        raise ValueError(f"truncated cost volume dump: expected {count} bytes, found {len(body)}")
    return np.frombuffer(body, dtype=np.uint8, count=count).reshape(height, width, disparities).copy()
