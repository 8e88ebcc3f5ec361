"""Hamming-distance matching costs between two census images.

The cost cube is (height, width, disparities) with the disparity index
varying fastest in memory, stored as single bytes: the Hamming distance of
two 31-bit features never exceeds 31.
"""

from __future__ import annotations

import struct

import numpy as np

# size of the disparity-major scratch per row block: larger blocks spread
# numpy's per-call cost over more pixels, and 1 MiB keeps the scratch a
# negligible share of a frame's peak memory
_BLOCK_BYTES = 1 << 20


def _check_census(base: np.ndarray, match: np.ndarray) -> None:
    if base.ndim != 2 or base.size == 0:
        raise ValueError(f"expected non-empty 2-d census images, got shape {base.shape}")
    if base.shape != match.shape:
        raise ValueError(f"dimension mismatch: base {base.shape} vs match {match.shape}")
    if base.dtype != np.uint32 or match.dtype != np.uint32:
        raise ValueError("census images must be uint32")


def matching_cost_rows(base: np.ndarray, match: np.ndarray, out: np.ndarray, y0: int, y1: int) -> None:
    """Fill rows [y0, y1) of the cost cube ``out``.

    out[y, x, d] = popcount(base[y, x] ^ match[y, x - d]), with x - d clamped
    to column 0.  Rows are independent; any partition gives identical output.

    Each block of rows is computed disparity-major into a small (rows, D, W)
    scratch, so every disparity is one contiguous xor and one contiguous
    popcount; one transposed copy then moves the block into the D-fastest
    layout of ``out``.
    """
    width = base.shape[1]
    disparities = out.shape[2]
    block = max(1, min(y1 - y0, _BLOCK_BYTES // (disparities * width)))
    scratch = np.empty((block, disparities, width), dtype=np.uint8)
    # match rows left-padded with D - 1 copies of column 0: the window
    # starting at D - 1 - d is match[y, x - d] with the clamp built in
    padded = np.empty((block, width + disparities - 1), dtype=np.uint32)
    diff = np.empty((block, width), dtype=np.uint32)
    for r0 in range(y0, y1, block):
        r1 = min(r0 + block, y1)
        rows = r1 - r0
        pad, bits, cube = padded[:rows], diff[:rows], scratch[:rows]
        pad[:, disparities - 1 :] = match[r0:r1]
        pad[:, : disparities - 1] = match[r0:r1, :1]
        b = base[r0:r1]
        for d in range(disparities):
            start = disparities - 1 - d
            np.bitwise_xor(b, pad[:, start : start + width], out=bits)
            np.bitwise_count(bits, out=cube[:, d, :])
        out[r0:r1] = cube.transpose(0, 2, 1)


def matching_cost(base: np.ndarray, match: np.ndarray, disparities: int) -> np.ndarray:
    """Build the (H, W, D) byte cost cube from two census images."""
    base = np.asarray(base)
    match = np.asarray(match)
    _check_census(base, match)
    if not 1 <= disparities <= 256:
        raise ValueError(f"disparities must be in [1, 256], got {disparities}")
    height, width = base.shape
    out = np.empty((height, width, disparities), dtype=np.uint8)
    matching_cost_rows(base, match, out, 0, height)
    return out


def dump_cost_volume(volume: np.ndarray) -> bytes:
    """Serialise a cost cube: width, height, D as little-endian u32, then the
    raw bytes in disparity-fastest order."""
    volume = np.ascontiguousarray(volume, dtype=np.uint8)
    if volume.ndim != 3:
        raise ValueError(f"expected a 3-d cost volume, got shape {volume.shape}")
    height, width, disparities = volume.shape
    return struct.pack("<III", width, height, disparities) + volume.tobytes()


def load_cost_volume(data: bytes) -> np.ndarray:
    """Inverse of :func:`dump_cost_volume`."""
    if len(data) < 12:
        raise ValueError("truncated cost volume dump")
    width, height, disparities = struct.unpack_from("<III", data)
    count = width * height * disparities
    body = data[12 : 12 + count]
    if len(body) < count:
        raise ValueError(f"truncated cost volume dump: expected {count} bytes, found {len(body)}")
    return np.frombuffer(body, dtype=np.uint8, count=count).reshape(height, width, disparities).copy()
