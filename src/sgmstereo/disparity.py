"""Winner-takes-all disparity selection and median post-filtering."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .params import SgmParams

# bytes of the 16-bit sum per block of rows in select_rows
_BLOCK_BYTES = 1 << 19

# Paeth's median-of-9 selection network: each pair (i, j) leaves the smaller
# value in slot i and the larger in slot j; after all 19, slot 4 holds the
# median of the nine inputs
_MEDIAN9 = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8),
    (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4), (4, 2),
)


def _check_volumes(volumes: Sequence[np.ndarray]) -> tuple[int, int, int]:
    if not volumes:
        raise ValueError("need at least one aggregated volume")
    for v in volumes:
        if v.ndim != 3 or v.size == 0:
            raise ValueError(f"expected non-empty (H, W, D) volumes, got shape {v.shape}")
        if v.dtype != np.uint8:
            raise ValueError(f"aggregated volumes must be uint8, got {v.dtype}")
        if v.shape != volumes[0].shape:
            raise ValueError(f"shape mismatch between volumes: {v.shape} vs {volumes[0].shape}")
    return volumes[0].shape


def select_rows(volumes: Sequence[np.ndarray], out: np.ndarray, y0: int, y1: int) -> None:
    """Winner-takes-all over rows [y0, y1): sum the volumes and keep the
    lowest disparity attaining the minimum.

    The sum is built a block of rows at a time in one small reused 16-bit
    buffer: each volume is read once, the buffer stays in cache, and the
    memory a call touches does not grow with its row range.  When the
    dtypes bound the sum so that the key sum << ceil(log2 D) | d fits 16
    bits, as for one or two byte volumes at D <= 128, one minimum over each
    pixel's keys gives the lowest-cost disparity, the lower index on ties.
    Otherwise an argmin searches the sum; up to eight byte volumes peak at
    8 * 255, so the 16-bit sum is exact, and a single volume, such as the
    pipeline's uint16 sum, is searched in place.
    """
    width, disparities = volumes[0].shape[1:]
    shift = (disparities - 1).bit_length()
    bound = sum(int(np.iinfo(v.dtype).max) for v in volumes)
    packed = (bound + 1) << shift <= 1 << 16
    block = max(1, min(y1 - y0, _BLOCK_BYTES // (2 * width * disparities)))
    total = np.empty((block, width, disparities), dtype=np.uint16) if packed or len(volumes) > 1 else None
    if packed:
        # a full plane of levels: numpy is slower with a broadcast operand
        levels = np.broadcast_to(np.arange(disparities, dtype=np.uint16), total.shape).copy()
        pixel_starts = np.arange(0, block * width * disparities, disparities)
        keys = np.empty(block * width, dtype=np.uint16)
    for r0 in range(y0, y1, block):
        r1 = min(r0 + block, y1)
        if total is None:
            acc = volumes[0][r0:r1]
        else:
            acc = total[: r1 - r0]
            np.copyto(acc, volumes[0][r0:r1])
            for v in volumes[1:]:
                np.add(acc, v[r0:r1], out=acc)
        if packed:
            pixels = (r1 - r0) * width
            np.multiply(acc, 1 << shift, out=acc)  # a shift, faster as a multiply
            np.bitwise_or(acc, levels[: r1 - r0], out=acc)
            np.minimum.reduceat(acc.reshape(-1), pixel_starts[:pixels], out=keys[:pixels])
            np.bitwise_and(keys[:pixels], (1 << shift) - 1, out=keys[:pixels])
            out[r0:r1] = keys[:pixels].reshape(r1 - r0, width)
        else:
            out[r0:r1] = np.argmin(acc, axis=2)


def select_disparity(volumes: Sequence[np.ndarray], params: SgmParams | None = None) -> np.ndarray:
    """Per-pixel disparity minimising the summed aggregated cost.

    Ties break toward the lowest disparity index.
    """
    height, width, disparities = _check_volumes(volumes)
    if params is not None and disparities != params.disparities:
        raise ValueError(f"volumes have {disparities} disparity levels, params expect {params.disparities}")
    out = np.empty((height, width), dtype=np.int32)
    select_rows(volumes, out, 0, height)
    return out


def median_rows(src: np.ndarray, out: np.ndarray, y0: int, y1: int) -> None:
    """Median-filter interior rows intersecting [y0, y1) into ``out``.

    ``out`` must already hold the source values: border pixels pass through
    unfiltered, and this only rewrites interior pixels of the given rows.
    The nine shifted planes of the 3x3 windows go through Paeth's
    median-of-9 network, elementwise minima and maxima that are exact for
    any integer dtype and fastest on the pipeline's byte maps.
    """
    height, width = src.shape
    lo = max(y0, 1)
    hi = min(y1, height - 1)
    if lo >= hi or width < 3:
        return
    planes = np.empty((10, hi - lo, width - 2), dtype=src.dtype)
    for k in range(9):
        dy, dx = divmod(k, 3)
        planes[k] = src[lo - 1 + dy : hi - 1 + dy, dx : width - 2 + dx]
    p, spare = list(planes[:9]), planes[9]
    for i, j in _MEDIAN9:
        np.minimum(p[i], p[j], out=spare)
        np.maximum(p[i], p[j], out=p[j])
        p[i], spare = spare, p[i]
    out[lo:hi, 1:-1] = p[4]


def median_filter_3x3(disparity: np.ndarray) -> np.ndarray:
    """3x3 median filter; borders are copied unchanged."""
    disparity = np.asarray(disparity)
    if disparity.ndim != 2 or disparity.size == 0:
        raise ValueError(f"expected a non-empty 2-d map, got shape {disparity.shape}")
    out = disparity.copy()
    median_rows(disparity, out, 0, disparity.shape[0])
    return out
