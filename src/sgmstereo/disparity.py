"""Winner-takes-all disparity selection and median post-filtering."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .params import SgmParams

# bytes of the 16-bit accumulator per block of rows in select_rows
_BLOCK_BYTES = 1 << 19


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
    """Winner-takes-all over rows [y0, y1): sum the per-direction costs and
    keep the lowest disparity attaining the minimum.

    The sum of up to eight byte volumes peaks at 8 * 255, so a 16-bit
    accumulator is exact.  The sum is built a block of rows at a time in
    one small reused accumulator: each volume is read once, the accumulator
    stays in cache, and the memory a call touches does not grow with its
    row range.  A single volume, such as the pipeline's summed cost, is
    searched in place.
    """
    width, disparities = volumes[0].shape[1:]
    block = max(1, min(y1 - y0, _BLOCK_BYTES // (2 * width * disparities)))
    total = np.empty((block, width, disparities), dtype=np.uint16) if len(volumes) > 1 else None
    for r0 in range(y0, y1, block):
        r1 = min(r0 + block, y1)
        if total is None:
            acc = volumes[0][r0:r1]
        else:
            acc = total[: r1 - r0]
            np.copyto(acc, volumes[0][r0:r1])
            for v in volumes[1:]:
                np.add(acc, v[r0:r1], out=acc)
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
    """
    height, width = src.shape
    lo = max(y0, 1)
    hi = min(y1, height - 1)
    if lo >= hi or width < 3:
        return
    rows = hi - lo
    stack = np.empty((9, rows, width - 2), dtype=src.dtype)
    k = 0
    for dy in (-1, 0, 1):
        for dx in (0, 1, 2):
            stack[k] = src[lo + dy : hi + dy, dx : width - 2 + dx]
            k += 1
    stack.sort(axis=0)
    out[lo:hi, 1:-1] = stack[4]  # exact integer median of 9


def median_filter_3x3(disparity: np.ndarray) -> np.ndarray:
    """3x3 median filter; borders are copied unchanged."""
    disparity = np.asarray(disparity)
    if disparity.ndim != 2 or disparity.size == 0:
        raise ValueError(f"expected a non-empty 2-d map, got shape {disparity.shape}")
    out = disparity.copy()
    median_rows(disparity, out, 0, disparity.shape[0])
    return out
