"""Winner-takes-all disparity selection and median post-filtering."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .params import SUM_BITS, ConfigError, SgmParams, as_array

# bytes of the keys per block of rows in select_rows
_BLOCK_BYTES = 1 << 19
# the most disparity levels select_rows takes a minimum of by window doubling;
# measured between 64 and 96, doubling's passes overtake reduceat's cost
_DOUBLING_LEVELS = 64

# Paeth's median-of-9 selection network: each pair (i, j) leaves the smaller
# value in slot i and the larger in slot j; after all 19, slot 4 holds the
# median of the nine inputs
_MEDIAN9 = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8),
    (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4), (4, 2),
)


def select_rows(volumes: Sequence[np.ndarray], out: np.ndarray, y0: int, y1: int) -> None:
    """Winner-takes-all over rows [y0, y1): the lowest disparity attaining
    each pixel's minimal sum S.

    ``volumes`` are byte volumes, which are summed, or one uint16 cube of
    packed cells, whose S is its sum bits (see params.SUM_BITS).  A block
    of rows at a time, the keys S << ceil(log2 D) | d are built in one
    small reused buffer, so each volume is read once, the buffer stays in
    cache and the memory a call touches does not grow with its row range.
    The minimum of each pixel's keys gives the lowest-cost disparity, the
    lower index on ties.  The keys take 16 bits where the bound on S allows
    it, as for one or two byte volumes at D <= 128, and 32 bits otherwise.

    Up to _DOUBLING_LEVELS levels, the minimum is found by window doubling
    over the block's keys as one flat run: each pass takes the minimum of
    the run and itself shifted by the window so far, which doubles the
    window (the last pass tops it up to exactly D), so ceil(log2 D) passes
    leave each pixel's minimum at its first key, picked by a strided read.
    The passes alternate between the key block and one spare buffer.  Above
    that, one ``np.minimum.reduceat`` over the pixels' first keys, whose
    cost per pixel barely grows with D, is the faster.
    """
    width, disparities = volumes[0].shape[1:]
    shift = (disparities - 1).bit_length()
    packed = volumes[0].dtype == np.uint16
    bound = (1 << SUM_BITS) - 1 if packed else 255 * len(volumes)
    dtype = np.uint16 if (bound + 1) << shift <= 1 << 16 else np.uint32
    block = max(1, min(y1 - y0, _BLOCK_BYTES // (np.dtype(dtype).itemsize * width * disparities)))
    keys = np.empty((block, width, disparities), dtype)
    # a full plane of levels: numpy is slower with a broadcast operand
    levels = np.broadcast_to(np.arange(disparities, dtype=dtype), keys.shape).copy()
    doubling = disparities <= _DOUBLING_LEVELS
    if doubling:
        spare = np.empty(keys.size, dtype)
    else:
        pixel_starts = np.arange(0, keys.size, disparities)
    best = np.empty(block * width, dtype)
    for r0 in range(y0, y1, block):
        r1 = min(r0 + block, y1)
        acc, pixels = keys[: r1 - r0], (r1 - r0) * width
        if packed:
            np.bitwise_and(volumes[0][r0:r1], (1 << SUM_BITS) - 1, out=acc)
        else:
            np.copyto(acc, volumes[0][r0:r1])
            for v in volumes[1:]:
                np.add(acc, v[r0:r1], out=acc)
        np.multiply(acc, 1 << shift, out=acc)  # a shift, faster as a multiply
        np.bitwise_or(acc, levels[: r1 - r0], out=acc)
        if doubling:
            run, other, size, window = acc.reshape(-1), spare, pixels * disparities, 1
            while window < disparities:
                step = min(window, disparities - window)
                np.minimum(run[: size - step], run[step:size], out=other[: size - step])
                run, other, size, window = other, run, size - step, window + step
            first_keys = run[: pixels * disparities : disparities]
        else:
            first_keys = np.minimum.reduceat(acc.reshape(-1), pixel_starts[:pixels], out=best[:pixels])
        np.bitwise_and(first_keys, (1 << shift) - 1, out=best[:pixels])
        out[r0:r1] = best[:pixels].reshape(r1 - r0, width)


def select_disparity(volumes: Sequence[np.ndarray], params: SgmParams | None = None) -> np.ndarray:
    """Per-pixel disparity minimising the summed aggregated cost.

    Ties break toward the lowest disparity index.
    """
    if len(volumes) == 0:
        raise ConfigError("need at least one aggregated volume")
    first = as_array("volumes[0]", volumes[0], 3, np.uint8)
    volumes = [as_array(f"volumes[{i}]", v, 3, np.uint8, like=("volumes[0]", first)) for i, v in enumerate(volumes)]
    height, width, disparities = volumes[0].shape
    if params is not None and disparities != params.disparities:
        raise ConfigError(f"volumes have {disparities} disparity levels, params expect {params.disparities}")
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
    """3x3 median filter of an integer map; borders are copied unchanged."""
    disparity = as_array("disparity", disparity, 2, np.integer)
    out = disparity.copy()
    median_rows(disparity, out, 0, disparity.shape[0])
    return out
