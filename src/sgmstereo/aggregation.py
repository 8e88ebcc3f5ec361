"""Directional smoothing of the matching-cost volume.

For a direction r = (rx, ry), every maximal straight line across the image in
that direction is relaxed front to back: a pixel's smoothed cost at disparity
d is its own matching cost plus the cheapest way to continue from the
predecessor pixel (stay at d, move one level for p1, or jump from the
predecessor's best level for p2), minus the predecessor's best cost so the
values stay bounded.  Each output cell lands in [cost, cost + p2], which is
why single-byte storage is exact for Hamming costs.

Every step also runs in single bytes, by two exact identities.  With
n = prev - min(prev) >= 0, the step is cost + min(n[d], n[d-1] + p1,
n[d+1] + p1, p2); subtracting the minimum first leaves nothing to add back.
And min(n + p1, p2) == min(n, p2 - p1) + p1, so the neighbour candidates are
capped before p1 is added.  n fits a byte because prev does, no later
intermediate exceeds p2 <= 224, and the sum with the cost stays <= 255
whenever cost <= 255 - p2, which is checked on entry (Hamming costs are
<= 31).

Lines are mutually independent: slices perpendicular to the direction are
relaxed together as one vectorised front, and row/column chunks of a volume
can be processed by independent workers with bit-identical results.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .params import Direction, SgmParams

# bytes per block of fronts a walk computes between two yields: enough steps
# to read and write the volume in long runs, small next to a frame's memory
_BLOCK_BYTES = 1 << 19


class _Scratch:
    """Preallocated per-walk buffers and penalty planes; front_size is the
    slice extent.

    Every buffer is a contiguous (front, D) uint8 block, so shifts along the
    disparity axis are 1-d shifts of its flat view.  The penalties are full
    planes because numpy is several times slower with a scalar operand.
    """

    def __init__(self, front_size: int, disparities: int, p1: int, p2: int):
        shape = (front_size, disparities)
        self.pmin = np.empty(front_size, dtype=np.uint8)
        # line starts in the flat view: minimum.reduceat over them is several
        # times faster than min(axis=1), which runs one short reduction per line
        self.line_starts = np.arange(0, front_size * disparities, disparities)
        self.n = np.empty(shape, dtype=np.uint8)
        self.nb = np.empty(shape, dtype=np.uint8)
        self.pair = np.empty(shape, dtype=np.uint8)
        self.p1 = np.full(shape, p1, dtype=np.uint8)
        self.p2_minus_p1 = np.full(shape, p2 - p1, dtype=np.uint8)
        self.p2 = p2


def _relax(prev: np.ndarray, cost: np.ndarray, s: _Scratch, out: np.ndarray) -> np.ndarray:
    """One recurrence step: relax a whole front against its predecessor front.

    ``prev`` is a contiguous (front, D) uint8 block, ``cost`` any (front, D)
    uint8 view; the result is written to ``out`` (contiguous uint8, which may
    be ``prev`` itself: ``prev`` is not read once ``out`` is written).  With
    n = prev - min(prev) the step is cost + min(n[d], nb[d], nb[d-1], nb[d+1])
    where nb = min(n + p1, p2) = min(n, p2 - p1) + p1; nb[d] supplies the p2
    cap because min(n, nb) == min(n, p2).  Past n, every value is <= p2.
    """
    n, nb, pair = s.n, s.nb, s.pair
    np.minimum.reduceat(prev.reshape(-1), s.line_starts, out=s.pmin)
    np.subtract(prev, s.pmin[:, None], out=n)
    np.minimum(n, s.p2_minus_p1, out=nb)
    np.add(nb, s.p1, out=nb)
    # pair[d] = min(nb[d], nb[d + 1]); the last column would read the next
    # line's d = 0, so it holds p2, which never lowers a result
    flat_nb, flat_pair, flat_n = nb.reshape(-1), pair.reshape(-1), n.reshape(-1)
    np.minimum(flat_nb[:-1], flat_nb[1:], out=flat_pair[:-1])
    pair[:, -1] = s.p2
    np.minimum(n, pair, out=n)
    np.minimum(flat_n[1:], flat_pair[:-1], out=flat_n[1:])
    np.add(n, cost, out=out)  # exact: bounded by cost + p2 <= 255
    return out


def _walk(mc: np.ndarray, direction: Direction, p1: int, p2: int) -> Iterator[tuple[object, np.ndarray]]:
    """Walk ``mc`` along ``direction``, yielding relaxed fronts a block at a time.

    Yields ``(index, block)`` where ``volume[index]`` addresses the fronts the
    block holds, in the volume's own orientation.  The block buffer is reused
    by the next yield, so consumers must copy or fold it before advancing.

    Every step reads its cost and writes its result as one contiguous
    (front, D) buffer.  Horizontal fronts are columns, strided in the
    volume, so their costs are gathered a block of columns at a time; the
    volume is then read and written in runs of block x D bytes instead of
    one D-byte run per line and step.
    """
    rx, ry = direction
    height, width, disparities = mc.shape
    if ry == 0:
        front, length, forward = height, width, rx > 0
        index_of = lambda lo, hi: (slice(None), slice(lo, hi))  # noqa: E731
        orient = lambda a: a.transpose(1, 0, 2)  # noqa: E731  (H, n, D) <-> (n, H, D)
    else:
        front, length, forward = width, height, ry > 0
        index_of = lambda lo, hi: slice(lo, hi)  # noqa: E731
        orient = lambda a: a  # noqa: E731

    s = _Scratch(front, disparities, p1, p2)
    block = max(1, min(length, _BLOCK_BYTES // (front * disparities)))
    fronts = np.empty((block, front, disparities), dtype=np.uint8)
    costs = np.empty_like(fronts) if ry == 0 else None
    shift_buf = np.zeros((front, disparities), dtype=np.uint8) if rx != 0 and ry != 0 else None
    enter = 0 if rx > 0 else width - 1  # diagonal column with no predecessor
    starts = range(0, length, block)
    prev: np.ndarray | None = None
    for lo in starts if forward else reversed(starts):
        hi = min(lo + block, length)
        index = index_of(lo, hi)
        block_cost = orient(mc[index])
        if costs is not None:
            np.copyto(costs[: hi - lo], block_cost)
            block_cost = costs[: hi - lo]
        for i in range(hi - lo) if forward else range(hi - lo - 1, -1, -1):
            cost, cur = block_cost[i], fronts[i]
            if prev is None:
                np.copyto(cur, cost)
            elif shift_buf is None:
                _relax(prev, cost, s, out=cur)
            else:
                # diagonal: the predecessor of column x on this front is column
                # x - rx of the previous front
                if rx > 0:
                    shift_buf[1:] = prev[:-1]
                else:
                    shift_buf[:-1] = prev[1:]
                _relax(shift_buf, cost, s, out=cur)
                cur[enter] = cost[enter]
            prev = cur
        yield index, orient(fronts[: hi - lo])


def _check_volume(mc: np.ndarray, params: SgmParams) -> None:
    if mc.ndim != 3 or mc.size == 0:
        raise ValueError(f"expected a non-empty (H, W, D) cost volume, got shape {mc.shape}")
    if mc.dtype != np.uint8:
        raise ValueError(f"cost volume must be uint8, got {mc.dtype}")
    if mc.shape[2] != params.disparities:
        raise ValueError(f"volume has {mc.shape[2]} disparity levels, params expect {params.disparities}")
    peak = int(mc.max())
    if peak > 255 - params.p2:
        raise ValueError(
            f"cost volume peak {peak} with p2={params.p2} would overflow single-byte aggregation"
        )


def aggregate_lines(
    mc: np.ndarray, out: np.ndarray, direction: Direction, p1: int, p2: int,
    lo: int = 0, hi: int | None = None, add: bool = False,
) -> None:
    """Aggregate the lines [lo, hi) of one direction, writing the smoothed
    costs into ``out`` or, with ``add``, adding them to it.

    Horizontal lines are rows and vertical lines columns; every selected
    line is a complete path, so chunked and single-call execution agree bit
    for bit.  A diagonal direction couples columns across a front, so it
    takes the whole volume: [lo, hi) must span every column.  ``out`` may be
    wider than uint8, such as a uint16 sum over directions.
    """
    rx, ry = direction
    height, width = mc.shape[:2]
    if hi is None:
        hi = height if ry == 0 else width
    if ry == 0:
        sub_mc, sub_out = mc[lo:hi], out[lo:hi]
    elif rx == 0 or (lo, hi) == (0, width):
        sub_mc, sub_out = mc[:, lo:hi], out[:, lo:hi]
    else:
        raise ValueError("diagonal directions couple columns across a front and cannot be chunked")
    for index, block in _walk(sub_mc, direction, p1, p2):
        if add:
            part = sub_out[index]
            np.add(part, block, out=part)
        else:
            sub_out[index] = block


def aggregate_path(mc: np.ndarray, direction: Direction, params: SgmParams) -> np.ndarray:
    """Smooth the cost volume along one path direction."""
    mc = np.asarray(mc)
    _check_volume(mc, params)
    rx, ry = direction
    if rx not in (-1, 0, 1) or ry not in (-1, 0, 1) or (rx == 0 and ry == 0):
        raise ValueError(f"invalid path direction {direction!r}")
    out = np.empty_like(mc)
    aggregate_lines(mc, out, direction, params.p1, params.p2)
    return out


def aggregate_all(mc: np.ndarray, params: SgmParams) -> list[np.ndarray]:
    """Aggregate every direction of the configured path set, in set order."""
    return [aggregate_path(mc, direction, params) for direction in params.directions]
