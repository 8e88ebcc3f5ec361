"""Directional smoothing of the matching-cost volume.

For a direction r = (rx, ry), every maximal straight line across the image in
that direction is relaxed front to back: a pixel's smoothed cost L at
disparity d is its own matching cost C plus the cheapest way to continue from
the predecessor pixel (stay at d, move one level for p1, or jump from the
predecessor's best level for p2), minus the predecessor's best cost so the
values stay bounded.  The residual L - C lies in [0, p2], which is why
single-byte storage is exact for Hamming costs.

A walk's only state is the smoothed costs of each line's last cell, one
contiguous (lines, D) byte block.  A step relaxes that state in place into
the residuals of the lines' next cells, emits them, and adds those cells'
costs in, which is exact because cost <= 255 - p2 is checked on entry
(Hamming costs are <= 31).  A line that has not started holds zeros, which
relax to residual 0: a line's first cell has L = C.  Walks that feed byte
sums emit residuals, which sum more compactly (a byte holds 255 // p2 of
them, against 255 // (31 + p2) smoothed costs); walks whose sum keeps costs
whole emit L.  A walk over a uint16 cube of packed cells (see
params.SUM_BITS) reads each cell's cost out of its cost bits, and its
consumer adds L into the sum bits below them.

The step runs in single bytes by two exact identities.  With
n = L - min(L) >= 0, the residual is min(n[d], n[d-1] + p1, n[d+1] + p1, p2);
subtracting the minimum first leaves nothing to add back.  And
min(n + p1, p2) == min(n, p2 - p1) + p1, so the neighbour candidates are
capped before p1 is added, and no intermediate exceeds p2 <= 224.

Lines are mutually independent: the lines of a direction are relaxed
together as one vectorised front, and any range of them can be processed by
an independent worker with bit-identical results.  Steps are not, but the
state is all a walk carries from one step to the next: a walk can stop after
any step and resume from the state it left, over the remaining steps, again
with bit-identical results.  Each step's row of cells belongs to that step
alone, so a direction and its opposite can walk disjoint step ranges at
once: the first half of each direction's walk order, then the second.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .params import SUM_BITS, Direction, SgmParams

# bytes per block of fronts a walk computes between two yields: enough steps
# to read and write the volume in long runs, small next to a frame's memory
_BLOCK_BYTES = 1 << 19


class _Scratch:
    """Preallocated per-walk buffers and penalty planes for windows of up to
    front_size lines.

    Every buffer is a contiguous (front, D) uint8 block, as the walk's state
    is, so shifts along the disparity axis are 1-d shifts of flat views.  The
    penalties are full planes because numpy is several times slower with a
    scalar operand.
    """

    def __init__(self, front_size: int, disparities: int, p1: int, p2: int):
        shape = (front_size, disparities)
        self.pmin = np.empty(front_size, dtype=np.uint8)
        # line starts in the flat view: minimum.reduceat over them is several
        # times faster than min(axis=1), which runs one short reduction per line
        self.line_starts = np.arange(0, front_size * disparities, disparities)
        self.nb = np.empty(shape, dtype=np.uint8)
        self.pair = np.empty(shape, dtype=np.uint8)
        self.flat_nb, self.flat_pair = self.nb.reshape(-1), self.pair.reshape(-1)
        self.p1 = np.full(shape, p1, dtype=np.uint8)
        self.p2_minus_p1 = np.full(shape, p2 - p1, dtype=np.uint8)
        self.p2 = p2


def _operands(lines: np.ndarray, s: _Scratch) -> tuple:
    """``_step``'s operands for relaxing the state block ``lines``: views of
    it and of the scratch cut to its size, built once for every step that
    relaxes the same block."""
    size, cells = len(lines), lines.size
    flat, flat_nb, flat_pair = lines.reshape(-1), s.flat_nb[:cells], s.flat_pair[:cells]
    pmin, nb = s.pmin[:size], s.nb[:size]
    return (flat, s.line_starts[:size], pmin, lines, pmin[:, None], s.p2_minus_p1[:size], nb,
            s.p1[:size], flat_nb[:-1], flat_nb[1:], flat_pair[:-1], s.pair[:size, -1], s.p2,
            s.pair[:size], flat[1:])


def _step(flat, starts, pmin, lines, pmin_col, cap, nb, p1, nb_lo, nb_hi, pair_lo, pair_last, p2,
          pair, flat_hi) -> None:
    """``_relax`` on the operands ``_operands`` built."""
    np.minimum.reduceat(flat, starts, out=pmin)
    np.subtract(lines, pmin_col, out=lines)
    np.minimum(lines, cap, out=nb)
    np.add(nb, p1, out=nb)
    # pair[d] = min(nb[d], nb[d + 1]); the last column would read the next
    # line's d = 0, so it holds p2, which never lowers a result
    np.minimum(nb_lo, nb_hi, out=pair_lo)
    pair_last.fill(p2)
    np.minimum(lines, pair, out=lines)
    np.minimum(flat_hi, pair_lo, out=flat_hi)


def _relax(lines: np.ndarray, s: _Scratch) -> None:
    """One recurrence step, in place: ``lines`` holds the smoothed costs L of
    each line's last cell and receives the residuals of its next cell.

    ``lines`` is a contiguous (front, D) uint8 block of at most the scratch's
    front size.  With n = L - min(L) the residual is
    min(n[d], nb[d], nb[d-1], nb[d+1]) where nb = min(n + p1, p2)
    = min(n, p2 - p1) + p1; nb[d] supplies the p2 cap because
    min(n, nb) == min(n, p2).  Past n, every value is <= p2.  A line of
    zeros relaxes to zeros.  A step is eight numpy calls on views of
    ``lines`` and of the scratch; a walk builds those views once per window
    (``_operands``) and runs each step on them (``_step``).
    """
    _step(*_operands(lines, s))


def line_count(height: int, width: int, direction: Direction) -> int:
    """Number of lines a direction has across a height x width image: H for
    horizontal, W for vertical and W + H - 1 for diagonal."""
    rx, ry = direction
    return height if ry == 0 else width + abs(rx) * (height - 1)


def step_count(height: int, width: int, direction: Direction) -> int:
    """Number of rows a direction's walk steps over: the columns W for
    horizontal, else the rows H."""
    return width if direction[1] == 0 else height


def walks_up(direction: Direction) -> bool:
    """Whether a direction walks its rows from 0 up, else from the last
    down."""
    rx, ry = direction
    return (rx if ry == 0 else ry) > 0


def _walk(
    mc: np.ndarray, direction: Direction, p1: int, p2: int, lo: int, hi: int, smoothed: bool = False,
    steps: tuple[int, int] | None = None, state: np.ndarray | None = None,
) -> Iterator[tuple[tuple[slice, slice], np.ndarray]]:
    """Walk the lines [lo, hi) of ``direction`` over the rows ``steps``
    (default: all), yielding ``(index, block)``: the residuals L - C of the
    cells ``mc[index]``, or with ``smoothed`` their smoothed costs L, in
    ``mc``'s orientation.  ``mc`` is a byte cube or a uint16 cube of packed
    cells.  The block buffer is reused by the next yield, so consumers must
    copy or fold it before advancing.  The walk reads no cost of
    ``mc[index]`` after yielding it, so a consumer may also overwrite those
    cells.

    Every direction walks down the rows of a (rows, cols, D) view: ``mc``,
    or for a horizontal direction its transpose.  A diagonal line moves
    shear = rx * ry columns per row: line k crosses row r at column
    k + shear * r, less rows - 1 when shear > 0.  Line k keeps slot k - lo
    of ``state``, which holds the smoothed costs of the line's last cell:
    zeros by default, or the caller's contiguous (hi - lo, D) byte block,
    which the walk leaves holding the smoothed costs of the last cells it
    walked.  A non-empty range that starts the walk (row 0 walking up, the
    last row walking down) zeroes that block first, whatever it holds; any
    other range continues from it.  The slots whose lines cross a row form
    a window that slides by at most one slot per row, and each slot enters
    it once, still zero unless an earlier walk of the same lines left it a
    state.  Each step relaxes the window in place, emits it, and adds the
    row's costs in.  So a walk over the rows [s0, s1), in its own order,
    followed by one over the rest from the state it left, equals one walk
    over all rows; and a walk over all lines walks each cell of its rows
    once.

    An unsheared walk relaxes a block of rows (512 KiB) per yield; a
    sheared window moves every row, so a diagonal yields one row at a time.
    The relax step's operands, views of the window and of the scratch, are
    built once per window: once for an unsheared walk, whose window is
    every line, and once per row for a sheared one.
    The block buffers keep ``mc``'s own (H, W, D) order, so a horizontal
    walk gathers its costs and yields its results as runs of whole block
    rows, and each of its steps adds and emits strided views of them.  A
    walk over packed cells reads a block's costs out of them in one
    narrowing pass, which for a horizontal walk is its gather.
    """
    rx, ry = direction
    transposed = ry == 0
    view = mc.transpose(1, 0, 2) if transposed else mc
    step, shear = (rx, 0) if transposed else (ry, rx * ry)
    rows, cols, disparities = view.shape
    offset = rows - 1 if shear > 0 else 0
    s0, s1 = (0, rows) if steps is None else steps
    front = hi - lo
    if front == 0 or s0 >= s1:
        return
    if state is None:
        state = np.zeros((front, disparities), np.uint8)
    elif (s0 == 0) if step > 0 else (s1 == rows):
        state.fill(0)  # the range starts the walk, whatever the state holds
    s = _Scratch(min(front, cols), disparities, p1, p2)
    block = 1 if shear else max(1, min(s1 - s0, _BLOCK_BYTES // (front * disparities)))

    def block_buffer() -> np.ndarray:
        if transposed:
            return np.empty((front, block, disparities), dtype=np.uint8).transpose(1, 0, 2)
        return np.empty((block, front, disparities), dtype=np.uint8)

    packed = mc.dtype == np.uint16
    fronts = block_buffer()
    costs = block_buffer() if transposed or packed else None
    starts, operands = range(s0, s1, block), None
    for r0 in starts if step > 0 else reversed(starts):
        r1 = min(r0 + block, s1)
        c0 = lo + shear * r0 - offset  # column of slot 0 in row r0
        a, b = max(0, -c0), min(front, cols - c0)
        if a >= b:
            continue  # no line of the range crosses this row
        block_cost = view[r0:r1, c0 + a : c0 + b]
        if costs is not None:
            cells, block_cost = block_cost, costs[: r1 - r0, a:b]
            if packed:
                np.right_shift(cells, SUM_BITS, out=block_cost, casting="unsafe")
            else:
                np.copyto(block_cost, cells)
        lines, window = state[a:b], fronts[: r1 - r0, a:b]
        if shear or operands is None:  # an unsheared window is all the lines
            operands = _operands(lines, s)
        for i in range(r1 - r0) if step > 0 else range(r1 - r0 - 1, -1, -1):
            _step(*operands)
            if smoothed:
                np.add(lines, block_cost[i], out=lines)
                np.copyto(window[i], lines)
            else:
                np.copyto(window[i], lines)
                np.add(lines, block_cost[i], out=lines)
        if transposed:
            yield (slice(c0 + a, c0 + b), slice(r0, r1)), window.transpose(1, 0, 2)
        else:
            yield (slice(r0, r1), slice(c0 + a, c0 + b)), window


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
    lo: int = 0, hi: int | None = None, add: bool = False, costs: int = 1,
    steps: tuple[int, int] | None = None, state: np.ndarray | None = None,
) -> None:
    """Aggregate the lines [lo, hi) of one direction, writing r + costs * C
    into ``out`` or, with ``add``, adding it: by default the smoothed costs
    L = r + C, with ``costs=0`` the residuals r = L - C.

    Lines are numbered from 0 to ``line_count`` (the default ``hi``): rows
    for horizontal, columns for vertical, and x - rx * ry * y shifted to
    start at 0 for a diagonal.  Every selected line is a complete path, so
    chunked and single-call execution agree bit for bit, and an empty range
    writes nothing.  ``steps=(s0, s1)`` walks only the rows [s0, s1) of the
    walk (``step_count`` of them; columns for a horizontal direction), and
    ``state``, a contiguous (hi - lo, D) byte block, carries the lines'
    smoothed costs from one call to the next (see ``_walk``): one call per
    step range in the direction's walk order (``walks_up``) equals one call
    over every row.  The call whose range starts the walk zeroes the state
    first, so the state may hold anything before it.  ``out`` may be wider
    than uint8, and it may be ``mc`` itself, whose walked costs then become
    r + costs * C.  Above ``costs=1`` that sum is formed in bytes, so it
    must stay <= 255, and it cannot be added.  A uint16 ``mc`` holds packed
    cells (see params.SUM_BITS), and adding into ``mc`` itself adds into
    their sum bits, as the pipeline does for every direction.
    """
    if add and costs > 1:
        raise ValueError(f"add takes costs 0 or 1, got {costs}")
    if hi is None:
        hi = line_count(mc.shape[0], mc.shape[1], direction)
    for index, block in _walk(mc, direction, p1, p2, lo, hi, costs == 1, steps, state):
        if add or costs > 1:
            part = out[index]
            if costs > 1:
                np.multiply(mc[index], costs, out=part)
            np.add(part, block, out=part)
        else:
            out[index] = block


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
