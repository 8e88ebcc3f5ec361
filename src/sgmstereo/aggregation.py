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
an independent worker with bit-identical results.  A direction and its
opposite cross the same cells along the same lines, so one walk can take a
range of lines of both: the direction from its first row, its opposite from
its last, in lockstep, relaxed together.  Every cell is then visited
twice, first by whichever of the two reaches it first.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .params import SUM_BITS, ConfigError, Direction, SgmParams, as_array

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


def _walk(
    mc: np.ndarray, direction: Direction, p1: int, p2: int, lo: int, hi: int, smoothed: bool = False,
    paired: bool = False,
) -> Iterator[tuple[tuple[slice, slice], np.ndarray, bool]]:
    """Walk the lines [lo, hi) of ``direction``, and with ``paired`` the
    same lines of its opposite, yielding ``(index, block, second)``: the
    residuals L - C of the cells ``mc[index]``, or with ``smoothed`` their
    smoothed costs L, in ``mc``'s orientation, and whether the pair's other
    direction reached those cells first.  ``mc`` is a byte cube or a uint16
    cube of packed cells.  The block buffer is reused by the next yield, so
    consumers must copy or fold it before advancing.  The walk reads no
    cost of a cell again once it has yielded the cell's last visit: a
    consumer may overwrite the cells of a block yielded with ``second``
    set, or of any block of a walk that is not paired.

    Every direction walks the rows of a (rows, cols, D) view: ``mc``, or
    for a horizontal direction its transpose.  A walk's step i visits row
    i walking up and row rows - 1 - i walking down, and a pair's two
    directions take step i together.  Its first visits are the direction's
    steps below (rows + 1) // 2 and its opposite's below rows // 2, so the
    middle row of an odd count is first visited by the direction, and the
    blocks of steps are cut there.  A diagonal line moves shear = rx * ry
    columns per row: line k crosses row r at column k + shear * r, less
    rows - 1 when shear > 0.  Line k of side j (the direction, then its
    opposite) keeps slot j * (hi - lo) + k - lo of the state, which holds
    the smoothed costs of the line's last cell, zeros before its first.
    The slots of a side whose lines cross a row form a window that slides
    by at most one slot per row, and each slot enters it once, still zero.
    Each step relaxes the windows in place, emits them, and adds the row's
    costs in.  So a walk over all lines walks each cell of its rows once a
    direction.

    An unsheared walk relaxes a block of steps (512 KiB of both sides'
    fronts) per yield, and its windows are every line of both sides, one
    contiguous front; a sheared window moves every row, so a diagonal
    relaxes each side's window on its own and yields one row at a time.
    The relax step's operands, views of a window and of the scratch, are
    built once per window: once for an unsheared walk and once per row and
    side for a sheared one.  The block buffers keep ``mc``'s own (H, W, D)
    order, so a horizontal walk gathers its costs and yields its results
    as runs of whole block rows, and each of its steps adds and emits
    strided views of them.  A walk over packed cells reads a block's costs
    out of them in one narrowing pass, which for a horizontal walk is its
    gather.
    """
    rx, ry = direction
    transposed = ry == 0
    view = mc.transpose(1, 0, 2) if transposed else mc
    step, shear = (rx, 0) if transposed else (ry, rx * ry)
    rows, cols, disparities = view.shape
    offset = rows - 1 if shear > 0 else 0
    front = hi - lo
    if front == 0:
        return
    sides = (step, -step) if paired else (step,)
    firsts = ((rows + 1) // 2, rows // 2) if paired else (rows,)
    cuts = sorted({0, *firsts, rows})
    lines = len(sides) * front
    state = np.zeros((lines, disparities), np.uint8)
    s = _Scratch(min(front, cols) if shear else lines, disparities, p1, p2)
    block = 1 if shear else max(1, min(rows, _BLOCK_BYTES // (lines * disparities)))

    def block_buffer() -> np.ndarray:
        if transposed:
            return np.empty((lines, block, disparities), dtype=np.uint8).transpose(1, 0, 2)
        return np.empty((block, lines, disparities), dtype=np.uint8)

    packed = mc.dtype == np.uint16
    fronts = block_buffer()
    costs = block_buffer() if transposed or packed else None
    relax = None if shear else [_operands(state, s)]  # an unsheared window is every line
    blocks = [(i, min(i + block, end)) for start, end in zip(cuts, cuts[1:]) for i in range(start, end, block)]
    for i0, i1 in blocks:
        n, walks, emits = i1 - i0, [], []
        for j, side in enumerate(sides):
            r0 = i0 if side > 0 else rows - i1
            c0 = lo + shear * r0 - offset  # column of the side's first slot in row r0
            a, b = max(0, -c0), min(front, cols - c0)
            if a >= b:
                continue  # no line of the range crosses this row
            slots = slice(j * front + a, j * front + b)
            index = (slice(r0, r0 + n), slice(c0 + a, c0 + b))
            block_cost, emitted = view[index], fronts[:n, slots]
            if costs is not None:
                cells, block_cost = block_cost, costs[:n, slots]
                if packed:
                    np.right_shift(cells, SUM_BITS, out=block_cost, casting="unsafe")
                else:
                    np.copyto(block_cost, cells)
            # the block's rows in the side's step order
            order = slice(None, None, side)
            walks.append((state[slots], block_cost[order], emitted[order]))
            if transposed:
                index, emitted = index[::-1], emitted.transpose(1, 0, 2)
            emits.append((index, emitted, i0 >= firsts[j]))
        if shear:
            relax = [_operands(window, s) for window, _, _ in walks]
        for i in range(n):
            for operands in relax:
                _step(*operands)
            for window, block_cost, emitted in walks:
                if smoothed:
                    np.add(window, block_cost[i], out=window)
                    np.copyto(emitted[i], window)
                else:
                    np.copyto(emitted[i], window)
                    np.add(window, block_cost[i], out=window)
        yield from emits


def aggregate_lines(
    mc: np.ndarray, out: np.ndarray, direction: Direction, p1: int, p2: int,
    lo: int = 0, hi: int | None = None, add: bool = False, costs: int = 1,
    second: tuple[np.ndarray, bool, int] | None = None,
) -> None:
    """Aggregate the lines [lo, hi) of one direction, writing r + costs * C
    into ``out`` or, with ``add``, adding it: by default the smoothed costs
    L = r + C, with ``costs=0`` the residuals r = L - C.

    Lines are numbered from 0 to ``line_count`` (the default ``hi``): rows
    for horizontal, columns for vertical, and x - rx * ry * y shifted to
    start at 0 for a diagonal.  Every selected line is a complete path, so
    chunked and single-call execution agree bit for bit, and an empty range
    writes nothing.  With ``second``, an ``(out, add, costs)`` triple, the
    same lines of the opposite direction walk too, in lockstep (see
    ``_walk``): each cell's first visit of the two goes to ``out`` as
    above and its second as ``second`` says, so the pair walks every cell
    twice.  Both visits must emit the same kind, smoothed (``costs=1``) or
    residual.  ``out`` may be wider than uint8, and it may be ``mc``
    itself, whose walked costs then become r + costs * C; for a pair, only
    its second visits may do that.  Above ``costs=1`` that sum is formed in
    bytes, so it must stay <= 255, and it cannot be added.  A uint16 ``mc``
    holds packed cells (see params.SUM_BITS), and adding into ``mc`` itself
    adds into their sum bits, as the pipeline does for every direction.
    """
    visits = ((out, add, costs),) if second is None else ((out, add, costs), second)
    if any(adds and k > 1 for _, adds, k in visits):
        raise ValueError(f"add takes costs 0 or 1, got {[k for _, _, k in visits]}")
    if len({k == 1 for _, _, k in visits}) > 1:
        raise ValueError(f"a pair's visits both take costs 1 or neither, got {[k for _, _, k in visits]}")
    if hi is None:
        hi = line_count(mc.shape[0], mc.shape[1], direction)
    for index, block, later in _walk(mc, direction, p1, p2, lo, hi, costs == 1, second is not None):
        out, add, costs = visits[later]
        if add or costs > 1:
            part = out[index]
            if costs > 1:
                np.multiply(mc[index], costs, out=part)
            np.add(part, block, out=part)
        else:
            out[index] = block


def aggregate_path(mc: np.ndarray, direction: Direction, params: SgmParams) -> np.ndarray:
    """Smooth the cost volume along one path direction."""
    mc = as_array("mc", mc, 3, np.uint8)
    if mc.shape[2] != params.disparities:
        raise ConfigError(f"volume has {mc.shape[2]} disparity levels, params expect {params.disparities}")
    peak = int(mc.max())
    if peak > 255 - params.p2:
        raise ConfigError(f"cost volume peak {peak} with p2={params.p2} would overflow single-byte aggregation")
    rx, ry = direction
    if rx not in (-1, 0, 1) or ry not in (-1, 0, 1) or (rx == 0 and ry == 0):
        raise ConfigError(f"invalid path direction {direction!r}")
    out = np.empty_like(mc)
    aggregate_lines(mc, out, direction, params.p1, params.p2)
    return out


def aggregate_all(mc: np.ndarray, params: SgmParams) -> list[np.ndarray]:
    """Aggregate every direction of the configured path set, in set order."""
    return [aggregate_path(mc, direction, params) for direction in params.directions]
