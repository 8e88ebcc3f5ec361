"""The pipeline at production size: 640x480, D=128, in each of its three
sum layouts, serially and on a pool.

Every other differential test runs on small frames, which reach the real
block sizes, row chunks and pool bands only by patching them.  Here the
maps of ``Executor.run`` (all that ``compute_disparity`` does) are compared
with two references, both over a cost cube built here by a naive
Hamming count, so they share only ``census_transform`` with the pipeline.
The stage-API composition shares the walk with the pipeline but none of
its layouts, keys, bands, pairs or tasks.  The naive walker below shares
nothing: it walks in int32, one step index at a time over every cell at
that index, with no residuals, byte state, blocks, windows or
transposes, so it sees faults of ``_walk`` that show only at the real
block sizes and windows.  And the sums the pipeline left in its buffers
must keep the bound paths * C <= S <= paths * (C + p2).
"""

import numpy as np
import pytest

from sgmstereo import SgmParams, aggregate_path, census_transform, median_filter_3x3, shifted_pair
from sgmstereo.params import SUM_BITS, sum_volumes
from sgmstereo.pipeline import Executor, default_threads
from sgmstereo.workers import fork_available

WIDTH, HEIGHT, DISPARITIES, P2 = 640, 480, 128, 84
PATHS = {"byte": 2, "fold": 4, "packed": 8}


def naive_costs(left: np.ndarray, right: np.ndarray, disparities: int) -> np.ndarray:
    """C(y, x, d) = popcount(census(left)[y, x] ^ census(right)[y, max(x - d, 0)]),
    by fancy indexing 16 rows at a time, which bounds the uint32 scratch
    to 16 * W * D words."""
    base, match = census_transform(left), census_transform(right)
    height, width = base.shape
    columns = np.maximum(np.arange(width)[:, None] - np.arange(disparities), 0)
    costs = np.empty((height, width, disparities), np.uint8)
    for y0 in range(0, height, 16):
        rows = slice(y0, y0 + 16)
        costs[rows] = np.bitwise_count(base[rows, :, None] ^ match[rows][:, columns])
    return costs


@pytest.fixture(scope="module")
def vga():
    """The pair, its cost cube C and one reference map per path count.

    In the top half the right view is the left shifted by 70 columns, past
    the 64 levels that a selection key one bit too narrow keeps; the bottom
    half's right view is independent noise, whose minima spread over every
    disparity."""
    left, right = shifted_pair(WIDTH, HEIGHT, 70, seed=31)
    right[HEIGHT // 2 :] = np.random.default_rng(32).integers(0, 256, (HEIGHT - HEIGHT // 2, WIDTH), np.uint8)
    costs = naive_costs(left, right, DISPARITIES)
    maps: dict[int, np.ndarray] = {}

    def reference(params: SgmParams) -> np.ndarray:
        if params.paths not in maps:
            total = np.zeros(costs.shape, np.uint16)
            for direction in params.directions:
                total += aggregate_path(costs, direction, params)
            maps[params.paths] = median_filter_3x3(np.argmin(total, axis=2))
        return maps[params.paths]

    return left, right, costs, reference


def naive_walk(costs: np.ndarray, direction: tuple[int, int], p1: int, p2: int) -> np.ndarray:
    """Smoothed costs L of one direction in int32:
    L(p, d) = C(p, d) + min(L'(d), L'(d - 1) + p1, L'(d + 1) + p1, min L' + p2) - min L',
    where L' is L at the predecessor p - direction, and L = C at a path's
    first cell.  Every cell at step index k (its number of predecessors in
    the frame) is computed at once from the cells at k - 1."""
    height, width, _ = costs.shape
    rx, ry = direction
    y, x = np.mgrid[:height, :width]
    # the step index: how far a cell is from the frame edge the walk enters
    step = np.minimum.reduce([a if r > 0 else n - 1 - a for r, a, n in ((rx, x, width), (ry, y, height)) if r])
    order = np.argsort(step, axis=None, kind="stable")
    bounds = np.searchsorted(step.ravel()[order], np.arange(step.max() + 2))
    out = np.empty(costs.shape, np.int32)
    for k in range(step.max() + 1):
        cells = order[bounds[k] : bounds[k + 1]]
        ys, xs = cells // width, cells % width
        if k == 0:
            out[ys, xs] = costs[ys, xs]
            continue
        prev = out[ys - ry, xs - rx]
        low = prev.min(axis=1, keepdims=True)
        best = np.minimum(prev, low + p2)
        best[:, 1:] = np.minimum(best[:, 1:], prev[:, :-1] + p1)
        best[:, :-1] = np.minimum(best[:, :-1], prev[:, 1:] + p1)
        out[ys, xs] = costs[ys, xs] + best - low
    return out


def naive_median(disparity: np.ndarray) -> np.ndarray:
    """3x3 median of every interior pixel over the nine shifted planes;
    borders pass through."""
    height, width = disparity.shape
    planes = [disparity[1 + dy : height - 1 + dy, 1 + dx : width - 1 + dx] for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    out = disparity.copy()
    out[1:-1, 1:-1] = np.sort(np.stack(planes), axis=0)[4]
    return out


@pytest.fixture(scope="module")
def naive_maps(vga):
    """One map per path count from the naive walker.  The 2- and 4-path
    direction sets are prefixes of the 8-path one, so one uint16 total of
    the walks so far gives each path count's map as it is reached."""
    costs = vga[2]
    directions = SgmParams(paths=8).directions
    assert all(SgmParams(paths=n).directions == directions[:n] for n in PATHS.values())
    total = np.zeros(costs.shape, np.uint16)
    maps = {}
    for n, direction in enumerate(directions, 1):
        np.add(total, naive_walk(costs, direction, 7, P2), out=total, casting="unsafe")
        if n in PATHS.values():
            maps[n] = naive_median(np.argmin(total, axis=2))
    return maps


@pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
@pytest.mark.parametrize("layout", list(PATHS))
def test_vga_frames_match_the_naive_walk(vga, naive_maps, layout, threads):
    left, right, _, _ = vga
    params = SgmParams(disparities=DISPARITIES, p1=7, p2=P2, paths=PATHS[layout])
    with Executor(left, right, params, threads=threads) as ex:
        assert (ex.pool is not None) == (threads == 2 and fork_available() and default_threads() >= 2)
        assert (ex.run() == naive_maps[params.paths]).all()


@pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
@pytest.mark.parametrize("layout", list(PATHS))
def test_vga_frames_match_the_stage_composition(vga, layout, threads):
    left, right, costs, reference = vga
    params = SgmParams(disparities=DISPARITIES, p1=7, p2=P2, paths=PATHS[layout])
    assert sum_volumes(params.directions, params.p2) == layout
    expected = reference(params)
    with Executor(left, right, params, threads=threads) as ex:
        assert (ex.pool is not None) == (threads == 2 and fork_available() and default_threads() >= 2)
        disp = ex.run()
        bufs = ex.buffers
        if layout == "byte":
            sums = bufs["cost_sum"].astype(np.uint16)
            assert (bufs["mc"] == costs).all()
        elif layout == "fold":
            sums = bufs["cost_sum"] + bufs["mc"].astype(np.uint16)
        else:
            sums = bufs["mc"] & np.uint16((1 << SUM_BITS) - 1)
            assert (bufs["mc"] >> SUM_BITS == costs).all()
    floor = costs * np.uint16(params.paths)
    assert (floor <= sums).all()
    sums -= floor
    assert (sums <= params.paths * P2).all()
    assert (disp == expected).all()
