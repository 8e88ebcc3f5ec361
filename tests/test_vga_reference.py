"""The pipeline at production size: 640x480, D=128, in each of its three
sum layouts, serially and on a pool.

Every other differential test runs on small frames, which reach the real
block sizes, row chunks and pool bands only by patching them.  Here the
maps of ``Executor.run`` (all that ``compute_disparity`` does) are compared
with the stage-API composition, which shares the walk with the pipeline but
none of its layouts, keys, bands or tasks; and the sums the pipeline left
in its buffers must keep the bound paths * C <= S <= paths * (C + p2).
"""

import os

import numpy as np
import pytest

from sgmstereo import SgmParams, aggregate_path, census_transform, matching_cost, median_filter_3x3, shifted_pair
from sgmstereo.params import SUM_BITS, sum_volumes
from sgmstereo.pipeline import Executor
from sgmstereo.workers import fork_available

WIDTH, HEIGHT, DISPARITIES, P2 = 640, 480, 128, 84
PATHS = {"byte": 2, "fold": 4, "packed": 8}


@pytest.fixture(scope="module")
def vga():
    """The pair, its cost cube C and one reference map per path count.

    In the top half the right view is the left shifted by 70 columns, past
    the 64 levels that a selection key one bit too narrow keeps; the bottom
    half's right view is independent noise, whose minima spread over every
    disparity."""
    left, right = shifted_pair(WIDTH, HEIGHT, 70, seed=31)
    right[HEIGHT // 2 :] = np.random.default_rng(32).integers(0, 256, (HEIGHT - HEIGHT // 2, WIDTH), np.uint8)
    costs = matching_cost(census_transform(left), census_transform(right), DISPARITIES)
    maps: dict[int, np.ndarray] = {}

    def reference(params: SgmParams) -> np.ndarray:
        if params.paths not in maps:
            total = np.zeros(costs.shape, np.uint16)
            for direction in params.directions:
                total += aggregate_path(costs, direction, params)
            maps[params.paths] = median_filter_3x3(np.argmin(total, axis=2))
        return maps[params.paths]

    return left, right, costs, reference


@pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
@pytest.mark.parametrize("layout", list(PATHS))
def test_vga_frames_match_the_stage_composition(vga, layout, threads):
    left, right, costs, reference = vga
    params = SgmParams(disparities=DISPARITIES, p1=7, p2=P2, paths=PATHS[layout])
    assert sum_volumes(params.directions, params.p2) == layout
    expected = reference(params)
    with Executor(left, right, params, threads=threads) as ex:
        assert (ex.pool is not None) == (threads == 2 and fork_available() and (os.cpu_count() or 1) >= 2)
        disp = ex.run()
        bufs = ex.buffers
        if layout == "byte":
            sums = bufs["cost_sum"].astype(np.uint16)
        elif layout == "fold":
            sums = bufs["cost_sum"] + bufs["mc"].astype(np.uint16)
        else:
            sums = bufs["mc"] & np.uint16((1 << SUM_BITS) - 1)
    floor = costs * np.uint16(params.paths)
    assert (floor <= sums).all()
    sums -= floor
    assert (sums <= params.paths * P2).all()
    assert (disp == expected).all()
