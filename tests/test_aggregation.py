import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sgmstereo import PATH_SETS, SgmParams, aggregate_all, aggregate_path, matching_cost
from sgmstereo import aggregation
from sgmstereo.aggregation import _relax, _Scratch, aggregate_lines
from sgmstereo.oracle import oracle_sgm

from conftest import hamming_volumes, sgm_params

ALL_DIRECTIONS = PATH_SETS[8]


def test_hand_example_left_to_right():
    mc = np.array([[[5, 1], [4, 4], [0, 3]]], np.uint8)
    params = SgmParams(disparities=2, p1=1, p2=2, paths=2)
    out = aggregate_path(mc, (1, 0), params)
    assert out.tolist() == [[[5, 1], [5, 4], [1, 3]]]


def test_single_disparity_is_identity():
    rng = np.random.default_rng(5)
    mc = rng.integers(0, 32, (6, 7, 1), np.uint8)
    params = SgmParams(disparities=1, p1=3, p2=20, paths=2)
    for direction in ALL_DIRECTIONS:
        assert (aggregate_path(mc, direction, params) == mc).all()


def test_path_start_pixels_keep_matching_cost():
    rng = np.random.default_rng(6)
    mc = rng.integers(0, 32, (5, 8, 4), np.uint8)
    params = SgmParams(disparities=4, p1=2, p2=30, paths=2)
    assert (aggregate_path(mc, (1, 0), params)[:, 0, :] == mc[:, 0, :]).all()
    assert (aggregate_path(mc, (-1, 0), params)[:, -1, :] == mc[:, -1, :]).all()
    assert (aggregate_path(mc, (0, 1), params)[0] == mc[0]).all()
    assert (aggregate_path(mc, (0, -1), params)[-1] == mc[-1]).all()
    # diagonals start on two edges
    down_right = aggregate_path(mc, (1, 1), params)
    assert (down_right[0] == mc[0]).all()
    assert (down_right[:, 0, :] == mc[:, 0, :]).all()


def test_constant_volume_stays_constant():
    mc = np.full((4, 6, 3), 9, np.uint8)
    params = SgmParams(disparities=3, p1=1, p2=11, paths=2)
    for direction in ALL_DIRECTIONS:
        assert (aggregate_path(mc, direction, params) == 9).all()


@given(hamming_volumes(), st.sampled_from(ALL_DIRECTIONS), st.data())
@settings(deadline=None, max_examples=60)
def test_matches_scalar_oracle(mc, direction, data):
    params = data.draw(sgm_params(mc.shape[2]))
    assert (aggregate_path(mc, direction, params) == oracle_sgm(mc, direction, params)).all()


@given(hamming_volumes(), st.sampled_from(ALL_DIRECTIONS), st.data())
@settings(deadline=None, max_examples=60)
def test_sandwich_bound(mc, direction, data):
    params = data.draw(sgm_params(mc.shape[2]))
    out = aggregate_path(mc, direction, params).astype(np.int32)
    assert (out >= mc).all()
    assert (out <= mc.astype(np.int32) + params.p2).all()


def test_aggregate_all_path_sets():
    rng = np.random.default_rng(7)
    mc = rng.integers(0, 32, (12, 16, 8), np.uint8)
    params2 = SgmParams(disparities=8, p1=7, p2=84, paths=2)
    vols = aggregate_all(mc, params2)
    assert len(vols) == 2
    for vol, direction in zip(vols, ((1, 0), (0, 1))):
        assert (vol == aggregate_path(mc, direction, params2)).all()

    params4 = SgmParams(disparities=8, p1=7, p2=84, paths=4)
    vols4 = aggregate_all(mc, params4)
    assert len(vols4) == 4
    for vol, direction in zip(vols4, PATH_SETS[4]):
        assert (vol == aggregate_path(mc, direction, params4)).all()


def test_aggregate_all_single_pixel_image():
    mc = np.array([[[4, 0, 7]]], np.uint8)
    params = SgmParams(disparities=3, p1=1, p2=9, paths=8)
    for vol in aggregate_all(mc, params):
        assert (vol == mc).all()


def test_axis_chunks_match_full_run():
    rng = np.random.default_rng(8)
    left = rng.integers(0, 256, (11, 14), np.uint8)
    right = rng.integers(0, 256, (11, 14), np.uint8)
    from sgmstereo import census_transform

    mc = matching_cost(census_transform(left), census_transform(right), 6)
    params = SgmParams(disparities=6, p1=5, p2=60, paths=4)
    for direction in PATH_SETS[4]:
        whole = aggregate_path(mc, direction, params)
        chunked = np.empty_like(whole)
        extent = mc.shape[0] if direction[1] == 0 else mc.shape[1]
        cut = extent // 3
        for lo, hi in ((0, cut), (cut, extent)):
            aggregate_lines(mc, chunked, direction, params.p1, params.p2, lo, hi)
        assert (chunked == whole).all()


def test_rejects_inconsistent_inputs():
    mc = np.zeros((3, 3, 4), np.uint8)
    params = SgmParams(disparities=8, p1=1, p2=10, paths=2)
    with pytest.raises(ValueError, match="disparity levels"):
        aggregate_path(mc, (1, 0), params)
    params = SgmParams(disparities=4, p1=1, p2=10, paths=2)
    with pytest.raises(ValueError, match="direction"):
        aggregate_path(mc, (0, 0), params)
    with pytest.raises(ValueError, match="direction"):
        aggregate_path(mc, (2, 0), params)
    hot = np.full((2, 2, 4), 250, np.uint8)
    with pytest.raises(ValueError, match="overflow"):
        aggregate_path(hot, (1, 0), params)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        SgmParams(disparities=0)
    with pytest.raises(ValueError):
        SgmParams(disparities=257)
    with pytest.raises(ValueError):
        SgmParams(p1=0)
    with pytest.raises(ValueError):
        SgmParams(p1=10, p2=10)
    with pytest.raises(ValueError):
        SgmParams(p1=1, p2=225)
    with pytest.raises(ValueError):
        SgmParams(paths=3)


def relax_reference(prev: np.ndarray, cost: np.ndarray, p1: int, p2: int) -> np.ndarray:
    """The recurrence step written per cell with Python integers."""
    front, disparities = prev.shape
    out = np.empty_like(cost)
    for i in range(front):
        line = [int(v) for v in prev[i]]
        pmin = min(line)
        for d in range(disparities):
            best = min(line[d], pmin + p2)
            if d > 0:
                best = min(best, line[d - 1] + p1)
            if d + 1 < disparities:
                best = min(best, line[d + 1] + p1)
            out[i, d] = int(cost[i, d]) + best - pmin
    return out


@st.composite
def relax_cases(draw):
    p2 = draw(st.sampled_from([2, 84, 224]) | st.integers(2, 224))
    p1 = draw(st.sampled_from([1, p2 - 1]) | st.integers(1, p2 - 1))
    front = draw(st.sampled_from([1, 2]) | st.integers(1, 7))
    disparities = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 9))
    shape = (front, disparities)
    prev = draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 255)))
    cost = draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 255 - p2)))
    return prev, cost, p1, p2


@given(relax_cases(), st.booleans())
@example((np.array([[255]], np.uint8), np.array([[31]], np.uint8), 1, 224), False)
@example((np.array([[0, 255]], np.uint8), np.array([[31, 0]], np.uint8), 223, 224), True)
@example((np.array([[9, 0, 7], [255, 3, 0]], np.uint8), np.full((2, 3), 253, np.uint8), 1, 2), False)
@settings(deadline=None, max_examples=300)
def test_relax_matches_per_cell_formula(case, in_place):
    prev, cost, p1, p2 = case
    expected = relax_reference(prev, cost, p1, p2)
    s = _Scratch(prev.shape[0], prev.shape[1], p1, p2)
    prev_copy = prev.copy()
    out = prev_copy if in_place else np.empty_like(prev)
    _relax(prev_copy, cost, s, out)
    assert (out == expected).all()


@pytest.mark.parametrize("block_bytes", [1, 100])
def test_walk_blocks_match_scalar_oracle(monkeypatch, block_bytes):
    # block_bytes=1 gives one front per block, so each step's result buffer is
    # its own predecessor; 100 gives ragged blocks of 3-5 fronts
    monkeypatch.setattr(aggregation, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(9)
    mc = rng.integers(0, 32, (5, 7, 4), np.uint8)
    params = SgmParams(disparities=4, p1=3, p2=40, paths=8)
    for direction in ALL_DIRECTIONS:
        assert (aggregate_path(mc, direction, params) == oracle_sgm(mc, direction, params)).all()
