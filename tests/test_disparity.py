import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmstereo import median_filter_3x3, select_disparity
from sgmstereo import disparity
from sgmstereo.disparity import median_rows, select_rows

from conftest import hamming_volumes


def test_select_unique_argmin():
    vol = np.array([[[3, 1, 2]]], np.uint8)
    assert select_disparity([vol]).tolist() == [[1]]


def test_select_tie_breaks_to_lowest_index():
    vol = np.array([[[2, 2, 5]]], np.uint8)
    assert select_disparity([vol]).tolist() == [[0]]


def test_select_sums_across_volumes():
    a = np.array([[[1, 4]]], np.uint8)
    b = np.array([[[3, 0]]], np.uint8)
    assert select_disparity([a, b]).tolist() == [[0]]  # sums (4, 4), tie -> 0
    a = np.array([[[2, 5]]], np.uint8)
    assert select_disparity([a, b]).tolist() == [[0]]  # sums (5, 5), tie -> 0


def test_select_single_level_volume_is_all_zero():
    vol = np.random.default_rng(0).integers(0, 32, (4, 5, 1), np.uint8)
    assert (select_disparity([vol]) == 0).all()


@given(hamming_volumes(max_disparities=5), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_select_invariant_to_constant_shift(vol, c, seed):
    # adding the same constant to every cell of every volume cannot move the
    # argmin; stay within uint8 to keep the volume contract
    c = min(c, 255 - 31)
    other = np.random.default_rng(seed).integers(0, 32, vol.shape, np.uint8)
    volumes = [vol, other]
    shifted = [(v.astype(np.int32) + c).astype(np.uint8) for v in volumes]
    assert (select_disparity(volumes) == select_disparity(shifted)).all()


def test_select_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one"):
        select_disparity([])
    a = np.zeros((2, 2, 2), np.uint8)
    with pytest.raises(ValueError, match="shape mismatch"):
        select_disparity([a, np.zeros((2, 3, 2), np.uint8)])


def test_median_constant_map_unchanged():
    m = np.full((5, 6), 3, np.int32)
    assert (median_filter_3x3(m) == m).all()


def test_median_removes_isolated_outlier():
    m = np.full((5, 5), 7, np.int32)
    m[2, 2] = 200
    out = median_filter_3x3(m)
    assert out[2, 2] == 7


def test_median_center_of_permutation_is_five():
    m = np.arange(1, 10, dtype=np.int32).reshape(3, 3)
    rng = np.random.default_rng(1)
    m = rng.permutation(m.flatten()).reshape(3, 3)
    assert median_filter_3x3(m)[1, 1] == 5


def test_median_borders_pass_through():
    rng = np.random.default_rng(2)
    m = rng.integers(0, 64, (6, 7), np.int32)
    out = median_filter_3x3(m)
    assert (out[0] == m[0]).all() and (out[-1] == m[-1]).all()
    assert (out[:, 0] == m[:, 0]).all() and (out[:, -1] == m[:, -1]).all()


def test_median_degenerate_shapes_unchanged():
    for shape in ((1, 5), (5, 1), (2, 2), (1, 1)):
        m = np.arange(np.prod(shape), dtype=np.int32).reshape(shape)
        assert (median_filter_3x3(m) == m).all()


@given(st.integers(0, 2**32 - 1))
def test_median_never_invents_values(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 100, (6, 8), np.int32)
    out = median_filter_3x3(m)
    for y in range(1, 5):
        for x in range(1, 7):
            window = m[y - 1 : y + 2, x - 1 : x + 2]
            assert out[y, x] in window


def test_median_row_chunks_match_single_call():
    rng = np.random.default_rng(3)
    m = rng.integers(0, 9, (10, 9), np.int32)
    whole = median_filter_3x3(m)
    chunked = m.copy()
    for y0, y1 in ((0, 2), (2, 7), (7, 10)):
        median_rows(m, chunked, y0, y1)
    assert (chunked == whole).all()


def test_select_rows_blocks_match_direct_sum(monkeypatch):
    # 3-row accumulator blocks at W=5, D=4: row ranges start and end mid-block
    monkeypatch.setattr(disparity, "_BLOCK_BYTES", 3 * 2 * 5 * 4)
    rng = np.random.default_rng(8)
    volumes = [rng.integers(0, 256, (11, 5, 4), np.uint8) for _ in range(8)]
    expected = np.argmin(sum(v.astype(np.int64) for v in volumes), axis=2)
    out = np.full((11, 5), -1, np.int32)
    for y0, y1 in ((0, 1), (1, 5), (5, 5), (5, 11)):
        select_rows(volumes, out, y0, y1)
    assert (out == expected).all()


def test_select_rows_searches_one_summed_volume_in_place(monkeypatch):
    # the pipeline passes its uint16 sum alone; same mid-block row ranges
    monkeypatch.setattr(disparity, "_BLOCK_BYTES", 3 * 2 * 5 * 4)
    rng = np.random.default_rng(9)
    total = rng.integers(0, 8 * 255 + 1, (11, 5, 4), np.uint16)
    before = total.copy()
    out = np.full((11, 5), -1, np.int32)
    for y0, y1 in ((0, 1), (1, 5), (5, 5), (5, 11)):
        select_rows([total], out, y0, y1)
    assert (out == np.argmin(before, axis=2)).all()
    assert (total == before).all()
