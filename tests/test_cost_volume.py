import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmstereo import cost_volume, dump_cost_volume, load_cost_volume, matching_cost
from sgmstereo.cost_volume import matching_cost_rows
from sgmstereo.oracle import oracle_matching_cost
from sgmstereo.params import SUM_BITS

from conftest import census_pairs


def test_zero_cost_against_itself():
    rng = np.random.default_rng(1)
    census = rng.integers(0, 2**31, (6, 8), np.uint32)
    mc = matching_cost(census, census.copy(), 4)
    assert (mc[:, :, 0] == 0).all()


def test_complement_costs_31():
    census = np.array([[0x2AAAAAAA, 0x15555555]], np.uint32)
    comp = census ^ np.uint32(0x7FFFFFFF)
    mc = matching_cost(census, comp, 1)
    assert (mc == 31).all()


@given(census_pairs(), st.integers(1, 12))
@settings(deadline=None)
def test_matches_scalar_oracle(pair, disparities):
    base, match = pair
    mc = matching_cost(base, match, disparities)
    assert (mc == oracle_matching_cost(base, match, disparities)).all()


@given(census_pairs())
def test_costs_bounded_by_feature_width(pair):
    base, match = pair
    mc = matching_cost(base, match, 6)
    assert int(mc.max()) <= 31


@given(census_pairs())
def test_zero_disparity_symmetry(pair):
    base, match = pair
    ab = matching_cost(base, match, 3)[:, :, 0]
    ba = matching_cost(match, base, 3)[:, :, 0]
    assert (ab == ba).all()


def test_in_range_columns_ignore_clamp_rule():
    rng = np.random.default_rng(2)
    base = rng.integers(0, 2**31, (5, 9), np.uint32)
    match = rng.integers(0, 2**31, (5, 9), np.uint32)
    disparities = 6
    mc = matching_cost(base, match, disparities)
    for d in range(disparities):
        direct = np.bitwise_count(base[:, d:] ^ match[:, : 9 - d])
        assert (mc[:, d:, d] == direct).all()


def test_d_fastest_layout_and_dump_format():
    rng = np.random.default_rng(3)
    base = rng.integers(0, 2**31, (4, 5), np.uint32)
    match = rng.integers(0, 2**31, (4, 5), np.uint32)
    mc = matching_cost(base, match, 3)
    blob = dump_cost_volume(mc)
    width, height, disparities = struct.unpack_from("<III", blob)
    assert (width, height, disparities) == (5, 4, 3)
    for y, x, d in ((0, 0, 0), (1, 2, 1), (3, 4, 2)):
        offset = 12 + (y * width + x) * disparities + d
        assert blob[offset] == mc[y, x, d]
    assert (load_cost_volume(blob) == mc).all()


def test_dump_rejects_truncation():
    mc = matching_cost(np.zeros((2, 2), np.uint32), np.zeros((2, 2), np.uint32), 2)
    blob = dump_cost_volume(mc)
    with pytest.raises(ValueError, match="truncated"):
        load_cost_volume(blob[:-1])


@pytest.mark.parametrize(
    ("volume", "dtype"),
    [(np.full((2, 2, 2), 300, np.uint16), "uint16"), (np.full((2, 2, 2), 3.7), "float64")],
    ids=["uint16", "float"],
)
def test_dump_rejects_non_byte_volumes(volume, dtype):
    # a cast would store 300 as 44 and 3.7 as 3
    with pytest.raises(ValueError, match=dtype):
        dump_cost_volume(volume)


def test_zero_dimension_volumes_are_rejected():
    # width 0, height 5, D 3 used to load as a (5, 0, 3) array
    with pytest.raises(ValueError, match="zero dimension"):
        load_cost_volume(struct.pack("<III", 0, 5, 3))
    with pytest.raises(ValueError, match="non-empty"):
        dump_cost_volume(np.zeros((5, 0, 3), np.uint8))


def test_row_chunks_match_single_call():
    rng = np.random.default_rng(4)
    base = rng.integers(0, 2**31, (9, 7), np.uint32)
    match = rng.integers(0, 2**31, (9, 7), np.uint32)
    whole = matching_cost(base, match, 10)
    chunked = np.empty_like(whole)
    for y0, y1 in ((0, 3), (3, 9)):
        matching_cost_rows(base, match, chunked, y0, y1)
    assert (chunked == whole).all()


def test_rejects_bad_inputs():
    a = np.zeros((3, 3), np.uint32)
    with pytest.raises(ValueError, match="dimension mismatch"):
        matching_cost(a, np.zeros((3, 4), np.uint32), 4)
    with pytest.raises(ValueError, match="disparities"):
        matching_cost(a, a, 0)
    with pytest.raises(ValueError, match="disparities"):
        matching_cost(a, a, 257)
    with pytest.raises(ValueError):
        matching_cost(a.astype(np.uint64), a.astype(np.uint64), 2)


def test_row_ranges_straddling_blocks_match_oracle(monkeypatch):
    # blocks of 3 rows of the uint32 scratch; D > W, so most match reads
    # clamp to column 0.  D = 1 and D = 256 are the smallest and largest cubes
    height, width = 11, 5
    rng = np.random.default_rng(4)
    base = rng.integers(0, 2**31, (height, width), np.uint32)
    match = rng.integers(0, 2**31, (height, width), np.uint32)
    for disparities in (1, 9, 256):
        monkeypatch.setattr(cost_volume, "_BLOCK_BYTES", 3 * 4 * disparities * width)
        out = np.zeros((height, width, disparities), np.uint8)
        for y0, y1 in ((0, 4), (4, 11)):
            matching_cost_rows(base, match, out, y0, y1)
        assert (out == oracle_matching_cost(base, match, disparities)).all()


@given(census_pairs(), st.integers(1, 12), st.data())
@settings(deadline=None)
def test_packed_cells_hold_the_costs_over_a_zero_sum(pair, disparities, data):
    # a uint16 cube takes each cost in its cost bits and 0 in its sum bits,
    # whatever the cells held before, a range of rows at a time
    base, match = pair
    height = base.shape[0]
    cut = data.draw(st.integers(0, height))
    out = np.full(base.shape + (disparities,), 0xFFFF, np.uint16)
    for y0, y1 in ((0, cut), (cut, height)):
        matching_cost_rows(base, match, out, y0, y1)
    assert (out >> SUM_BITS == oracle_matching_cost(base, match, disparities)).all()
    assert (out & ((1 << SUM_BITS) - 1) == 0).all()
