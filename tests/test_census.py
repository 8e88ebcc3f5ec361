import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmstereo import FLAT_FEATURE, PAIR_OFFSETS, census_transform
from sgmstereo.census import census_rows
from sgmstereo.oracle import oracle_census

from conftest import gray_images

RAMP_FEATURE = 0b0001111_0001111_0001111_0001111_111


def test_pair_table_has_31_entries_in_loop_order():
    assert len(PAIR_OFFSETS) == 31
    assert PAIR_OFFSETS[0] == (1, -3)
    assert PAIR_OFFSETS[27] == (4, 3)
    assert PAIR_OFFSETS[28:] == ((0, 1), (0, 2), (0, 3))


def test_constant_image_all_bits_set():
    img = np.full((7, 9), 123, np.uint8)
    assert (census_transform(img) == FLAT_FEATURE).all()


def test_vertical_ramp_matches_frozen_pattern():
    ramp = np.tile(np.arange(20, dtype=np.uint8)[:, None], (1, 6))
    feats = census_transform(ramp)
    # clamping only disturbs rows within the 3-row window margin
    assert (feats[3:-3, :] == RAMP_FEATURE).all()


@given(gray_images())
@settings(deadline=None)
def test_matches_scalar_oracle(img):
    assert (census_transform(img) == oracle_census(img)).all()


@given(gray_images())
def test_bit31_always_clear(img):
    assert (census_transform(img) < np.uint32(1 << 31)).all()


@given(gray_images(max_width=12, max_height=10), st.integers(1, 120))
def test_invariant_to_intensity_offset(img, offset):
    # order comparisons cannot see a uniform shift unless it saturates
    headroom = 255 - int(img.max())
    shifted = img + np.uint8(min(offset, headroom))
    assert (census_transform(shifted) == census_transform(img)).all()


@given(st.data())
def test_swapping_a_symmetric_pair_flips_one_bit(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    img = rng.integers(0, 256, (9, 11), np.uint8)
    # pick a centre whose whole window is inside the image, so the pair's
    # pixels are not aliased by clamping
    y, x = 4, 5
    k = data.draw(st.integers(0, 30))
    dx, dy = PAIR_OFFSETS[k]
    u = int(img[y + dy, x + dx])
    v = int(img[y - dy, x - dx])
    if u == v:
        img[y - dy, x - dx] = v = (u + 1) % 256
    before = census_transform(img)
    img[y + dy, x + dx], img[y - dy, x - dx] = v, u
    after = census_transform(img)
    flipped = int(before[y, x]) ^ int(after[y, x])
    assert bin(flipped).count("1") == 1


def test_row_chunks_match_single_call():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (13, 17), np.uint8)
    whole = census_transform(img)
    # each call fills a (y1 - y0, W) slab; the slabs of a partition, stacked,
    # are the single call's words
    slabs = []
    for y0, y1 in ((0, 4), (4, 5), (5, 13)):
        slabs.append(np.full((y1 - y0, 17), 0xFFFF_FFFF, np.uint32))
        census_rows(img, slabs[-1], y0, y1)
    assert (np.concatenate(slabs) == whole).all()


@given(gray_images(), st.data())
@settings(deadline=None)
def test_slab_matches_oracle_rows(img, data):
    # a slab's padded rows, the margins of its flat run and the pad columns
    # it crops all sit at slab and image edges: any slab of any image must
    # equal those rows of the oracle's words
    height, width = img.shape
    y0 = data.draw(st.integers(0, height))
    y1 = data.draw(st.integers(y0, height))
    out = np.full((y1 - y0, width), 0xFFFF_FFFF, np.uint32)
    census_rows(img, out, y0, y1)
    assert (out == oracle_census(img)[y0:y1]).all()


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        census_transform(np.zeros((3, 3), np.float32))
    with pytest.raises(ValueError):
        census_transform(np.zeros((0, 3), np.uint8))
    with pytest.raises(ValueError):
        census_transform(np.zeros(9, np.uint8))
