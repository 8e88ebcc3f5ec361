import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sgmstereo import median_filter_3x3, select_disparity
from sgmstereo import disparity
from sgmstereo.disparity import median_rows, select_rows
from sgmstereo.oracle import oracle_median_filter
from sgmstereo.params import SUM_BITS

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
    with pytest.raises(ValueError, match="dimension mismatch"):
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


_SIDES = st.one_of(st.integers(1, 3), st.integers(4, 12))


@st.composite
def disparity_maps(draw):
    """uint8 or int32 maps, often only 1-3 rows or columns wide, with values
    from two levels (many ties) up to the dtype's extremes: negative and
    above 255 for int32."""
    dtype = draw(st.sampled_from([np.uint8, np.int32]))
    info = np.iinfo(dtype)
    low = draw(st.integers(int(info.min), int(info.max)))
    high = min(int(info.max), low + draw(st.sampled_from([1, 2, 300, 2**32])))
    shape = (draw(_SIDES), draw(_SIDES))
    return draw(hnp.arrays(dtype, shape, elements=st.integers(low, high)))


@given(disparity_maps())
@settings(max_examples=200)
def test_median_network_matches_oracle(m):
    out = median_filter_3x3(m)
    assert out.dtype == m.dtype
    assert (out == oracle_median_filter(m)).all()


@given(disparity_maps(), st.data())
def test_median_rows_rewrites_only_its_rows(m, data):
    height = m.shape[0]
    y0 = data.draw(st.integers(0, height))
    y1 = data.draw(st.integers(y0, height))
    out = m.copy()
    median_rows(m, out, y0, y1)
    expected = m.copy()
    expected[y0:y1] = oracle_median_filter(m)[y0:y1]
    assert (out == expected).all()


def _select_byte_blocks(monkeypatch, disparities: int, key_bytes: int):
    """Eight byte volumes at W=5 selected in 3-row blocks of keys
    ``key_bytes`` wide, over row ranges that start and end mid-block."""
    monkeypatch.setattr(disparity, "_BLOCK_BYTES", 3 * key_bytes * 5 * disparities)
    rng = np.random.default_rng(8)
    volumes = [rng.integers(0, 256, (11, 5, disparities), np.uint8) for _ in range(8)]
    expected = np.argmin(sum(v.astype(np.int64) for v in volumes), axis=2)
    out = np.full((11, 5), -1, np.int32)
    for y0, y1 in ((0, 1), (1, 5), (5, 5), (5, 11)):
        select_rows(volumes, out, y0, y1)
    assert (out == expected).all()


def test_select_rows_blocks_match_direct_sum(monkeypatch):
    # a sum of at most 2040 keys in 16 bits at D=4
    _select_byte_blocks(monkeypatch, 4, 2)


def test_select_rows_blocks_of_32_bit_keys_match_direct_sum(monkeypatch):
    # 2041 << 7 overflows 16 bits at D=65
    _select_byte_blocks(monkeypatch, 65, 4)


def _select_packed_blocks(monkeypatch, disparities: int, key_bytes: int):
    """A packed cube at W=5 selected like _select_byte_blocks.  The cost bits
    are highest where the sum is lowest, so a key that kept them would pick
    another disparity, and the cube must stay as it is."""
    monkeypatch.setattr(disparity, "_BLOCK_BYTES", 3 * key_bytes * 5 * disparities)
    rng = np.random.default_rng(9)
    sums = rng.integers(0, 1 << SUM_BITS, (11, 5, disparities), np.uint16)
    costs = np.where(sums == sums.min(axis=2, keepdims=True), 31, 0).astype(np.uint16)
    cells = costs << SUM_BITS | sums
    before = cells.copy()
    out = np.full((11, 5), -1, np.int32)
    for y0, y1 in ((0, 1), (1, 5), (5, 5), (5, 11)):
        select_rows([cells], out, y0, y1)
    assert (out == np.argmin(sums, axis=2)).all()
    assert (cells == before).all()


def test_select_rows_keys_packed_cells_on_their_sum_bits(monkeypatch):
    # the pipeline passes its packed cube alone; 16-bit keys at D=4
    _select_packed_blocks(monkeypatch, 4, 2)


def test_select_rows_keys_packed_cells_in_32_bit_keys(monkeypatch):
    # 2048 << 6 overflows 16 bits at D=33
    _select_packed_blocks(monkeypatch, 33, 4)


_SUM_MASK = (1 << SUM_BITS) - 1


def _sums(volumes):
    """The sum each pixel and disparity is selected on, in int64: the byte
    volumes added up, or a packed cube's sum bits."""
    if volumes[0].dtype == np.uint16:
        return (volumes[0] & _SUM_MASK).astype(np.int64)
    return sum(v.astype(np.int64) for v in volumes)


@st.composite
def selection_cases(draw):
    """One to eight byte volumes, or a packed cube with any cost bits, with
    the extremes and many ties, and a row range that may start and end
    inside a block."""
    packed = draw(st.booleans())
    top = _SUM_MASK if packed else 255
    disparities = draw(st.sampled_from([1, 2, 32, 33, 63, 64, 65, 128, 129, 255, 256]) | st.integers(1, 256))
    height, width = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    values = st.sampled_from([0, top]) | st.integers(0, 3) | st.integers(0, top)
    shape = (height, width, disparities)
    if packed:
        sums = draw(hnp.arrays(np.uint16, shape, elements=values))
        costs = draw(hnp.arrays(np.uint16, shape, elements=st.integers(0, 31)))
        volumes = [costs << SUM_BITS | sums]
    else:
        count = draw(st.integers(1, 8) | st.sampled_from([1, 2, 3]))
        volumes = [draw(hnp.arrays(np.uint8, shape, elements=values)) for _ in range(count)]
    block_rows = draw(st.integers(1, 3))
    y0 = draw(st.integers(0, height))
    y1 = draw(st.integers(y0, height))
    return volumes, block_rows, y0, y1


def _extremes(count: int, disparities: int, hot: int, height: int = 2):
    """Byte volumes, or with ``count`` 0 a packed cube whose cost bits are
    all set, ``height`` rows by 2, with every sum at its top except at the
    lowest disparity and ``hot``, which hold 0 in the first volume: a tie
    the lowest index must win."""
    dtype, top, low = (np.uint8, 255, 0) if count else (np.uint16, 0xFFFF, 31 << SUM_BITS)
    volumes = [np.full((height, 2, disparities), top, dtype) for _ in range(max(count, 1))]
    volumes[0][..., 0] = low
    volumes[0][..., hot] = low
    return volumes


@given(selection_cases())
@example((_extremes(2, 129, 128), 1, 0, 2))  # two bytes, D > 128
@example((_extremes(2, 128, 127), 1, 0, 2))
@example((_extremes(1, 256, 255), 1, 0, 2))
@example((_extremes(8, 256, 255), 1, 0, 2))
@example((_extremes(0, 32, 31), 1, 0, 2))  # packed, 16-bit keys
@example((_extremes(0, 33, 32), 1, 0, 2))
@example((_extremes(0, 256, 255), 1, 0, 2))
# window doubling up to D=64, reduceat above, each in 16- and 32-bit keys
@example((_extremes(1, 63, 62), 1, 0, 2))
@example((_extremes(8, 63, 62), 1, 0, 2))
@example((_extremes(0, 63, 62), 1, 0, 2))
@example((_extremes(4, 64, 63), 1, 0, 2))
@example((_extremes(5, 64, 63), 1, 0, 2))
@example((_extremes(0, 64, 63), 1, 0, 2))  # packed at D=64: 32-bit keys
@example((_extremes(2, 65, 64), 1, 0, 2))
@example((_extremes(3, 65, 64), 1, 0, 2))
@example((_extremes(0, 65, 64), 1, 0, 2))
# five doubling passes end in the spare buffer, here on a short last block
@example((_extremes(2, 32, 31, height=3), 1, 0, 3))
@settings(deadline=None, max_examples=300)
def test_select_rows_matches_argmin_of_the_sum(case):
    volumes, block_rows, y0, y1 = case
    width, disparities = volumes[0].shape[1:]
    expected = np.argmin(_sums(volumes), axis=2)
    out = np.full(volumes[0].shape[:2], -1, np.int32)
    with pytest.MonkeyPatch.context() as mp:
        # 16-bit keys get blocks of 2, 4 or 6 rows and 32-bit keys 1, 2 or 3
        mp.setattr(disparity, "_BLOCK_BYTES", block_rows * 4 * width * disparities)
        select_rows(volumes, out, y0, y1)
    assert (out[y0:y1] == expected[y0:y1]).all()
    assert (out[:y0] == -1).all() and (out[y1:] == -1).all()
