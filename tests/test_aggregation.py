import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sgmstereo import PATH_SETS, SgmParams, aggregate_all, aggregate_path, matching_cost
from sgmstereo import aggregation
from sgmstereo.aggregation import _relax, _Scratch, aggregate_lines, line_count
from sgmstereo.oracle import oracle_sgm
from sgmstereo.params import SUM_BITS

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


def test_line_chunks_match_full_run():
    rng = np.random.default_rng(8)
    left = rng.integers(0, 256, (11, 14), np.uint8)
    right = rng.integers(0, 256, (11, 14), np.uint8)
    from sgmstereo import census_transform

    mc = matching_cost(census_transform(left), census_transform(right), 6)
    params = SgmParams(disparities=6, p1=5, p2=60, paths=8)
    for direction in ALL_DIRECTIONS:
        whole = aggregate_path(mc, direction, params)
        chunked = np.empty_like(whole)
        lines = line_count(mc.shape[0], mc.shape[1], direction)
        # thirds, with an empty chunk and a one-line chunk cut from the middle one
        bounds = (0, lines // 3, lines // 3, lines // 3 + 1, 2 * lines // 3, lines)
        for lo, hi in zip(bounds, bounds[1:]):
            aggregate_lines(mc, chunked, direction, params.p1, params.p2, lo, hi)
        assert (chunked == whole).all(), direction


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


def relax_reference(smoothed: np.ndarray, p1: int, p2: int) -> np.ndarray:
    """The residuals of the recurrence step after predecessors with smoothed
    costs ``smoothed``, written per cell with Python integers."""
    front, disparities = smoothed.shape
    out = np.empty_like(smoothed)
    for i in range(front):
        line = [int(v) for v in smoothed[i]]
        pmin = min(line)
        for d in range(disparities):
            best = min(line[d], pmin + p2)
            if d > 0:
                best = min(best, line[d - 1] + p1)
            if d + 1 < disparities:
                best = min(best, line[d + 1] + p1)
            out[i, d] = best - pmin
    return out


@st.composite
def relax_cases(draw):
    """The residuals and costs of the lines' last cells, in [0, p2] and
    [0, 255 - p2], the ranges the walks keep."""
    p2 = draw(st.sampled_from([2, 84, 224]) | st.integers(2, 224))
    p1 = draw(st.sampled_from([1, p2 - 1]) | st.integers(1, p2 - 1))
    front = draw(st.sampled_from([1, 2]) | st.integers(1, 7))
    disparities = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 9))
    shape = (front, disparities)
    residuals = draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, p2)))
    costs = draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 255 - p2)))
    return residuals, costs, p1, p2


_FULL = (np.array([[224]], np.uint8), np.array([[31]], np.uint8), 1, 224)
_EDGES = (np.array([[0, 224]], np.uint8), np.array([[31, 0]], np.uint8), 223, 224)
_TWO_LINES = (np.array([[2, 0, 1], [2, 2, 0]], np.uint8), np.array([[7, 0, 253], [253, 3, 0]], np.uint8), 1, 2)
# lines that have not started hold zeros, and a line's first cell has residual 0
_NOT_STARTED = (np.zeros((3, 4), np.uint8), np.zeros((3, 4), np.uint8), 7, 84)


@given(relax_cases(), st.integers(0, 3))
@example(_FULL, 0)
@example(_EDGES, 0)
@example(_TWO_LINES, 1)
@example(_NOT_STARTED, 2)
@settings(deadline=None, max_examples=300)
def test_relax_matches_per_cell_formula(case, spare):
    # the smoothed costs of the lines' last cells go in and the residuals of
    # their next cells come out, in place.  A sheared walk relaxes a window
    # of its state: the scratch may hold ``spare`` more lines than the
    # window, and the state's lines around the window stay as they are
    residuals, costs, p1, p2 = case
    smoothed = residuals + costs  # <= p2 + 255 - p2
    expected = relax_reference(smoothed, p1, p2)
    front, disparities = smoothed.shape
    state = np.full((front + 2, disparities), 255, np.uint8)
    state[1:-1] = smoothed
    _relax(state[1:-1], _Scratch(front + spare, disparities, p1, p2))
    assert (state[1:-1] == expected).all()
    assert (state[[0, -1]] == 255).all()


def _clobbering(walk):
    """``walk``, with a consumer that overwrites the walked cells with 255
    after every yield that ends their visits, as a fold into the cost
    volume does: every yield of a walk that is not paired, and the second
    visits of a pair."""

    def clobbered(mc, direction, p1, p2, lo, hi, smoothed=False, paired=False):
        for index, block, second in walk(mc, direction, p1, p2, lo, hi, smoothed, paired):
            yield index, block, second
            if second or not paired:
                mc[index] = 255

    return clobbered


def _walk_blocks(monkeypatch, block_bytes, seed, costs):
    """Walk a small random volume in every direction with blocks of
    ``block_bytes`` and a consumer that clobbers the walked costs, and check
    each ``costs`` against the oracle.  The walk must read no cost again
    once it has yielded it.  Then walk the same costs as packed cells, with
    a consumer that adds every block into their sum bits after its yield,
    as the pipeline does: the blocks must equal the byte cube's, and the
    cells must end with the costs above the summed blocks."""
    monkeypatch.setattr(aggregation, "_BLOCK_BYTES", block_bytes)
    walk = aggregation._walk
    monkeypatch.setattr(aggregation, "_walk", _clobbering(walk))
    rng = np.random.default_rng(seed)
    mc = rng.integers(0, 32, (5, 7, 4), np.uint8)
    params = SgmParams(disparities=4, p1=3, p2=40, paths=8)
    for direction in ALL_DIRECTIONS:
        smoothed = oracle_sgm(mc, direction, params)
        residuals = smoothed - mc
        for k in costs:
            walked, out = mc.copy(), np.empty_like(mc)
            aggregate_lines(walked, out, direction, params.p1, params.p2, costs=k)
            assert (out == residuals + k * mc).all(), (direction, k)
        lines = line_count(mc.shape[0], mc.shape[1], direction)
        for expected, emits_smoothed in ((residuals, False), (smoothed, True)):
            args = (direction, params.p1, params.p2, 0, lines, emits_smoothed)
            byte_blocks = [(index, block.copy()) for index, block, _ in walk(mc.copy(), *args)]
            cells = mc.astype(np.uint16) << SUM_BITS
            packed_blocks = []
            for index, block, _ in walk(cells, *args):
                packed_blocks.append((index, block.copy()))
                np.add(cells[index], block, out=cells[index])
            assert len(packed_blocks) == len(byte_blocks), direction
            for (index, block), (byte_index, byte_block) in zip(packed_blocks, byte_blocks):
                assert index == byte_index and (block == byte_block).all(), direction
            assert (cells >> SUM_BITS == mc).all(), direction
            assert (cells & ((1 << SUM_BITS) - 1) == expected).all(), direction


@pytest.mark.parametrize("block_bytes", [1, 100])
def test_walk_blocks_match_scalar_oracle(monkeypatch, block_bytes):
    # block_bytes=1 gives one front per block, 100 gives ragged blocks of 3-5
    # fronts.  Horizontal walks relax strided views of their blocks; costs=1
    # carries smoothed costs
    _walk_blocks(monkeypatch, block_bytes, 9, (0, 1, 6))


@pytest.mark.parametrize("block_bytes", [1, 100])
def test_residual_walk_blocks_match_scalar_oracle(monkeypatch, block_bytes):
    # as test_walk_blocks_match_scalar_oracle on another volume, for the
    # residual (costs=0) and folded (costs=6) walks, whose first step of a
    # block continues from the last step of the block before
    _walk_blocks(monkeypatch, block_bytes, 10, (0, 6))


def _fold_factor(p2: int) -> int:
    """The largest k for which r + k * C stays a byte for Hamming costs."""
    return (255 - p2) // 31


def _reached_first(height: int, width: int, direction) -> np.ndarray:
    """The cells of a height x width frame that ``direction`` reaches
    before its opposite: those in the first half of its steps, the middle
    step of an odd count included."""
    rx, ry = direction
    y, x = np.mgrid[:height, :width]
    step, steps = (x if rx > 0 else width - 1 - x, width) if ry == 0 else (y if ry > 0 else height - 1 - y, height)
    return step < (steps + 1) // 2


@pytest.mark.parametrize("block_bytes", [1, 100])
def test_paired_walks_match_two_whole_walks(monkeypatch, block_bytes):
    # a direction and its opposite walked in lockstep over the same lines
    # give every cell both directions' whole walks: the first visit, where
    # the direction reaches the cell first, the second elsewhere.  Odd and
    # even step counts, over all lines and over bands.  Visits written to
    # two volumes, with a consumer that clobbers the costs a pair has
    # finished with; to one, the first writing and the second adding; the
    # fold (residuals written into a sum, then
    # r + k * C over the cube itself); and packed cells that add both
    # visits into their own sum bits, as the pipeline's walks do
    monkeypatch.setattr(aggregation, "_BLOCK_BYTES", block_bytes)
    walk = aggregation._walk
    rng = np.random.default_rng(12)
    params = SgmParams(disparities=4, p1=3, p2=40, paths=8)
    p1, p2, fold = params.p1, params.p2, _fold_factor(params.p2)
    for height, width in ((5, 7), (6, 8)):
        mc = rng.integers(0, 32, (height, width, 4), np.uint8)
        for direction in ALL_DIRECTIONS:
            opposite = (-direction[0], -direction[1])
            early = _reached_first(height, width, direction)[..., None]
            residuals = [oracle_sgm(mc, d, params) - mc for d in (direction, opposite)]
            lines = line_count(height, width, direction)
            for bands in ([(0, lines)], [(0, lines // 2), (lines // 2, lines)], [(0, 1), (1, 3), (3, lines)]):
                for k in (0, 1):
                    first, second = np.zeros_like(mc), np.zeros_like(mc)
                    with monkeypatch.context() as m:
                        m.setattr(aggregation, "_walk", _clobbering(walk))
                        walked = mc.copy()
                        for lo, hi in bands:
                            aggregate_lines(walked, first, direction, p1, p2, lo, hi, costs=k,
                                            second=(second, False, k))
                    ours, theirs = (r + k * mc for r in residuals)
                    assert (first == np.where(early, ours, theirs)).all(), (direction, bands, k)
                    assert (second == np.where(early, theirs, ours)).all(), (direction, bands, k)
                    # a first visit that writes comes before the second that adds
                    both = np.full_like(mc, 255)
                    for lo, hi in bands:
                        aggregate_lines(mc, both, direction, p1, p2, lo, hi, costs=k, second=(both, True, k))
                    assert (both == ours + theirs).all(), (direction, bands, k)
                folded, total = mc.copy(), np.zeros_like(mc)
                for lo, hi in bands:
                    aggregate_lines(folded, total, direction, p1, p2, lo, hi, costs=0, second=(folded, False, fold))
                assert (total == np.where(early, *residuals)).all(), (direction, bands)
                assert (folded == np.where(early, *residuals[::-1]) + fold * mc).all(), (direction, bands)
                for k in (0, 1):
                    cells = mc.astype(np.uint16) << SUM_BITS
                    for lo, hi in bands:
                        aggregate_lines(cells, cells, direction, p1, p2, lo, hi, add=True, costs=k,
                                        second=(cells, True, k))
                    assert (cells >> SUM_BITS == mc).all(), (direction, bands, k)
                    assert (cells & ((1 << SUM_BITS) - 1) == sum(residuals) + 2 * k * mc).all(), (direction, bands, k)


@given(hamming_volumes(), st.sampled_from(ALL_DIRECTIONS), st.data())
@settings(deadline=None, max_examples=80)
def test_residual_and_folded_walks_match_scalar_oracle(mc, direction, data):
    # the pipeline sums residuals (costs=0) and folds its last walk stage
    # into the cost volume itself (costs=k, out=mc), a range of lines at a time
    params = data.draw(sgm_params(mc.shape[2]))
    residuals = oracle_sgm(mc, direction, params) - mc
    lines = line_count(mc.shape[0], mc.shape[1], direction)
    cut = data.draw(st.integers(1, lines))
    chunks = ((0, cut), (cut, lines)) if cut < lines else ((0, lines),)
    out = np.empty_like(mc)
    for lo, hi in chunks:
        aggregate_lines(mc, out, direction, params.p1, params.p2, lo, hi, costs=0)
    assert (out == residuals).all()
    k = _fold_factor(params.p2)
    if k > 1:
        folded = mc.copy()
        for lo, hi in chunks:
            aggregate_lines(folded, folded, direction, params.p1, params.p2, lo, hi, costs=k)
        assert (folded == residuals + k * mc).all()


def test_add_takes_residuals_or_smoothed_costs_only():
    mc = np.zeros((2, 3, 4), np.uint8)
    with pytest.raises(ValueError, match="costs"):
        aggregate_lines(mc, mc.copy(), (1, 0), 1, 10, add=True, costs=2)
    # a pair's two visits emit one kind, and neither adds a fold
    with pytest.raises(ValueError, match="costs"):
        aggregate_lines(mc, mc.copy(), (1, 0), 1, 10, second=(mc.copy(), True, 2))
    with pytest.raises(ValueError, match="costs 1 or neither"):
        aggregate_lines(mc, mc.copy(), (1, 0), 1, 10, costs=1, second=(mc.copy(), False, 0))
