import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgmstereo import (
    ConfigError,
    PipelineConfig,
    SgmParams,
    aggregate_path,
    compute_disparity,
    run_pipeline,
    shift_recovery_mask,
    shifted_pair,
    write_disparity,
    write_pgm,
)
from sgmstereo import aggregation, cli, pipeline
from sgmstereo.oracle import oracle_census, oracle_matching_cost, oracle_pipeline
from sgmstereo.params import SUM_BITS, Direction
from sgmstereo.pipeline import Executor
from sgmstereo.workers import fork_available


def test_zero_shift_pair_gives_all_zero_map():
    left, right = shifted_pair(28, 20, 0, seed=4)
    disp = compute_disparity(left, right, SgmParams(disparities=16, paths=4))
    assert (disp == 0).all()


def test_matches_oracle_end_to_end():
    left, right = shifted_pair(30, 22, 5, seed=9)
    params = SgmParams(disparities=16, p1=7, p2=84, paths=4)
    assert (compute_disparity(left, right, params) == oracle_pipeline(left, right, params)).all()


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),
    st.integers(1, 16),
    st.sampled_from([1, 4, 8]),
    st.sampled_from([2, 4, 8]),
)
@settings(deadline=None, max_examples=25)
def test_matches_oracle_on_random_pairs(seed, width, height, disparities, paths):
    rng = np.random.default_rng(seed)
    left = rng.integers(0, 256, (height, width), np.uint8)
    right = rng.integers(0, 256, (height, width), np.uint8)
    params = SgmParams(disparities=disparities, p1=3, p2=40, paths=paths)
    assert (compute_disparity(left, right, params) == oracle_pipeline(left, right, params)).all()


def test_shifted_pair_ground_truth_property():
    left, right = shifted_pair(20, 8, 6, seed=14)
    assert left.shape == right.shape == (8, 20)
    # every left pixel from column `shift` on matches right at x - shift
    assert (left[:, 6:] == np.roll(right, 6, axis=1)[:, 6:]).all()


def test_shift_recovery_on_interior():
    left, right = shifted_pair(64, 48, 6, seed=10)
    disp = compute_disparity(left, right, SgmParams(disparities=32, paths=4))
    mask = shift_recovery_mask(64, 48, 6) != 0
    assert (disp[mask] == 6).mean() > 0.95


@pytest.mark.parametrize("paths", [2, 4, 8])
def test_worker_counts_agree(paths):
    left, right = shifted_pair(40, 30, 4, seed=11)
    params = SgmParams(disparities=16, paths=paths)
    base = compute_disparity(left, right, params, threads=1)
    for threads in (2, 8):
        assert (compute_disparity(left, right, params, threads=threads) == base).all()


@pytest.mark.parametrize("paths", [2, 4, 8])
def test_forked_pool_matches_oracle(monkeypatch, paths):
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    left, right = shifted_pair(23, 17, 3, seed=15)
    params = SgmParams(disparities=8, p1=5, p2=60, paths=paths)
    with Executor(left, right, params, threads=2) as ex:
        if _pool_expected():
            assert ex.pool is not None
        disp = ex.run()
    assert (disp == oracle_pipeline(left, right, params)).all()


def _pool_expected() -> bool:
    return fork_available() and pipeline.default_threads() >= 2


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from([1, 3, 8]),
    st.sampled_from([2, 4, 8]),
)
@example(seed=1, width=1, height=9, disparities=4, paths=8)  # one column
@example(seed=2, width=11, height=1, disparities=4, paths=8)  # one row
@example(seed=3, width=5, height=3, disparities=1, paths=4)
@example(seed=4, width=2, height=12, disparities=3, paths=8)  # 13 diagonal lines, 2 columns
@settings(deadline=None, max_examples=20)
def test_forced_pool_matches_oracle_on_random_pairs(seed, width, height, disparities, paths):
    # a 2-worker pool cuts each row stage into 2 row ranges and each walk
    # stage into 2 bands of lines: a frame of one row, or at width 1 of one
    # vertical line, leaves a stage a single task
    rng = np.random.default_rng(seed)
    left = rng.integers(0, 256, (height, width), np.uint8)
    right = rng.integers(0, 256, (height, width), np.uint8)
    params = SgmParams(disparities=disparities, p1=3, p2=40, paths=paths)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
        with Executor(left, right, params, threads=2) as ex:
            assert (ex.pool is not None) == _pool_expected()
            disp = ex.run()
    assert (disp == oracle_pipeline(left, right, params)).all()


@pytest.mark.parametrize(
    ("pooled", "paths", "p2"),
    [(False, 8, 60), (True, 8, 60), (False, 4, 84), (True, 4, 84)],
    ids=["serial", "pool", "serial-folded", "pool-folded"],
)
def test_reused_executor_recomputes_the_sum_for_a_new_pair(monkeypatch, pooled, paths, p2):
    # a direction that leaves cells of the summed volume untouched would keep
    # the previous pair's sums there, which a fresh Executor cannot show; at
    # 8 paths the sums sit in "mc" itself and must restart at 0, and at 4
    # paths the last walk stage overwrote "mc", which must be rebuilt
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    first = shifted_pair(23, 17, 3, seed=18)
    second = shifted_pair(23, 17, 6, seed=19)
    params = SgmParams(disparities=8, p1=5, p2=p2, paths=paths)
    expected = compute_disparity(*second, params)
    with Executor(*first, params, threads=2 if pooled else 1) as ex:
        assert (ex.pool is not None) == (pooled and _pool_expected())
        assert not (ex.run() == expected).all()
        np.copyto(ex.buffers["left"], second[0])
        np.copyto(ex.buffers["right"], second[1])
        assert (ex.run() == expected).all()


def _layout(paths: int, p2: int) -> str:
    """How the pipeline sums ``paths`` smoothed costs, each at most 31 + p2:
    in one byte volume when a byte holds them all; else, when a byte holds
    the residuals (each at most p2) of all walk stages but the last, each
    stage walking every cell once, and one residual plus paths * C fits the
    cube's byte, with the last stage folded into "mc"; else in the sum bits
    of packed uint16 cells."""
    if paths * (31 + p2) <= 255:
        return "byte"
    if (paths - 1) * p2 <= 255 and paths * 31 + p2 <= 255:
        return "fold"
    return "packed"


def test_every_setting_holds_at_most_two_bytes_a_cell():
    # buffers hold only what crosses stages: no census planes, no walk
    # state, and the filtered map only when the median runs; every layout
    # meets both
    left, right = shifted_pair(20, 12, 2, seed=17)
    for paths in (2, 4, 8):
        for p2 in range(2, 225):
            median = p2 % 2 == 0
            layout = _layout(paths, p2)
            params = SgmParams(disparities=8, p1=1, p2=p2, paths=paths)
            with Executor(left, right, params, median=median) as ex:
                buffers = ex.buffers
                names = set(buffers)
                volumes = {name: b.dtype for name, b in buffers.items() if b.ndim == 3}
                assert all(b.shape == (12, 20, 8) for b in buffers.values() if b.ndim == 3)
            planes = {"left", "right", "disp_raw"} | ({"disp_out"} if median else set())
            if layout == "packed":
                assert volumes == {"mc": np.uint16}, (paths, p2)
            else:
                assert volumes == {"mc": np.uint8, "cost_sum": np.uint8}, (paths, p2)
            assert names == planes | set(volumes), (paths, p2, median)


def _striped_pair(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """A ramp, whose census word is the same at every interior pixel, and a
    right image that inverts it (255 - left) in every other 24-column
    stripe: matching costs are 0 or the full 31, constant down each column,
    so the residuals and smoothed costs climb to their bounds p2 and
    31 + p2.  At 20x48 all 8 directions reach 31 + p2 in one cell."""
    y, x = np.mgrid[:height, :width]
    left = (3 * x + 7 * y).astype(np.uint8)
    right = np.where((x // 24) % 2 == 1, 255 - left, left).astype(np.uint8)
    return left, right


_BOUND_CASES = [
    (84, 4), (85, 4), (96, 2), (96, 4), (97, 2), (97, 4), (193, 2), (7, 8), (60, 8), (84, 8), (224, 8), (200, 2)
]


@pytest.mark.parametrize("disparities", [1, 129, 256])
@pytest.mark.parametrize(("p2", "paths"), _BOUND_CASES, ids=[f"{p2}-{paths}" for p2, paths in _BOUND_CASES])
@pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
def test_sums_at_their_bound_match_oracle(monkeypatch, threads, p2, paths, disparities):
    # folded (4 paths at p2 84 and 85, 2 paths at 97 and 193, 8 paths at 7
    # with p1 = 6), the byte volume must peak at (paths - 1) * p2, 255 at 4
    # paths and p2 = 85, and "mc" at paths * 31 + p2, 255 at 2 paths and
    # p2 = 193 and at 8 paths and p2 = 7.  At 2 paths and
    # p2 = 96 a byte holds both smoothed costs (2 * 127 = 254).  Packed (4
    # paths at 96 and 97, 8 paths, 2 paths at 200), the sum bits must peak
    # at paths * (31 + p2), 2040 at 8 paths and p2 = 224.  With one
    # disparity every residual is 0
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    left, right = _striped_pair(20, 48)
    params = SgmParams(disparities=disparities, p1=min(7, p2 - 1), p2=p2, paths=paths)
    jump = p2 if disparities > 1 else 0
    layout = _layout(paths, p2)
    with Executor(left, right, params, threads=threads) as ex:
        assert (ex.pool is not None) == (threads == 2 and _pool_expected())
        disp = ex.run()
        peaks = {name: int(b.max()) for name, b in ex.buffers.items() if b.shape == (20, 48, disparities)}
        cells = ex.buffers["mc"]
        if layout == "packed":
            peaks = {"sum bits": int((cells & ((1 << SUM_BITS) - 1)).max())}
            costs = cells >> SUM_BITS
    if layout == "packed":
        # every direction adds into "mc"; its cost bits must still hold the
        # matching costs after the run
        assert (costs == oracle_matching_cost(oracle_census(left), oracle_census(right), disparities)).all()
    if layout == "fold":
        assert peaks == {"mc": paths * 31 + jump, "cost_sum": (paths - 1) * jump}
    elif layout == "byte":
        assert peaks == {"mc": 31, "cost_sum": paths * (31 + jump)}
    else:
        assert peaks == {"sum bits": paths * (31 + jump)}
    assert (disp == oracle_pipeline(left, right, params)).all()


# the walk stages of each path count: 2 paths have no opposites, and at 4
# and 8 every direction walks in lockstep with its opposite, as one stage
_WALK_STAGES = {
    2: ["aggregate(+1,+0)", "aggregate(+0,+1)"],
    4: ["aggregate(+1,+0)&(-1,+0)", "aggregate(+0,+1)&(+0,-1)"],
    8: ["aggregate(+1,+0)&(-1,+0)", "aggregate(+0,+1)&(+0,-1)", "aggregate(+1,+1)&(-1,-1)",
        "aggregate(-1,+1)&(+1,-1)"],
}


@pytest.mark.parametrize("paths", [2, 4, 8])
def test_pool_runs_one_task_per_worker_in_every_stage(monkeypatch, paths):
    if not fork_available():
        pytest.skip("needs fork for a pool")
    left, right = shifted_pair(40, 30, 4, seed=16)
    params = SgmParams(disparities=16, paths=paths)
    serial = compute_disparity(left, right, params, threads=1)
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    batches = []
    original = pipeline.run_tasks

    def recording_run_tasks(pool, buffers, tasks):
        batches.append(len(tasks))
        return original(pool, buffers, tasks)

    monkeypatch.setattr(pipeline, "run_tasks", recording_run_tasks)
    names = ["matching_cost", *_WALK_STAGES[paths], "selection", "median"]
    for workers in (2, 4):
        monkeypatch.setattr(pipeline, "default_threads", lambda: workers)
        batches.clear()
        timings = {}
        with Executor(left, right, params, threads=workers) as ex:
            assert ex.pool is not None and ex.workers == workers
            frames = [ex.run(timings) for _ in range(2)]
            stages = dict(ex._stages)
        assert all((disp == serial).all() for disp in frames)
        # census words and costs, selection and the median take one row
        # range per worker, and the walks a band of lines per worker, of a
        # direction with its opposite where they pair: one task per worker
        # in every stage, every frame, whichever layout the paths pick
        # (byte, fold, packed)
        assert batches == 2 * [workers] * len(names)
        assert list(timings) == names
        for name in ("matching_cost", "selection", "median"):
            covered = np.zeros(left.shape[0], int)
            for _, kwargs in stages[name]:
                covered[kwargs["y0"] : kwargs["y1"]] += 1
            assert len(stages[name]) == workers and (covered == 1).all(), name
    # a serial executor builds the same stages, with one task each
    with Executor(left, right, params, threads=1) as ex:
        assert ex.pool is None
        assert [name for name, _ in ex._stages] == names
        assert all(len(tasks) == 1 for _, tasks in ex._stages)


# what each walk stage does to the sum, as (dst, add, costs) of its first
# visits and of its second (None where a direction walks alone): the first
# visit writes and every later one adds, except that the fold's last visit
# writes r + paths * C over "mc", and packed cells add every visit
_VISITS = {
    "byte": [(("cost_sum", False, 1), None), (("cost_sum", True, 1), None)],
    "fold": [(("cost_sum", False, 0), ("cost_sum", True, 0)), (("cost_sum", True, 0), ("mc", False, 4))],
    "packed": [(("mc", True, 1), ("mc", True, 1))] * 4,
}


@pytest.mark.parametrize(("width", "height", "disparities"), [(20, 12, 8), (640, 480, 128)])
@pytest.mark.parametrize("layout", ["byte", "fold", "packed"])
def test_the_stage_list_is_pinned(monkeypatch, layout, width, height, disparities):
    # the stages of every layout, serial and pooled at 2 and 4 workers,
    # built without a frame: names in order, one task per worker in each,
    # and what each walk stage does to the sum.  A frame runs 5 stages at
    # 2 and 4 paths and 7 at 8, so 10, 10 and 14 pooled tasks at 2 workers
    paths = {"byte": 2, "fold": 4, "packed": 8}[layout]
    params = SgmParams(disparities=disparities, p1=7, p2=84, paths=paths)
    assert _layout(paths, params.p2) == layout
    frame = np.zeros((height, width), np.uint8)
    names = ["matching_cost", *_WALK_STAGES[paths], "selection", "median"]
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    for workers in (1, 2, 4):
        if workers > 1 and not fork_available():
            continue
        monkeypatch.setattr(pipeline, "default_threads", lambda: workers)
        with Executor(frame, frame, params, threads=workers) as ex:
            assert (ex.pool is not None) == (workers > 1)
            assert [(name, len(tasks)) for name, tasks in ex._stages] == [(name, workers) for name in names]
            visits = [{((kw["dst"], kw["add"], kw["costs"]), kw["second"]) for _, kw in tasks}
                      for name, tasks in ex._stages if name.startswith("aggregate")]
            assert visits == [{v} for v in _VISITS[layout]]


# the peak traced allocation of a warm serial VGA D=128 frame, the same at
# every layout: the matching-cost task's census words (2 * 4 * H * W B),
# and, while it builds the right image's, the census scratch of one
# ``census_rows`` call (its padded run, four byte planes and a compare
# plane: 1,870,136 B at 640x480), plus a little
_FRAME_SCRATCH_BYTES = 4_329_624


def _walk_steps(direction: Direction, height: int, width: int) -> int:
    """``_step`` calls of one serial walk stage: one a step, W for a
    horizontal stage and H for a vertical one, paired or not, and 2 * H for
    a diagonal pair, which relaxes each direction's window on its own."""
    rx, ry = direction
    if rx and ry:
        return 2 * height
    return width if ry == 0 else height


@pytest.mark.parametrize(("width", "height", "disparities"), [(20, 12, 8), (640, 480, 128)])
@pytest.mark.parametrize("layout", ["byte", "fold", "packed"])
def test_walk_steps_and_frame_scratch_are_pinned(monkeypatch, layout, width, height, disparities):
    # serial frames: each walk stage's _step calls, counted over one frame,
    # and at VGA the peak traced allocation of a second, warm frame.  At
    # VGA the stages take 640 and 480 calls, and each diagonal pair 960
    paths = {"byte": 2, "fold": 4, "packed": 8}[layout]
    params = SgmParams(disparities=disparities, p1=7, p2=84, paths=paths)
    assert _layout(paths, params.p2) == layout
    left, right = shifted_pair(width, height, 2, seed=24)
    calls = [0]
    step, run_tasks = aggregation._step, pipeline.run_tasks

    def counting_step(*operands):
        calls[0] += 1
        step(*operands)

    per_stage = []

    def counting_run_tasks(pool, buffers, tasks):
        before = calls[0]
        run_tasks(pool, buffers, tasks)
        per_stage.append(calls[0] - before)

    monkeypatch.setattr(aggregation, "_step", counting_step)
    monkeypatch.setattr(pipeline, "run_tasks", counting_run_tasks)
    with Executor(left, right, params, threads=1) as ex:
        ex.run()
        monkeypatch.undo()
        names = [name for name, _ in ex._stages]
        walks = [tasks[0][1]["direction"] for name, tasks in ex._stages if name.startswith("aggregate")]
        assert names == ["matching_cost", *_WALK_STAGES[paths], "selection", "median"]
        assert per_stage == [0, *(_walk_steps(d, height, width) for d in walks), 0, 0]
        if width < 640:
            return
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            ex.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peak - _FRAME_SCRATCH_BYTES) <= 0.05 * _FRAME_SCRATCH_BYTES, \
        f"peak {peak} B against {_FRAME_SCRATCH_BYTES} B, numpy {np.__version__}"


def _walked_cells(height: int, width: int, kwargs: dict) -> np.ndarray:
    """The cells one walk task writes, as a (height, width) mask: the cells
    of its lines [lo, hi), numbered as ``aggregate_lines`` numbers them
    (rows for horizontal, columns for vertical, and x - rx * ry * y from 0
    for a diagonal), here from each cell's coordinates."""
    rx, ry = kwargs["direction"]
    y, x = np.mgrid[:height, :width]
    if ry == 0:
        line = y
    else:
        shear = rx * ry
        line = x - shear * y + (height - 1 if shear > 0 else 0)
    return (kwargs["lo"] <= line) & (line < kwargs["hi"])


# byte sum (4 paths, p2 <= 32), fold (4, 84; 8, 7; 2, 150), packed (8, 84)
# and packed at 2 paths, which have no opposites; with p1 and the pairs each
# layout makes: every opposite pair pairs
_PAIR_CASES = [(4, 5, 30, 2), (4, 5, 84, 2), (8, 6, 7, 4), (2, 5, 150, 0), (8, 5, 84, 4), (2, 5, 200, 0)]


@pytest.mark.parametrize("disparities", [1, 5])
@pytest.mark.parametrize(("paths", "p1", "p2", "pairs"), _PAIR_CASES,
                         ids=["byte", "fold", "fold-8", "fold-2", "packed", "unpaired-packed"])
@pytest.mark.parametrize(("width", "height"), [(23, 17), (17, 23)])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_pooled_pairs_walk_disjoint_halves(monkeypatch, threads, width, height, paths, p1, p2, pairs,
                                           disparities):
    # odd frames give a pair's two directions unequal halves.  Every walk
    # stage, a direction with its opposite or a direction with no
    # opposite, cuts its lines into one band per worker, whose tasks walk
    # disjoint cells, together every cell once, and the stages walk every
    # cell once in each direction.  A serial executor walks the same
    # stages, every line in one task, in the pool's stage list
    if threads > 1 and not _pool_expected():
        pytest.skip("needs fork and two CPUs for a pool")
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    monkeypatch.setattr(pipeline, "default_threads", lambda: threads)
    left, right = shifted_pair(width, height, 2, seed=20)
    params = SgmParams(disparities=disparities, p1=p1, p2=p2, paths=paths)
    with Executor(left, right, params) as ex:
        serial = ex.run()
        serial_names = [name for name, _ in ex._stages]
    with Executor(left, right, params, threads=threads) as ex:
        assert ex.workers == threads
        assert (ex.pool is not None) == (threads > 1)
        disp = ex.run()
        assert [name for name, _ in ex._stages] == serial_names
        stages = [(name, tasks) for name, tasks in ex._stages if name.startswith("aggregate")]
        sums = {name: ex.buffers[name].astype(int) for name in ("mc", "cost_sum") if name in ex.buffers}
    assert (disp == serial).all()
    assert (disp == oracle_pipeline(left, right, params)).all()
    # the sums the stages left are exactly those of the whole walks
    costs = oracle_matching_cost(oracle_census(left), oracle_census(right), disparities)
    expected = sum(aggregate_path(costs, d, params).astype(int) for d in params.directions)
    layout = _layout(paths, p2)
    if layout == "packed":
        assert (sums["mc"] & ((1 << SUM_BITS) - 1) == expected).all()
    else:
        assert (sums["cost_sum"] + (sums["mc"] if layout == "fold" else 0) == expected).all()
    if layout == "fold":
        # each cell's last visit folded one residual beside paths * C into
        # "mc", and the byte volume holds the other paths - 1
        folded = sums["mc"] - paths * costs.astype(int)
        assert ((0 <= folded) & (folded <= p2)).all()
        assert (sums["cost_sum"] <= (paths - 1) * p2).all()
    assert sum("&" in name for name, _ in stages) == pairs and len(stages) == paths - pairs
    walked = {}
    for name, tasks in stages:
        assert len(tasks) == threads, name
        cells = [_walked_cells(height, width, kwargs) for _, kwargs in tasks]
        assert (sum(cells) == 1).all(), name
        for (_, kwargs), mask in zip(tasks, cells):
            rx, ry = kwargs["direction"]
            assert ("&" in name) == (kwargs["second"] is not None), name
            for d in [(rx, ry), (-rx, -ry)][: 1 + ("&" in name)]:
                walked[d] = walked.get(d, 0) + mask
    assert len(walked) == paths
    assert all((count == 1).all() for count in walked.values())


def _refuse_allocation(*args, **kwargs):
    raise AssertionError(f"a buffer was allocated: {args}")


def _refuse_every_allocation(monkeypatch):
    monkeypatch.setattr(np, "empty", _refuse_allocation)
    monkeypatch.setattr(pipeline, "shared_empty", _refuse_allocation)
    monkeypatch.setattr(pipeline, "ForkPool", _refuse_allocation)


def test_a_frame_that_cannot_fit_fails_before_anything_is_allocated(monkeypatch, tmp_path, capsys):
    # a broadcast 480x640 view allocates nothing; at D = 128 and 8 paths the
    # frame declares a uint16 cube and four byte planes, 76.17 MiB, at any
    # thread count; its cost tasks build one frame's census words, 2.34 MiB
    frame = np.broadcast_to(np.uint8(0), (480, 640))
    params = SgmParams(disparities=128, paths=8)
    declared = 2 * 480 * 640 * 128 + 4 * 480 * 640
    needed = declared + 2 * 4 * 480 * 640
    _refuse_every_allocation(monkeypatch)
    errors = []
    for available in (64 * 2**20, declared, needed - 1):
        monkeypatch.setattr(pipeline, "available_memory", lambda: available)
        for threads in (1, 2):
            with pytest.raises(ConfigError, match=r"need 78\.5 MiB, but only") as info:
                Executor(frame, frame, params, threads=threads)
            errors.append(str(info.value))
    assert errors[0] == errors[1] and "only 64.0 MiB" in errors[0]
    assert errors[2] == errors[3] and "only 76.2 MiB" in errors[2]
    assert errors[4] == errors[5] and "only 78.5 MiB" in errors[4]
    # exactly enough memory passes the check and reaches the first allocation
    monkeypatch.setattr(pipeline, "available_memory", lambda: needed)
    with pytest.raises(AssertionError, match="a buffer was allocated"):
        Executor(frame, frame, params)
    monkeypatch.undo()
    monkeypatch.setattr(pipeline, "available_memory", lambda: 0)
    lp, rp, op = _write_pair(tmp_path)
    assert cli.run(["--left", str(lp), "--right", str(rp), "--output", str(op), "--threads", "2"]) == 2
    assert "MiB of memory is available" in capsys.readouterr().err
    assert not op.exists()


def _fake_cgroups(monkeypatch, root, entries: str, files: dict) -> None:
    """Point the memory probe at a fake /proc/self/cgroup holding
    ``entries`` and a fake cgroup mount under ``root`` holding ``files``
    (path: content; content None makes a directory, which cannot be read)."""
    root.mkdir(exist_ok=True)
    (root / "cgroup").write_text(entries)
    for name, content in files.items():
        path = root / "fs" / name
        if content is None:
            path.mkdir(parents=True)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
    monkeypatch.setattr(pipeline, "_PROC_CGROUP", str(root / "cgroup"))
    monkeypatch.setattr(pipeline, "_CGROUP_ROOT", str(root / "fs"))


_V2 = "0::/app\n"
_V1 = "9:cpu,cpuacct:/\n4:memory:/jobs/x\n"
_CGROUP_CASES = [
    # cgroup v2: limit minus usage; "max" is no limit
    (_V2, {"app/memory.max": "1000000\n", "app/memory.current": "400000\n"}, 600_000),
    (_V2, {"app/memory.max": "max\n", "app/memory.current": "400000\n"}, None),
    # cgroup v1: an unlimited cgroup reads 2**63 - 1 rounded down to a page
    (_V1, {"memory/jobs/x/memory.limit_in_bytes": "5000\n", "memory/jobs/x/memory.usage_in_bytes": "1000\n"}, 4000),
    (_V1, {"memory/jobs/x/memory.limit_in_bytes": "9223372036854771712\n",
           "memory/jobs/x/memory.usage_in_bytes": "1000\n"}, None),
    # usage over the limit leaves nothing
    (_V1, {"memory/jobs/x/memory.limit_in_bytes": "5000\n", "memory/jobs/x/memory.usage_in_bytes": "6000\n"}, 0),
    # a hybrid host lists both; the smaller figure counts
    (_V1 + _V2, {"memory/jobs/x/memory.limit_in_bytes": "5000\n", "memory/jobs/x/memory.usage_in_bytes": "1000\n",
                 "app/memory.max": "3000\n", "app/memory.current": "0\n"}, 3000),
    # missing or unreadable files, garbage and other controllers are no limit
    (_V2, {}, None),
    (_V2, {"app/memory.max": None, "app/memory.current": "0\n"}, None),
    (_V1, {"memory/jobs/x/memory.limit_in_bytes": "5000\n"}, None),
    ("garbage\n9:cpu:/\n", {"memory.max": "10\n", "memory.current": "0\n"}, None),
    # ancestors count up to the root, and the smallest headroom wins: a
    # limit on the parent alone, v2 and v1, and on the v1 root
    ("0::/app/job\n", {"app/memory.max": "1000000\n", "app/memory.current": "400000\n",
                       "app/job/memory.max": "max\n", "app/job/memory.current": "100\n"}, 600_000),
    (_V1, {"memory/jobs/memory.limit_in_bytes": "5000\n", "memory/jobs/memory.usage_in_bytes": "1000\n",
           "memory/jobs/x/memory.limit_in_bytes": "9223372036854771712\n",
           "memory/jobs/x/memory.usage_in_bytes": "1000\n"}, 4000),
    (_V1, {"memory/memory.limit_in_bytes": "3000\n", "memory/memory.usage_in_bytes": "0\n",
           "memory/jobs/x/memory.limit_in_bytes": "5000\n", "memory/jobs/x/memory.usage_in_bytes": "1000\n"}, 3000),
    # a child tighter than its parent
    ("0::/app/job\n", {"app/memory.max": "10000\n", "app/memory.current": "5000\n",
                       "app/job/memory.max": "1000\n", "app/job/memory.current": "900\n"}, 100),
]


@pytest.mark.parametrize(("entries", "files", "left"), _CGROUP_CASES)
def test_the_memory_probe_reads_the_cgroup_limit(monkeypatch, tmp_path, entries, files, left):
    _fake_cgroups(monkeypatch, tmp_path, entries, files)
    assert pipeline.cgroup_memory_left() == left


def test_available_memory_is_the_smaller_of_the_host_and_the_cgroup_figure(monkeypatch, tmp_path):
    monkeypatch.setattr(pipeline, "_PROC_CGROUP", str(tmp_path / "missing"))
    assert pipeline.cgroup_memory_left() is None
    if pipeline.available_memory() is None:
        pytest.skip("the host reports no available memory")
    for left in (0, 12345):
        monkeypatch.setattr(pipeline, "cgroup_memory_left", lambda: left)
        assert pipeline.available_memory() == left
    # a cgroup figure above the host's leaves the host's MemAvailable
    monkeypatch.setattr(pipeline, "cgroup_memory_left", lambda: 2**61)
    assert 0 < pipeline.available_memory() < 2**61


def _refused_by_cgroup(monkeypatch, tmp_path, capsys, entries: str, limited: str) -> None:
    """A 64 MiB limit on the cgroup ``limited`` of a fake v2 tree, far below
    the host's MemAvailable, with 16 MiB in use, refuses the frame of the
    test above (78.5 MiB) serially and pooled before any allocation; at
    its limit it leaves no room for the CLI's small frame, which exits 2."""
    frame = np.broadcast_to(np.uint8(0), (480, 640))
    current = tmp_path / "cg" / "fs" / limited / "memory.current"
    _fake_cgroups(monkeypatch, tmp_path / "cg", entries,
                  {f"{limited}/memory.max": str(64 * 2**20), f"{limited}/memory.current": str(16 * 2**20)})
    _refuse_every_allocation(monkeypatch)
    for threads in (1, 2):
        with pytest.raises(ConfigError, match=r"need 78\.5 MiB, but only 48\.0 MiB of memory is available"):
            Executor(frame, frame, SgmParams(disparities=128, paths=8), threads=threads)
    monkeypatch.undo()
    current.write_text(str(64 * 2**20))
    _fake_cgroups(monkeypatch, tmp_path / "cg", entries, {})
    lp, rp, op = _write_pair(tmp_path)
    assert cli.run(["--left", str(lp), "--right", str(rp), "--output", str(op), "--threads", "2"]) == 2
    assert "but only 0.0 MiB of memory is available" in capsys.readouterr().err
    assert not op.exists()


def test_a_frame_over_the_cgroup_limit_fails_before_anything_is_allocated(monkeypatch, tmp_path, capsys):
    _refused_by_cgroup(monkeypatch, tmp_path, capsys, _V2, "app")


def test_a_limit_on_a_parent_cgroup_fails_the_frame_before_anything_is_allocated(monkeypatch, tmp_path, capsys):
    # the process's own cgroup sets no limit; its parent does
    _fake_cgroups(monkeypatch, tmp_path / "cg", "0::/app/job\n", {"app/job/memory.max": "max\n"})
    _refused_by_cgroup(monkeypatch, tmp_path, capsys, "0::/app/job\n", "app")


def test_an_oversized_frame_fails_against_the_real_memory_probe(monkeypatch):
    if pipeline.available_memory() is None:
        pytest.skip("the host reports no available memory")
    # about 18.8 TiB of buffers, declared by a view that allocates nothing
    frame = np.broadcast_to(np.uint8(0), (200_000, 200_000))
    _refuse_every_allocation(monkeypatch)
    for threads in (1, 2):
        with pytest.raises(ConfigError, match="MiB of memory is available"):
            Executor(frame, frame, SgmParams(disparities=256, paths=8), threads=threads)


def test_executor_reuse_is_stable():
    left, right = shifted_pair(24, 18, 3, seed=12)
    with Executor(left, right, SgmParams(disparities=8, paths=2)) as ex:
        first = ex.run()
        second = ex.run()
    assert (first == second).all()


@pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
def test_run_after_close_raises(monkeypatch, threads):
    # a closed executor used to run the frame in-process and return a map
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    left, right = shifted_pair(24, 18, 3, seed=12)
    ex = Executor(left, right, SgmParams(disparities=8, paths=2), threads=threads)
    assert (ex.pool is not None) == (threads == 2 and _pool_expected())
    ex.run()
    ex.close()
    with pytest.raises(RuntimeError, match="^executor is closed$"):
        ex.run()
    ex.close()  # closing again is harmless


def test_default_threads_counts_the_cpus_the_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pipeline.default_threads() == 1
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    left, right = shifted_pair(24, 18, 3, seed=12)
    params = SgmParams(disparities=8, paths=4)
    with Executor(left, right, params, threads=8) as ex:
        assert ex.pool is None and ex.workers == 1
        assert (ex.run() == compute_disparity(left, right, params)).all()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert pipeline.default_threads() == (os.cpu_count() or 1)


def test_no_median_differs_on_outlier_prone_input():
    left, right = shifted_pair(40, 30, 4, seed=13)
    params = SgmParams(disparities=16, paths=2)
    with_median = compute_disparity(left, right, params, median=True)
    without = compute_disparity(left, right, params, median=False)
    # interior equals the median of the unfiltered map's neighbourhood
    from sgmstereo import median_filter_3x3

    assert (median_filter_3x3(without) == with_median).all()


def _write_pair(tmp_path, width=36, height=26, shift=4, disparities=16):
    left, right = shifted_pair(width, height, shift, seed=20)
    lp, rp, op = tmp_path / "l.pgm", tmp_path / "r.pgm", tmp_path / "d.pgm"
    write_pgm(lp, left)
    write_pgm(rp, right)
    return lp, rp, op


def test_run_pipeline_writes_output(tmp_path):
    lp, rp, op = _write_pair(tmp_path)
    config = PipelineConfig(left=lp, right=rp, output=op, params=SgmParams(disparities=16), threads=1)
    result = run_pipeline(config)
    assert op.exists()
    assert result.evaluation is None and result.bench is None
    from sgmstereo import read_disparity

    assert (read_disparity(op) == result.disparity).all()


def test_run_pipeline_evaluates_against_gt(tmp_path):
    lp, rp, op = _write_pair(tmp_path, shift=4)
    gt = np.full((26, 36), 4, np.int32)
    gp = tmp_path / "gt.pgm"
    write_disparity(gp, gt)
    config = PipelineConfig(
        left=lp, right=rp, output=op, params=SgmParams(disparities=16), gt=gp, threads=1
    )
    result = run_pipeline(config)
    assert result.evaluation is not None
    assert result.evaluation.total == 26 * 36
    assert result.evaluation.accuracy > 0.8  # borders may miss, interior recovers


def test_benchmark_does_not_change_output(tmp_path):
    lp, rp, op = _write_pair(tmp_path)
    params = SgmParams(disparities=16)
    plain = run_pipeline(PipelineConfig(left=lp, right=rp, output=op, params=params, threads=1))
    benched = run_pipeline(
        PipelineConfig(left=lp, right=rp, output=op, params=params, threads=1, bench_iters=2)
    )
    assert benched.bench is not None
    assert benched.bench.iterations == 2
    # the fold walks each direction with its opposite, a stage a pair
    assert list(benched.bench.stage_ms) == ["matching_cost", *_WALK_STAGES[4], "selection", "median"]
    assert benched.bench.fps > 0
    assert (benched.disparity == plain.disparity).all()


def test_dimension_mismatch_is_config_error(tmp_path):
    left, _ = shifted_pair(20, 14, 0, seed=21)
    right = np.zeros((14, 24), np.uint8)
    lp, rp = tmp_path / "l.pgm", tmp_path / "r.pgm"
    write_pgm(lp, left)
    write_pgm(rp, right)
    config = PipelineConfig(
        left=lp, right=rp, output=tmp_path / "d.pgm", params=SgmParams(disparities=8), threads=1
    )
    with pytest.raises(ConfigError, match="dimension mismatch"):
        run_pipeline(config)


def test_gt_dimension_mismatch_is_config_error(tmp_path):
    lp, rp, op = _write_pair(tmp_path)
    gp = tmp_path / "gt.pgm"
    write_disparity(gp, np.zeros((10, 10), np.int32))
    config = PipelineConfig(
        left=lp, right=rp, output=op, params=SgmParams(disparities=16), gt=gp, threads=1
    )
    with pytest.raises(ConfigError, match="dimension mismatch"):
        run_pipeline(config)


def test_invalid_params_are_config_errors(tmp_path):
    lp, rp, op = _write_pair(tmp_path)
    with pytest.raises(ConfigError):
        SgmParams(paths=3)
    with pytest.raises(ConfigError):
        SgmParams(p1=9, p2=9)
    params = SgmParams(disparities=16)
    with pytest.raises(ConfigError):
        run_pipeline(PipelineConfig(left=lp, right=rp, output=op, params=params, bench_iters=-1, threads=1))
    with pytest.raises(ConfigError):
        run_pipeline(PipelineConfig(left=lp, right=rp, output=op, params=params, threads=0))


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_are_config_errors(threads):
    left, right = shifted_pair(20, 12, 2, seed=22)
    with pytest.raises(ConfigError, match="threads"):
        compute_disparity(left, right, SgmParams(disparities=4, paths=2), threads=threads)


@pytest.mark.parametrize("threads", [1.5, "2", True], ids=["float", "str", "bool"])
def test_threads_that_are_not_integers_are_config_errors(monkeypatch, threads):
    # with the pool engaged, 1.5 used to fail inside ForkPool and "2" with a
    # bare TypeError; True would run as one thread
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    left, right = shifted_pair(20, 12, 2, seed=22)
    with pytest.raises(ConfigError, match="threads"):
        compute_disparity(left, right, SgmParams(disparities=4, paths=2), threads=threads)


@pytest.mark.parametrize("params", [None, {"disparities": 4, "paths": 2}], ids=["none", "dict"])
@pytest.mark.parametrize("entry", [compute_disparity, Executor], ids=["compute_disparity", "Executor"])
def test_params_that_are_not_sgm_params_are_config_errors(entry, params):
    # both used to raise an AttributeError from deep inside the set-up
    left, right = shifted_pair(20, 12, 2, seed=22)
    with pytest.raises(ConfigError, match="params"):
        entry(left, right, params)


@pytest.mark.parametrize("value", [1.5, "2", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("name", ["bench_iters", "threshold"])
def test_run_pipeline_counts_that_are_not_integers_are_config_errors(tmp_path, name, value):
    # bench_iters=1.5 or "2" used to raise a bare TypeError and True to run
    # one timed frame; a non-integer threshold passed unchecked, and True
    # reached the metrics CSV as "True"
    lp, rp, op = _write_pair(tmp_path)
    config = PipelineConfig(left=lp, right=rp, output=op, params=SgmParams(disparities=16), threads=1,
                            **{name: value})
    with pytest.raises(ConfigError, match=name):
        run_pipeline(config)
    assert not op.exists()


def test_threads_take_numpy_integers(monkeypatch):
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    left, right = shifted_pair(20, 12, 2, seed=22)
    params = SgmParams(disparities=4, paths=2)
    with Executor(left, right, params, threads=np.int64(2)) as ex:
        assert type(ex.workers) is int
        assert (ex.pool is not None) == _pool_expected()
        assert (ex.run() == compute_disparity(left, right, params, threads=1)).all()


@pytest.mark.parametrize("median", [True, False], ids=["median", "raw"])
@pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
def test_largest_disparity_survives_the_byte_maps(monkeypatch, threads, median):
    # the pipeline's maps are bytes inside and int32 outside; a true shift of
    # 255 at D = 256 puts the largest index into the raw and the filtered map
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    rng = np.random.default_rng(23)
    height, width, shift = 5, 268, 255
    right = rng.integers(0, 256, (height, width), np.uint8)
    left = rng.integers(0, 256, (height, width), np.uint8)
    left[:, shift:] = right[:, : width - shift]
    params = SgmParams(disparities=256, paths=4)
    expected = oracle_pipeline(left, right, params, median=median)
    assert (expected[1:-1, 1:-1] == 255).any()
    disp = compute_disparity(left, right, params, median=median, threads=threads)
    assert disp.dtype == np.int32
    assert (disp == expected).all()


def test_params_store_numpy_integers_as_ints_and_reject_bools():
    params = SgmParams(disparities=np.int64(64), p1=np.uint8(5), p2=np.int32(60), paths=np.int16(8))
    assert params == SgmParams(disparities=64, p1=5, p2=60, paths=8)
    assert all(type(v) is int for v in (params.disparities, params.p1, params.p2, params.paths))
    for name in ("disparities", "p1", "p2", "paths"):
        for value in (True, np.True_, 2.0):
            with pytest.raises(ConfigError, match=f"{name} must be an integer"):
                SgmParams(**{name: value})


@pytest.mark.parametrize(
    ("shape", "dtype", "problem"),
    [((0, 8), np.uint8, "empty"), ((4, 8, 3), np.uint8, "2-d"), ((4, 8), np.float64, "uint8")],
    ids=["empty", "three-d", "float"],
)
def test_bad_images_are_config_errors(shape, dtype, problem):
    image = np.zeros(shape, dtype)
    with pytest.raises(ConfigError, match=problem):
        compute_disparity(image, image, SgmParams(disparities=4, paths=2))
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("median", ["no", 0, None], ids=["str", "int", "none"])
@pytest.mark.parametrize("entry", [compute_disparity, Executor], ids=["compute_disparity", "Executor"])
def test_median_that_is_not_a_bool_is_a_config_error(entry, median):
    # "no" and 2 used to run the filter, 0 and None to skip it
    left, right = shifted_pair(20, 12, 2, seed=22)
    with pytest.raises(ConfigError, match="median must be a bool"):
        entry(left, right, SgmParams(disparities=4, paths=2), median=median)


def test_median_takes_numpy_bools():
    left, right = shifted_pair(20, 12, 2, seed=22)
    params = SgmParams(disparities=4, paths=2)
    for median in (np.True_, np.False_):
        expected = compute_disparity(left, right, params, median=bool(median))
        assert (compute_disparity(left, right, params, median=median) == expected).all()
        with Executor(left, right, params, median=median) as ex:
            assert ("disp_out" in ex.buffers) == bool(median)
            assert (ex.run() == expected).all()


def test_bench_times_iterations_after_one_warmup_frame(tmp_path, monkeypatch):
    lp, rp, op = _write_pair(tmp_path)
    timed_calls = []
    original = Executor.run

    def counting_run(self, timings=None):
        timed_calls.append(timings is not None)
        return original(self, timings)

    monkeypatch.setattr(Executor, "run", counting_run)
    result = run_pipeline(
        PipelineConfig(
            left=lp, right=rp, output=op, params=SgmParams(disparities=16), threads=1, bench_iters=3
        )
    )
    assert timed_calls == [False, True, True, True]
    assert result.bench.iterations == 3
