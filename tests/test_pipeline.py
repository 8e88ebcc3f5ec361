import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgmstereo import (
    ConfigError,
    PipelineConfig,
    SgmParams,
    compute_disparity,
    run_pipeline,
    shift_recovery_mask,
    shifted_pair,
    write_disparity,
    write_pgm,
)
from sgmstereo import pipeline
from sgmstereo.oracle import oracle_pipeline
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
        if fork_available() and (os.cpu_count() or 1) >= 2:
            assert ex.pool is not None
        disp = ex.run()
    assert (disp == oracle_pipeline(left, right, params)).all()


def _pool_expected() -> bool:
    return fork_available() and (os.cpu_count() or 1) >= 2


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
@settings(deadline=None, max_examples=20)
def test_forced_pool_matches_oracle_on_random_pairs(seed, width, height, disparities, paths):
    # extents of at most 12 rows and columns fall below the 8 row tasks and,
    # at width 1, the 2 column chunks of a 2-worker pool
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


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
def test_reused_executor_recomputes_the_sum_for_a_new_pair(monkeypatch, pooled):
    # a direction that leaves cells of the summed volume untouched would keep
    # the previous pair's sums there, which a fresh Executor cannot show
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    first = shifted_pair(23, 17, 3, seed=18)
    second = shifted_pair(23, 17, 6, seed=19)
    params = SgmParams(disparities=8, p1=5, p2=60, paths=8)
    expected = compute_disparity(*second, params)
    with Executor(*first, params, threads=2 if pooled else 1) as ex:
        assert (ex.pool is not None) == (pooled and _pool_expected())
        assert not (ex.run() == expected).all()
        np.copyto(ex.buffers["left"], second[0])
        np.copyto(ex.buffers["right"], second[1])
        assert (ex.run() == expected).all()


def test_buffers_hold_one_summed_volume_for_every_path_set():
    left, right = shifted_pair(20, 12, 2, seed=17)
    buffer_bytes = set()
    for paths in (2, 4, 8):
        with Executor(left, right, SgmParams(disparities=8, paths=paths)) as ex:
            volumes = {name: (b.shape, b.dtype) for name, b in ex.buffers.items() if b.ndim == 3}
            buffer_bytes.add(sum(b.nbytes for b in ex.buffers.values()))
        assert volumes == {"mc": ((12, 20, 8), np.uint8), "cost_sum": ((12, 20, 8), np.uint16)}, paths
    assert len(buffer_bytes) == 1


def test_pool_splits_row_stages_into_several_tasks_per_worker(monkeypatch):
    if not fork_available() or (os.cpu_count() or 1) < 2:
        pytest.skip("needs fork and two CPUs for a pool")
    left, right = shifted_pair(40, 30, 4, seed=16)
    params = SgmParams(disparities=16, paths=4)
    serial = compute_disparity(left, right, params, threads=1)
    monkeypatch.setattr(Executor, "MIN_PARALLEL_CELLS", 0)
    batches = []
    original = pipeline.run_tasks

    def recording_run_tasks(pool, buffers, tasks):
        batches.append(len(tasks))
        return original(pool, buffers, tasks)

    monkeypatch.setattr(pipeline, "run_tasks", recording_run_tasks)
    with Executor(left, right, params, threads=2) as ex:
        assert ex.pool is not None
        disp = ex.run()
    assert (disp == serial).all()
    rows = Executor.ROW_TASKS_PER_WORKER * 2
    # census (two images), cost, four axis directions (a chunk per worker),
    # selection, median
    assert batches == [2 * rows, rows, 2, 2, 2, 2, rows, rows]


def test_executor_reuse_is_stable():
    left, right = shifted_pair(24, 18, 3, seed=12)
    with Executor(left, right, SgmParams(disparities=8, paths=2)) as ex:
        first = ex.run()
        second = ex.run()
    assert (first == second).all()


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
    config = PipelineConfig(left=lp, right=rp, output=op, disparities=16, threads=1)
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
    config = PipelineConfig(left=lp, right=rp, output=op, disparities=16, gt=gp, threads=1)
    result = run_pipeline(config)
    assert result.evaluation is not None
    assert result.evaluation.total == 26 * 36
    assert result.evaluation.accuracy > 0.8  # borders may miss, interior recovers


def test_benchmark_does_not_change_output(tmp_path):
    lp, rp, op = _write_pair(tmp_path)
    plain = run_pipeline(PipelineConfig(left=lp, right=rp, output=op, disparities=16, threads=1))
    benched = run_pipeline(
        PipelineConfig(left=lp, right=rp, output=op, disparities=16, threads=1, bench_iters=2)
    )
    assert benched.bench is not None
    assert benched.bench.iterations == 2
    assert set(benched.bench.stage_ms) == {
        "census", "matching_cost", "aggregate(+1,+0)", "aggregate(+0,+1)",
        "aggregate(-1,+0)", "aggregate(+0,-1)", "selection", "median",
    }
    assert benched.bench.fps > 0
    assert (benched.disparity == plain.disparity).all()


def test_dimension_mismatch_is_config_error(tmp_path):
    left, _ = shifted_pair(20, 14, 0, seed=21)
    right = np.zeros((14, 24), np.uint8)
    lp, rp = tmp_path / "l.pgm", tmp_path / "r.pgm"
    write_pgm(lp, left)
    write_pgm(rp, right)
    config = PipelineConfig(left=lp, right=rp, output=tmp_path / "d.pgm", disparities=8, threads=1)
    with pytest.raises(ConfigError, match="dimension mismatch"):
        run_pipeline(config)


def test_gt_dimension_mismatch_is_config_error(tmp_path):
    lp, rp, op = _write_pair(tmp_path)
    gp = tmp_path / "gt.pgm"
    write_disparity(gp, np.zeros((10, 10), np.int32))
    config = PipelineConfig(left=lp, right=rp, output=op, disparities=16, gt=gp, threads=1)
    with pytest.raises(ConfigError, match="dimension mismatch"):
        run_pipeline(config)


def test_invalid_params_are_config_errors(tmp_path):
    lp, rp, op = _write_pair(tmp_path)
    with pytest.raises(ConfigError):
        run_pipeline(PipelineConfig(left=lp, right=rp, output=op, paths=3, threads=1))
    with pytest.raises(ConfigError):
        run_pipeline(PipelineConfig(left=lp, right=rp, output=op, p1=9, p2=9, threads=1))
    with pytest.raises(ConfigError):
        run_pipeline(PipelineConfig(left=lp, right=rp, output=op, disparities=16, bench_iters=-1, threads=1))
    with pytest.raises(ConfigError):
        run_pipeline(PipelineConfig(left=lp, right=rp, output=op, disparities=16, threads=0))


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


def test_bench_times_iterations_after_one_warmup_frame(tmp_path, monkeypatch):
    lp, rp, op = _write_pair(tmp_path)
    timed_calls = []
    original = Executor.run

    def counting_run(self, timings=None):
        timed_calls.append(timings is not None)
        return original(self, timings)

    monkeypatch.setattr(Executor, "run", counting_run)
    result = run_pipeline(
        PipelineConfig(left=lp, right=rp, output=op, disparities=16, threads=1, bench_iters=3)
    )
    assert timed_calls == [False, True, True, True]
    assert result.bench.iterations == 3
