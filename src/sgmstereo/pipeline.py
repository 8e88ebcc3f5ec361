"""End-to-end pipeline orchestration: census features, matching cost,
path smoothing summed into one cost volume, winner-takes-all selection and
median filtering, with optional evaluation against ground truth and
compute-only benchmarking.

File I/O happens strictly outside the timed compute region.  Output maps are
bit-identical across worker counts: every stage is partitioned into tasks
that write disjoint regions with arithmetic that does not depend on the
partitioning.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .aggregation import aggregate_lines
from .census import census_rows
from .cost_volume import matching_cost_rows
from .disparity import median_rows, select_rows
from .evaluation import DEFAULT_THRESHOLD, EvalResult, bad_pixel_rate
from .image_io import read_disparity, read_pgm, write_disparity
from .params import Direction, SgmParams
from .workers import Buffers, ForkPool, Task, fork_available, run_tasks, shared_empty, split_ranges


class ConfigError(ValueError):
    """Invalid pipeline configuration or inconsistent inputs."""


def default_threads() -> int:
    return os.cpu_count() or 1


@dataclass(frozen=True)
class PipelineConfig:
    left: str | Path
    right: str | Path
    output: str | Path
    disparities: int = 128
    paths: int = 4
    p1: int = 7
    p2: int = 84
    median: bool = True
    gt: str | Path | None = None
    threshold: int = DEFAULT_THRESHOLD
    bench_iters: int = 0
    threads: int = field(default_factory=default_threads)


@dataclass(frozen=True)
class BenchReport:
    """Per-stage mean milliseconds and end-to-end throughput, measured over
    the compute region only (no file I/O)."""

    iterations: int
    threads: int
    stage_ms: dict[str, float]
    frame_ms: float
    fps: float

    def lines(self) -> list[str]:
        out = [f"bench: iterations={self.iterations} threads={self.threads}"]
        for name, ms in self.stage_ms.items():
            out.append(f"stage {name:<18s} mean {ms:8.3f} ms")
        out.append(f"end-to-end {self.frame_ms:.3f} ms/frame, {self.fps:.2f} fps")
        return out


@dataclass(frozen=True)
class PipelineResult:
    disparity: np.ndarray
    evaluation: EvalResult | None = None
    bench: BenchReport | None = None


def _direction_name(direction: Direction) -> str:
    return f"aggregate({direction[0]:+d},{direction[1]:+d})"


# Stage task functions: module-level so the pool can pickle them by name,
# first argument is the shared buffer dict.

def _census_task(bufs: Buffers, src: str, dst: str, y0: int, y1: int) -> None:
    census_rows(bufs[src], bufs[dst], y0, y1)


def _mc_task(bufs: Buffers, y0: int, y1: int) -> None:
    matching_cost_rows(bufs["census_left"], bufs["census_right"], bufs["mc"], y0, y1)


def _aggregate_task(bufs: Buffers, direction: Direction, p1: int, p2: int, lo: int, hi: int, add: bool) -> None:
    aggregate_lines(bufs["mc"], bufs["cost_sum"], direction, p1, p2, lo, hi, add)


def _select_task(bufs: Buffers, y0: int, y1: int) -> None:
    select_rows([bufs["cost_sum"]], bufs["disp_raw"], y0, y1)


def _median_task(bufs: Buffers, y0: int, y1: int) -> None:
    median_rows(bufs["disp_raw"], bufs["disp_out"], y0, y1)


class Executor:
    """Holds the buffers and optional worker pool for repeated runs on one
    image pair; reused across benchmark iterations."""

    # below this many volume cells the fork/dispatch overhead outweighs any
    # speedup; the output is identical either way
    MIN_PARALLEL_CELLS = 2_000_000
    # pooled row stages are cut into this many tasks per worker.  Workers
    # pull tasks from one queue, so a worker that loses its CPU for a while
    # (a busy host, another process) leaves its remaining share to the
    # others instead of holding up the whole stage
    ROW_TASKS_PER_WORKER = 4

    def __init__(self, left: np.ndarray, right: np.ndarray, params: SgmParams,
                 median: bool = True, threads: int = 1):
        left, right = np.asarray(left), np.asarray(right)
        for name, image in (("left", left), ("right", right)):
            if image.ndim != 2:
                raise ConfigError(f"{name} image must be 2-d grayscale, got shape {image.shape}")
            if image.size == 0:
                raise ConfigError(f"{name} image is empty, shape {image.shape}")
            if image.dtype != np.uint8:
                raise ConfigError(f"{name} image must be uint8, got {image.dtype}")
        if left.shape != right.shape:
            raise ConfigError(f"dimension mismatch: left {left.shape} vs right {right.shape}")
        self.params = params
        self.median = median
        self.height, self.width = left.shape
        cells = self.height * self.width * params.disparities
        # processes beyond the host's logical CPUs are pure overhead
        self.workers = min(max(1, threads), default_threads())
        self._parallel = self.workers > 1 and fork_available() and cells >= self.MIN_PARALLEL_CELLS
        if not self._parallel:
            self.workers = 1
        alloc = shared_empty if self._parallel else (lambda shape, dtype: np.empty(shape, dtype))

        height, width, disparities = self.height, self.width, params.disparities
        bufs: dict[str, np.ndarray] = {
            "left": alloc((height, width), np.uint8),
            "right": alloc((height, width), np.uint8),
            "census_left": alloc((height, width), np.uint32),
            "census_right": alloc((height, width), np.uint32),
            "mc": alloc((height, width, disparities), np.uint8),
            # S(p, d): the sum over directions of the smoothed costs, at most
            # 8 * 255, so 16 bits are exact
            "cost_sum": alloc((height, width, disparities), np.uint16),
            "disp_raw": alloc((height, width), np.int32),
            "disp_out": alloc((height, width), np.int32),
        }
        np.copyto(bufs["left"], left)
        np.copyto(bufs["right"], right)
        self.buffers = bufs
        # fork only after every shared buffer exists so children inherit them
        self.pool = ForkPool(self.workers, bufs) if self._parallel else None
        self._chunks = self.workers if self._parallel else 1
        self._row_chunks = self.ROW_TASKS_PER_WORKER * self.workers if self._parallel else 1

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _aggregation_tasks(self, direction: Direction, add: bool) -> list[Task]:
        rx, ry = direction
        p1, p2 = self.params.p1, self.params.p2
        extent = self.height if ry == 0 else self.width
        # diagonal fronts span whole rows; the direction runs as one task
        chunks = 1 if rx != 0 and ry != 0 else self._chunks
        return [
            (_aggregate_task, dict(direction=direction, p1=p1, p2=p2, lo=lo, hi=hi, add=add))
            for lo, hi in split_ranges(extent, chunks)
        ]

    def run(self, timings: dict[str, float] | None = None) -> np.ndarray:
        """One full compute pass; returns a copy of the disparity map."""
        bufs = self.buffers
        rows = split_ranges(self.height, self._row_chunks)

        def timed(name: str, tasks: list[Task]) -> None:
            t0 = time.perf_counter()
            run_tasks(self.pool, bufs, tasks)
            if timings is not None:
                timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0

        census_tasks = [
            (_census_task, dict(src=src, dst=dst, y0=y0, y1=y1))
            for src, dst in (("left", "census_left"), ("right", "census_right"))
            for y0, y1 in rows
        ]
        timed("census", census_tasks)
        timed("matching_cost", [(_mc_task, dict(y0=y0, y1=y1)) for y0, y1 in rows])
        # the first direction overwrites every cell of the sum, the others add
        # to it; the tasks of one direction touch disjoint cells
        for i, direction in enumerate(self.params.directions):
            timed(_direction_name(direction), self._aggregation_tasks(direction, add=i > 0))
        timed("selection", [(_select_task, dict(y0=y0, y1=y1)) for y0, y1 in rows])
        if self.median:
            t0 = time.perf_counter()
            np.copyto(bufs["disp_out"], bufs["disp_raw"])  # borders pass through
            run_tasks(self.pool, bufs, [(_median_task, dict(y0=y0, y1=y1)) for y0, y1 in rows])
            if timings is not None:
                timings["median"] = timings.get("median", 0.0) + time.perf_counter() - t0
            return bufs["disp_out"].copy()
        return bufs["disp_raw"].copy()


def compute_disparity(
    left: np.ndarray,
    right: np.ndarray,
    params: SgmParams,
    median: bool = True,
    threads: int = 1,
) -> np.ndarray:
    """Library entry point: disparity map for an in-memory image pair.

    Raises :class:`ConfigError` (a ``ValueError``) unless both images are
    non-empty 2-d uint8 arrays of the same shape.
    """
    with Executor(left, right, params, median=median, threads=threads) as ex:
        return ex.run()


def _validated_params(config: PipelineConfig) -> SgmParams:
    try:
        return SgmParams(
            disparities=config.disparities, p1=config.p1, p2=config.p2, paths=config.paths
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run the configured pipeline: load the pair, compute (optionally many
    times for benchmarking), write the disparity map, evaluate if ground
    truth is given."""
    params = _validated_params(config)
    if config.bench_iters < 0:
        raise ConfigError(f"bench_iters must be >= 0, got {config.bench_iters}")
    if config.threshold < 0:
        raise ConfigError(f"threshold must be >= 0, got {config.threshold}")
    if config.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {config.threads}")

    left = read_pgm(config.left)
    right = read_pgm(config.right)
    gt = read_disparity(config.gt) if config.gt is not None else None
    if gt is not None and gt.shape != left.shape:
        raise ConfigError(f"dimension mismatch: ground truth {gt.shape} vs images {left.shape}")

    bench: BenchReport | None = None
    with Executor(left, right, params, median=config.median, threads=config.threads) as ex:
        if config.bench_iters > 0:
            ex.run()  # untimed warm-up: the first frame pays page faults and cold caches
            timings: dict[str, float] = {}
            t0 = time.perf_counter()
            for _ in range(config.bench_iters):
                disparity = ex.run(timings)
            elapsed = time.perf_counter() - t0
            stage_ms = {name: 1000.0 * sec / config.bench_iters for name, sec in timings.items()}
            bench = BenchReport(
                iterations=config.bench_iters,
                threads=ex.workers,
                stage_ms=stage_ms,
                frame_ms=1000.0 * elapsed / config.bench_iters,
                fps=config.bench_iters / elapsed,
            )
        else:
            disparity = ex.run()

    write_disparity(config.output, disparity)
    evaluation = None
    if gt is not None:
        evaluation = bad_pixel_rate(disparity, gt, threshold=config.threshold)
    return PipelineResult(disparity=disparity, evaluation=evaluation, bench=bench)
