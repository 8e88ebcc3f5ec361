"""End-to-end pipeline orchestration: census features and matching costs,
built together one row range at a time, path smoothing summed in at most
two bytes a cell, winner-takes-all selection and median filtering, with
optional evaluation against ground truth and compute-only benchmarking.

File I/O happens strictly outside the timed compute region.  Output maps are
bit-identical across worker counts: every stage is partitioned into tasks
that write disjoint regions with arithmetic that does not depend on the
partitioning.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .aggregation import aggregate_lines, line_count
from .census import census_rows
from .cost_volume import matching_cost_rows
from .disparity import median_rows, select_rows
from .evaluation import DEFAULT_THRESHOLD, EvalResult, bad_pixel_rate
from .image_io import read_disparity, read_pgm, write_disparity
from .params import ConfigError, Direction, SgmParams, as_array, as_int, sum_volumes
from .workers import Buffers, ForkPool, Task, fork_available, run_tasks, shared_empty, split_ranges


def default_threads() -> int:
    """The CPUs the process may run on: its affinity mask where the
    platform reports one, else the host's logical CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class PipelineConfig:
    left: str | Path
    right: str | Path
    output: str | Path
    params: SgmParams = SgmParams()
    median: bool = True
    gt: str | Path | None = None
    threshold: int = DEFAULT_THRESHOLD
    bench_iters: int = 0
    threads: int = field(default_factory=default_threads)


@dataclass(frozen=True)
class BenchReport:
    """Per-stage mean milliseconds and end-to-end throughput, measured over
    the compute region only (no file I/O), and the MiB of the Executor's
    buffers."""

    iterations: int
    threads: int
    stage_ms: dict[str, float]
    frame_ms: float
    fps: float
    buffer_mb: float

    def lines(self) -> list[str]:
        out = [f"bench: iterations={self.iterations} threads={self.threads}"]
        for name, ms in self.stage_ms.items():
            # a direction walked with its opposite reads "aggregate(+1,+0)&(-1,+0)"
            out.append(f"stage {name:<28s} mean {ms:8.3f} ms")
        out.append(f"end-to-end {self.frame_ms:.3f} ms/frame, {self.fps:.2f} fps, "
                   f"buffers {self.buffer_mb:.2f} MiB")
        return out


@dataclass(frozen=True)
class PipelineResult:
    disparity: np.ndarray
    evaluation: EvalResult | None = None
    bench: BenchReport | None = None


def available_memory() -> int | None:
    """Bytes of memory available to the process's new allocations: the
    smaller of what the kernel reports as available (``MemAvailable`` in
    /proc/meminfo) and what the memory limits of the process's cgroups
    leave (see ``cgroup_memory_left``), or None where neither can be
    read."""
    left = cgroup_memory_left()
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    host = int(line.split()[1]) * 1024
                    return host if left is None else min(host, left)
    except OSError:
        pass
    return left


# where the process finds its cgroups and the cgroup file systems are mounted
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"
# a v1 memory.limit_in_bytes this large means no limit: an unlimited cgroup
# reads 2**63 - 1 rounded down to a page, 9223372036854771712 at 4 KiB
_NO_LIMIT = 2**62


def cgroup_memory_left() -> int | None:
    """Bytes the memory limits of the process's cgroups leave unused: the
    smallest headroom over its own cgroup and every ancestor up to the
    root, ``memory.max`` minus ``memory.current`` under cgroup v2 and
    ``memory.limit_in_bytes`` minus ``memory.usage_in_bytes`` under v1,
    where both are mounted over both.  None where no limit is set (``max``,
    or a v1 limit near 2**63) or the files cannot be read.  Usage counts
    the cgroups' page cache, so this can understate what reclaim would
    free."""
    try:
        with open(_PROC_CGROUP) as entries:
            lines = entries.read().splitlines()
    except OSError:
        return None
    left = []
    for line in lines:
        # "hierarchy-ID:controller-list:cgroup-path"; v2 is "0::path"
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        _, controllers, path = fields
        if controllers == "":
            base, limit_file, usage_file = _CGROUP_ROOT, "memory.max", "memory.current"
        elif "memory" in controllers.split(","):
            base = f"{_CGROUP_ROOT}/memory"
            limit_file, usage_file = "memory.limit_in_bytes", "memory.usage_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts), -1, -1):  # the cgroup, its parent, ..., the root
            directory = Path(base, *parts[:depth])
            try:
                limit = int((directory / limit_file).read_text())
                if limit < _NO_LIMIT:
                    left.append(max(0, limit - int((directory / usage_file).read_text())))
            except (OSError, ValueError):  # missing, unreadable, or "max"
                continue
    return min(left, default=None)


def _direction_name(*directions: Direction) -> str:
    return "aggregate" + "&".join(f"({rx:+d},{ry:+d})" for rx, ry in directions)


def _opposite(direction: Direction) -> Direction:
    return (-direction[0], -direction[1])


# Stage task functions: module-level so the pool can pickle them by name,
# first argument is the shared buffer dict.

def _mc_task(bufs: Buffers, y0: int, y1: int) -> None:
    # a row's costs read only that row's census words, and the words of any
    # row range are the same however the rows are cut: no shared planes
    census = np.empty((2, y1 - y0, bufs["left"].shape[1]), np.uint32)
    census_rows(bufs["left"], census[0], y0, y1)
    census_rows(bufs["right"], census[1], y0, y1)
    matching_cost_rows(*census, bufs["mc"][y0:y1], 0, y1 - y0)


def _aggregate_task(bufs: Buffers, direction: Direction, p1: int, p2: int, lo: int, hi: int,
                    dst: str, add: bool, costs: int, second: tuple[str, bool, int] | None = None) -> None:
    # with ``second``, the opposite direction walks the same lines in lockstep
    then = None if second is None else (bufs[second[0]], *second[1:])
    aggregate_lines(bufs["mc"], bufs[dst], direction, p1, p2, lo, hi, add, costs, then)


def _select_task(bufs: Buffers, sums: tuple[str, ...], y0: int, y1: int) -> None:
    select_rows([bufs[name] for name in sums], bufs["disp_raw"], y0, y1)


def _median_task(bufs: Buffers, y0: int, y1: int) -> None:
    bufs["disp_out"][y0:y1] = bufs["disp_raw"][y0:y1]  # borders pass through
    median_rows(bufs["disp_raw"], bufs["disp_out"], y0, y1)


class Executor:
    """Holds the buffers, the stage list and the optional worker pool for
    repeated runs on one image pair; reused across benchmark iterations.
    ``median``, a Python or numpy bool, adds the median stage; any other
    value raises ``ConfigError``, as do the argument checks
    ``compute_disparity`` lists.

    ``buffers`` holds only what crosses stages: the images ``"left"`` and
    ``"right"``, the cost cube ``"mc"``, the byte volume ``"cost_sum"``
    unless the cells are packed, ``"disp_raw"`` and, with the median,
    ``"disp_out"``.  How the directions are summed sets the cube's layout
    (see ``params.sum_volumes``).  After ``run()``, ``"mc"`` holds the
    matching costs C in bytes beside the sums in ``"cost_sum"``; or, where
    each cell's last visit folds into it, one residual r plus paths * C; or
    uint16 cells that hold C in their cost bits above the sum over every
    direction.

    The stages are built once, each a name and the tasks that write its
    disjoint parts: census words and costs, the walks, selection and the
    median.  Every executor builds the same stage list.  A direction and
    its opposite walk as one stage, in lockstep over the same lines, so
    each step relaxes both fronts in one call; a direction with no
    opposite, as at 2 paths, is a stage of its own.  A pool changes only
    the tasks: it cuts each row stage into one row range per worker and
    each walk stage into one band of lines per worker, so a pooled stage
    runs at most one task per worker.  ``run()`` runs the stages in order,
    so every frame rebuilds C first.  Buffers that would not fit, with the
    census words a frame's cost tasks build, in the memory available to the
    process (``available_memory``: the host's ``MemAvailable``, or less
    where the limits of the process's cgroup and its ancestors leave less)
    raise ``ConfigError`` before any allocation.  Not counted: the tasks'
    own scratch, the cost tasks' blocks of at most 1 MiB or one row's
    4 * W * D bytes, and a walk's state, relax planes and block buffers,
    under 2 MiB a task at 640x480 and D=128.
    """

    # below this many volume cells the fork/dispatch overhead outweighs any
    # speedup; the output is identical either way
    MIN_PARALLEL_CELLS = 2_000_000

    def __init__(self, left: np.ndarray, right: np.ndarray, params: SgmParams,
                 median: bool = True, threads: int = 1):
        if not isinstance(params, SgmParams):
            raise ConfigError(f"params must be an SgmParams, got {params!r}")
        threads = as_int("threads", threads, 1)
        if not isinstance(median, (bool, np.bool_)):
            raise ConfigError(f"median must be a bool, got {median!r}")
        left = as_array("left", left, 2, np.uint8)
        right = as_array("right", right, 2, np.uint8, like=("left", left))
        self.median = median
        self.closed = False
        height, width = left.shape
        volume = (height, width, params.disparities)
        # processes beyond the CPUs the process may run on are pure overhead
        self.workers = min(threads, default_threads())
        parallel = self.workers > 1 and fork_available() and math.prod(volume) >= self.MIN_PARALLEL_CELLS
        if not parallel:
            self.workers = 1

        # S(p, d), the sum over directions of the smoothed costs: in one byte
        # volume where a byte holds it, or there with each cell's last visit
        # folded into "mc", or in the sum bits of "mc"; see params.sum_volumes
        layout = sum_volumes(params.directions, params.p2)
        packed, fold = layout == "packed", layout == "fold"
        frame = (height, width)
        declared: dict[str, tuple[tuple[int, ...], type]] = {
            "left": (frame, np.uint8),
            "right": (frame, np.uint8),
            "mc": (volume, np.uint16 if packed else np.uint8),
            # disparity indices are below D <= 256: bytes, widened on return
            "disp_raw": (frame, np.uint8),
        }
        if not packed:
            declared["cost_sum"] = (volume, np.uint8)
        if median:
            declared["disp_out"] = (frame, np.uint8)
        # plus the census words of the rows in flight (one frame's at most,
        # the whole frame's serially): counted for any thread count, so
        # every thread count needs the same memory
        needed = sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in declared.values())
        needed += 2 * 4 * height * width
        available = available_memory()
        if available is not None and needed > available:
            raise ConfigError(f"the frame's buffers and census words need {needed / 2**20:.1f} MiB, "
                              f"but only {available / 2**20:.1f} MiB of memory is available")
        alloc = shared_empty if parallel else np.empty
        bufs = {name: alloc(shape, dtype) for name, (shape, dtype) in declared.items()}
        np.copyto(bufs["left"], left)
        np.copyto(bufs["right"], right)
        self.buffers = bufs

        # the walk stages: a direction and its opposite walk each band of
        # lines in lockstep as one stage, and a direction with no opposite,
        # as at 2 paths, walks alone.  Each direction visits every cell once,
        # so a visit's place among a cell's paths visits sets what it does
        # to the sum.  Into packed cells, whose sums start at 0, every visit
        # adds.  Into the byte volume, the first visit writes and the others
        # add: residuals when folding, else smoothed costs; but when
        # folding, the last visit turns the cell's cost C in "mc" into
        # r + paths * C, which no later visit reads.  A walk stage cuts its
        # lines into one band per worker and a row stage its rows into one
        # range per worker: at most one task per worker a stage
        def visit(v: int) -> tuple[str, bool, int]:
            if fold and v == params.paths - 1:
                return "mc", False, params.paths
            return "mc" if packed else "cost_sum", packed or v > 0, 0 if fold else 1

        sums = ("mc",) if packed else ("cost_sum", "mc") if fold else ("cost_sum",)
        rows = split_ranges(height, self.workers)
        # census words and matching costs, one row range per task
        self._stages: list[tuple[str, list[Task]]] = [
            ("matching_cost", [(_mc_task, dict(y0=y0, y1=y1)) for y0, y1 in rows])]
        walked: list[Direction] = []  # one visit of every cell each
        for d in params.directions:
            if d in walked:
                continue  # with its opposite
            pair = (d, _opposite(d)) if _opposite(d) in params.directions else (d,)
            dst, add, costs = visit(len(walked))
            second = visit(len(walked) + 1) if len(pair) == 2 else None
            walked += pair
            self._stages.append((_direction_name(*pair), [
                (_aggregate_task, dict(direction=d, p1=params.p1, p2=params.p2, lo=lo, hi=hi, dst=dst, add=add,
                                       costs=costs, second=second))
                for lo, hi in split_ranges(line_count(height, width, d), self.workers)]))
        self._stages.append(("selection", [(_select_task, dict(sums=sums, y0=y0, y1=y1)) for y0, y1 in rows]))
        if median:
            self._stages.append(("median", [(_median_task, dict(y0=y0, y1=y1)) for y0, y1 in rows]))

        # fork only after every shared buffer exists so children inherit them
        self.pool = ForkPool(self.workers, bufs) if parallel else None

    def close(self) -> None:
        self.closed = True
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, timings: dict[str, float] | None = None) -> np.ndarray:
        """One full compute pass; returns the disparity map as a new int32
        array.  Raises RuntimeError after ``close()``."""
        if self.closed:
            raise RuntimeError("executor is closed")
        for name, tasks in self._stages:
            t0 = time.perf_counter()
            run_tasks(self.pool, self.buffers, tasks)
            if timings is not None:
                timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0
        return self.buffers["disp_out" if self.median else "disp_raw"].astype(np.int32)


def compute_disparity(
    left: np.ndarray,
    right: np.ndarray,
    params: SgmParams,
    median: bool = True,
    threads: int = 1,
) -> np.ndarray:
    """Library entry point: disparity map for an in-memory image pair.

    Raises :class:`ConfigError` (a ``ValueError``) unless ``params`` is an
    :class:`SgmParams`, both images are non-empty 2-d uint8 arrays of the
    same shape, ``median`` is a Python or numpy bool (the 3x3 median runs
    when it is true) and ``threads`` is an integer >= 1.
    """
    with Executor(left, right, params, median=median, threads=threads) as ex:
        return ex.run()


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run the configured pipeline: load the pair, compute (optionally many
    times for benchmarking), write the disparity map, evaluate if ground
    truth is given.  ``bench_iters`` and ``threshold`` must be integers
    >= 0 and the ground truth, when given, of the images' shape, else
    ConfigError."""
    bench_iters = as_int("bench_iters", config.bench_iters, 0)
    threshold = as_int("threshold", config.threshold, 0)

    left = read_pgm(config.left)
    right = read_pgm(config.right)
    gt = None if config.gt is None else as_array("gt", read_disparity(config.gt), 2, np.integer, like=("left", left))

    bench: BenchReport | None = None
    with Executor(left, right, config.params, median=config.median, threads=config.threads) as ex:
        if bench_iters > 0:
            ex.run()  # untimed warm-up: the first frame pays page faults and cold caches
            timings: dict[str, float] = {}
            t0 = time.perf_counter()
            for _ in range(bench_iters):
                disparity = ex.run(timings)
            elapsed = time.perf_counter() - t0
            stage_ms = {name: 1000.0 * sec / bench_iters for name, sec in timings.items()}
            bench = BenchReport(
                iterations=bench_iters,
                threads=ex.workers,
                stage_ms=stage_ms,
                frame_ms=1000.0 * elapsed / bench_iters,
                fps=bench_iters / elapsed,
                buffer_mb=sum(b.nbytes for b in ex.buffers.values()) / 2**20,
            )
        else:
            disparity = ex.run()

    write_disparity(config.output, disparity)
    evaluation = None
    if gt is not None:
        evaluation = bad_pixel_rate(disparity, gt, threshold=threshold)
    return PipelineResult(disparity=disparity, evaluation=evaluation, bench=bench)
