"""Per-layer metrics of one traced run (``--trace 1``).

Three sources, all timed from the benchmark's side of a module boundary:

* the workload's own frame loop under ``tracing.instrument``: pipeline,
  worker-stage, image I/O, evaluation and CLI spans;
* a stage pass that calls the public stage functions (``census_transform``,
  ``matching_cost``, ``aggregate_path``, ``select_disparity``,
  ``median_filter_3x3``) serially on the workload's frames;
* probes for what the frame loop cannot show: ``ForkPool`` start, close and
  round trip, host copy bandwidth, serial 8-path frames at the workload's
  size (the numerator of ``workers.diagonal_speedup``), and, on workloads
  whose frames never run pooled diagonals or the CLI, probe frames that do.
  The run record lists which metrics came from probes.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from checks import Checker
from scene import Scene
from sgmstereo import (PATH_SETS, SgmParams, aggregate_path, census_transform, matching_cost,
                       median_filter_3x3, pipeline, select_disparity)
from sgmstereo.workers import ForkPool
from spec import CYCLE, Workload
from tracing import Tracer, duration
from workloads import CliClient, Run

DIAGONALS = PATH_SETS[8][4:]
STAGE_PASSES = 2
PROBE_WORKERS = 2
PROBE_FRAMES = 4  # warm traced frames per diagonal probe
FORK_REPS = 5
DISPATCH_TRIPS = 200
MEMCPY_REPS = 5


def _direction_class(direction) -> str:
    rx, ry = direction
    return "horizontal" if ry == 0 else "vertical" if rx == 0 else "diagonal"


def stage_pass(tracer: Tracer, wl: Workload, scenes: list[Scene]) -> None:
    """The README's stage-by-stage composition, one span per public call.
    Diagonals the workload does not use are aggregated too, as a probe, and
    left out of the selection."""
    params = wl.params
    directions = params.directions + tuple(d for d in DIAGONALS if d not in params.directions)
    for k in range(STAGE_PASSES):
        scene = scenes[k % CYCLE]
        tracer.frame = f"stages{k}"
        with tracer.span("census"):
            census_left = census_transform(scene.left)
            census_right = census_transform(scene.right)
        with tracer.span("cost_volume") as record:
            mc = matching_cost(census_left, census_right, params.disparities)
        record["bytes"] = census_left.nbytes + census_right.nbytes + mc.nbytes
        volumes = []
        for direction in directions:
            with tracer.span("aggregation." + _direction_class(direction), bytes=2 * mc.nbytes):
                volume = aggregate_path(mc, direction, params)
            if direction in params.directions:
                volumes.append(volume)
            del volume
        with tracer.span("disparity.select"):
            raw = select_disparity(volumes, params)
        del volumes
        with tracer.span("disparity.median"):
            median_filter_3x3(raw)


def diagonal_probe(tracer: Tracer, wl: Workload, scene: Scene, threads: int) -> list[str]:
    """Warm 8-path frames at the workload's size on ``threads`` workers,
    through the pipeline's own ``run_tasks`` calls; returns their frame ids."""
    params = SgmParams(disparities=wl.disparities, paths=8)
    frames = [f"probe-diag-t{threads}-{k}" for k in range(PROBE_FRAMES)]
    tracer.enabled = False
    ex = pipeline.Executor(scene.left, scene.right, params, threads=threads)
    try:
        ex.run()
        tracer.enabled = True
        for frame in frames:
            tracer.frame = frame
            ex.run()
    finally:
        ex.close()
    return frames


def cli_probe(tracer: Tracer, wl: Workload, scenes: list[Scene], checker: Checker, work_dir: Path) -> None:
    """One cold and one traced ``cli.run`` frame at the workload's settings."""
    with CliClient(wl, scenes, checker, work_dir) as client:
        for k in range(2):
            tracer.frame, tracer.enabled = "probe-cli", k == 1
            with tracer.span("frame"):
                client.frame(k)
            tracer.enabled = False
            client.check(k)
    tracer.enabled = True


def _noop(buffers) -> None:
    pass


def pool_probes() -> tuple[float, float]:
    """(ForkPool start plus close in ms, no-op round trip through
    ForkPool.run in us), medians."""
    fork = []
    for _ in range(FORK_REPS):
        t0 = time.perf_counter()
        ForkPool(PROBE_WORKERS, {}).close()
        fork.append(time.perf_counter() - t0)
    trips = []
    with ForkPool(PROBE_WORKERS, {}) as pool:
        pool.run([(_noop, {})])
        for _ in range(DISPATCH_TRIPS):
            t0 = time.perf_counter()
            pool.run([(_noop, {})])
            trips.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(fork), 1e6 * statistics.median(trips)


def memcpy_gbps(nbytes: int) -> float:
    """``np.copyto`` of a volume-sized buffer, bytes read plus written."""
    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(MEMCPY_REPS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * nbytes / statistics.median(times) / 1e9


def has_pooled_diagonals(wl: Workload) -> bool:
    return wl.threads > 1 and bool(set(DIAGONALS) & set(wl.params.directions))


def traced_extras(tracer: Tracer, wl: Workload, scenes: list[Scene], checker: Checker,
                  work_dir: Path) -> tuple[dict[str, float], list[str], dict[str, list[str]]]:
    """Everything the traced run does after the frame loop; returns probe
    metrics, the names of metrics that come from probes, and the frame ids
    of the serial and the pooled diagonal probes."""
    stage_pass(tracer, wl, scenes)
    probed = ["workers.fork_ms", "workers.dispatch_us", "host.memcpy_gbps"]
    diag_frames = {"serial": diagonal_probe(tracer, wl, scenes[0], threads=1)}
    if not set(DIAGONALS) & set(wl.params.directions):
        probed.append("aggregation.diagonal_ms")
    if not has_pooled_diagonals(wl):
        diag_frames["pooled"] = diagonal_probe(tracer, wl, scenes[0], threads=PROBE_WORKERS)
        probed += ["workers.aggregate_diagonal_ms", "workers.diagonal_speedup"]
    if not wl.cli:
        cli_probe(tracer, wl, scenes, checker, work_dir)
        probed += ["image_io.read_ms", "image_io.write_ms", "evaluation.ms", "cli.overhead_ms"]
    fork_ms, dispatch_us = pool_probes()
    values = {
        "workers.fork_ms": fork_ms,
        "workers.dispatch_us": dispatch_us,
        "host.memcpy_gbps": memcpy_gbps(wl.width * wl.height * wl.disparities),
    }
    return values, probed, diag_frames


def per_layer_metrics(tracer: Tracer, wl: Workload, run: Run, probes: dict[str, float],
                      diag_frames: dict[str, list[str]]) -> dict[str, float]:
    spans = tracer.spans
    by_frame: dict[object, list[dict]] = defaultdict(list)
    for s in spans:
        by_frame[s["frame"]].append(s)
    timed = sorted(f for f in by_frame if isinstance(f, int) and f >= wl.setups)
    stages = [f"stages{k}" for k in range(STAGE_PASSES)]
    pooled_diag = timed if has_pooled_diagonals(wl) else diag_frames["pooled"]
    cli_frames = timed if wl.cli else ["probe-cli"]

    def total(frame, name: str, **match) -> float:
        return sum(duration(s) for s in by_frame[frame]
                   if s["name"] == name and all(s.get(k) == v for k, v in match.items()))

    def ms(frames, name: str, **match) -> float:
        return 1e3 * statistics.median(total(f, name, **match) for f in frames)

    def gbps(prefix: str) -> float:
        chosen = [s for f in stages for s in by_frame[f] if s["name"].startswith(prefix)]
        return sum(s["bytes"] for s in chosen) / sum(duration(s) for s in chosen) / 1e9

    def cli_overhead(frame) -> float:
        outer = next(s for s in by_frame[frame] if s["name"] == "frame")
        return duration(outer) - sum(duration(s) for s in by_frame[frame] if s["parent"] == outer["id"])

    setups = [s for s in spans if s["name"] == "pipeline.setup" and isinstance(s["frame"], int)]
    m = {
        "census.ms": ms(stages, "census"),
        "cost_volume.ms": ms(stages, "cost_volume"),
        "cost_volume.gbps": gbps("cost_volume"),
        "aggregation.horizontal_ms": ms(stages, "aggregation.horizontal"),
        "aggregation.vertical_ms": ms(stages, "aggregation.vertical"),
        "aggregation.diagonal_ms": ms(stages, "aggregation.diagonal"),
        "aggregation.gbps": gbps("aggregation."),
        "disparity.select_ms": ms(stages, "disparity.select"),
        "disparity.median_ms": ms(stages, "disparity.median"),
        "pipeline.setup_ms": 1e3 * statistics.median(duration(s) for s in setups),
        "pipeline.buffer_mb": statistics.median(s["buffer_bytes"] for s in setups) / 2**20,
        "pipeline.overhead_ms": 1e3 * statistics.median(
            total(f, "pipeline.run") - total(f, "run_tasks") for f in timed),
        "workers.matching_cost_ms": ms(timed, "run_tasks", stage="matching_cost"),
        "workers.aggregate_axis_ms": ms(timed, "run_tasks", stage="aggregate_axis"),
        "workers.aggregate_diagonal_ms": ms(pooled_diag, "run_tasks", stage="aggregate_diagonal"),
        "workers.selection_ms": ms(timed, "run_tasks", stage="selection"),
        "workers.tasks_per_frame": float(statistics.median(
            sum(s["tasks"] for s in by_frame[f] if s["name"] == "run_tasks") for f in timed)),
        "image_io.read_ms": ms(cli_frames, "image_io.read"),
        "image_io.write_ms": ms(cli_frames, "image_io.write"),
        "evaluation.ms": ms(cli_frames, "evaluation"),
        "cli.overhead_ms": 1e3 * statistics.median(cli_overhead(f) for f in cli_frames),
        "trace.overhead_pct": 100.0 * (statistics.median(run.traced_frame_s)
                                       / statistics.median(run.frame_s) - 1.0),
        **probes,
    }
    # serial and pooled diagonals through the same pipeline code, so only
    # parallelism moves the ratio
    serial_diag_ms = ms(diag_frames["serial"], "run_tasks", stage="aggregate_diagonal")
    m["workers.diagonal_speedup"] = serial_diag_ms / m["workers.aggregate_diagonal_ms"]
    return m
