"""What the benchmark measures: workloads, metrics and the run length.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 perfbench/run.py --write-manifest``; edit here, not there.
"""

from __future__ import annotations

from dataclasses import dataclass

from sgmstereo import SgmParams

RUN_SECONDS = 25
# Distinct frames per run; the timed loop cycles through them.
CYCLE = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    width: int
    height: int
    disparities: int
    paths: int
    threads: int
    cli: bool  # one in-process sgmstereo.cli.run per frame, PGM files in and out
    # set-ups per run, setup_s being their median.  On a stream workload the
    # last set-up's Executor carries on into the timed frames; on the CLI
    # workload each set-up is the first cli.run call of a fresh child process
    setups: int

    @property
    def params(self) -> SgmParams:
        return SgmParams(disparities=self.disparities, paths=self.paths)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "vga_d128_p4_stream",
            "the paper's 640x480 D=128 4-path setting, serial on one reused Executor: "
            "cost volume and axis aggregation dominate",
            640, 480, 128, 4, 1, False, 7,
        ),
        Workload(
            "vga_d128_p8_pool2",
            "8 paths on 2 pool workers, one reused Executor: serial diagonals, an 8-volume "
            "selection and 9 shared 39 MB buffers",
            640, 480, 128, 8, 2, False, 7,
        ),
        Workload(
            "qvga_d32_p2_cli",
            "320x240 D=32 2 paths via sgmstereo.cli.run per frame: set-up, PGM I/O and "
            "evaluation each frame; 2.5 MB volumes against 39 MB on the VGA workloads",
            # --threads 1: at 2 the pool gains nothing at this size (66 against 68 ms)
            # and host CPU contention slowed frames by 60%, against 20% serially
            320, 240, 32, 2, 1, True, 7,
        ),
    )
}

# name -> (unit, better, bound)
END_TO_END = {
    "fps": ("1/s", "higher", 0.25),
    "frame_ms_p50": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

# name -> (unit, better)
PER_LAYER = {
    "census.ms": ("ms", "lower"),
    "cost_volume.ms": ("ms", "lower"),
    "cost_volume.gbps": ("GB/s", "higher"),
    "aggregation.horizontal_ms": ("ms", "lower"),
    "aggregation.vertical_ms": ("ms", "lower"),
    "aggregation.diagonal_ms": ("ms", "lower"),
    "aggregation.gbps": ("GB/s", "higher"),
    "disparity.select_ms": ("ms", "lower"),
    "disparity.median_ms": ("ms", "lower"),
    "pipeline.setup_ms": ("ms", "lower"),
    "pipeline.buffer_mb": ("MiB", "lower"),
    "pipeline.overhead_ms": ("ms", "lower"),
    "workers.matching_cost_ms": ("ms", "lower"),
    "workers.aggregate_axis_ms": ("ms", "lower"),
    "workers.aggregate_diagonal_ms": ("ms", "lower"),
    "workers.selection_ms": ("ms", "lower"),
    "workers.tasks_per_frame": ("count", "higher"),
    "workers.diagonal_speedup": ("x", "higher"),
    "workers.dispatch_us": ("us", "lower"),
    "workers.fork_ms": ("ms", "lower"),
    "image_io.read_ms": ("ms", "lower"),
    "image_io.write_ms": ("ms", "lower"),
    "evaluation.ms": ("ms", "lower"),
    "cli.overhead_ms": ("ms", "lower"),
    "host.memcpy_gbps": ("GB/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
