"""The timed frame loops.

Every frame is a closed-loop request from one client: the next frame is sent
only after the previous map is back, and checked outside the clock.
"""

from __future__ import annotations

import io
import json
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from checks import Checker, write_pgm_raster
from scene import Scene, make_scene
from sgmstereo import cli, compute_disparity, pipeline
from spec import CYCLE, Workload
from tracing import Tracer

FIRST_CALL = Path(__file__).resolve().parent / "first_call.py"
FIRST_CALL_TIMEOUT_S = 60


@dataclass
class Run:
    setup_s: list[float] = field(default_factory=list)
    frame_s: list[float] = field(default_factory=list)  # timed frames, untraced
    traced_frame_s: list[float] = field(default_factory=list)  # timed frames, traced
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for
    (pool workers are joined when their Executor closes)."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def scenes_for(wl: Workload, seed: int) -> list[Scene]:
    return [make_scene(wl.width, wl.height, wl.disparities, seed, i) for i in range(CYCLE)]


def run_workload(wl: Workload, scenes: list[Scene], seconds: float, checker: Checker,
                 work_dir: Path, tracer: Tracer | None = None) -> Run:
    """Set-ups, then timed frames for ``seconds`` of frame time.  The CLI
    workload's set-ups run in child processes, so one untimed in-process
    frame warms it up first.  With a tracer, every other timed frame is traced, with the pattern flipped each
    cycle so that every scene runs both ways; traced and untraced frame
    times are then compared in one process."""
    run = Run()
    client = CliClient(wl, scenes, checker, work_dir) if wl.cli else StreamClient(wl, scenes, checker)
    with client:
        for i in range(wl.setups):
            with _frame(tracer, i, True):
                run.setup_s.append(client.setup(i))
            client.check(i)
        i = wl.setups
        if wl.cli:
            client.frame(i)
            client.check(i)
            i += 1
        # a traced run needs frames both ways, however short
        while (sum(run.frame_s) + sum(run.traced_frame_s) < seconds
               or (tracer is not None and not run.traced_frame_s)):
            traced = tracer is not None and (i + i // CYCLE) % 2 == 1
            with _frame(tracer, i, traced):
                elapsed = client.frame(i)
            (run.traced_frame_s if traced else run.frame_s).append(elapsed)
            client.check(i)
            i += 1
    if tracer is not None:
        tracer.enabled, tracer.frame = True, None
    run.attempted = i
    run.failed = client.failed
    run.peak_rss_mb = peak_rss_mb()
    return run


@contextmanager
def _frame(tracer: Tracer | None, i: int, traced: bool) -> Iterator[None]:
    """Span one frame's timed part; the check after it is not traced."""
    if tracer is None:
        yield
        return
    tracer.enabled, tracer.frame = traced, i
    with tracer.span("frame"):
        yield
    tracer.enabled = False


class StreamClient:
    """Frames through one reused ``Executor``: new images are copied into its
    buffers.  A set-up builds a fresh ``Executor`` and runs its cold first
    frame."""

    def __init__(self, wl: Workload, scenes: list[Scene], checker: Checker):
        self.wl, self.scenes, self.checker = wl, scenes, checker
        self.ex: pipeline.Executor | None = None
        self.disp: np.ndarray | None = None
        self.failed = 0  # a failing frame raises instead

    def setup(self, i: int) -> float:
        self.close()  # free the previous buffers before the next set-up
        scene = self.scenes[i % CYCLE]
        t0 = time.perf_counter()
        self.ex = pipeline.Executor(scene.left, scene.right, self.wl.params, threads=self.wl.threads)
        self.disp = self.ex.run()
        return time.perf_counter() - t0

    def frame(self, i: int) -> float:
        scene = self.scenes[i % CYCLE]
        t0 = time.perf_counter()
        np.copyto(self.ex.buffers["left"], scene.left)
        np.copyto(self.ex.buffers["right"], scene.right)
        self.disp = self.ex.run()
        return time.perf_counter() - t0

    def check(self, i: int) -> None:
        self.checker.frame(i % CYCLE, self.scenes[i % CYCLE], self.disp)

    def close(self) -> None:
        if self.ex is not None:
            self.ex.close()
            self.ex = None

    def __enter__(self) -> "StreamClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CliClient:
    """One ``sgmstereo.cli.run`` call per frame on PGM files in ``work_dir``,
    with ``--gt`` so the CLI also evaluates.  A set-up is a process's first
    ``cli.run`` call, made in a fresh child process."""

    def __init__(self, wl: Workload, scenes: list[Scene], checker: Checker, work_dir: Path):
        self.wl, self.scenes, self.checker = wl, scenes, checker
        self.dir = work_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.output = self.dir / "disparity.pgm"
        self.expected: dict[int, np.ndarray] = {}
        self.failed = 0
        self.argv = []
        for i, scene in enumerate(scenes):
            names = [self.dir / f"{kind}{i}.pgm" for kind in ("left", "right", "gt")]
            for path, image in zip(names, (scene.left, scene.right, scene.truth)):
                write_pgm_raster(path, image)
            self.argv.append([
                "--left", str(names[0]), "--right", str(names[1]), "--gt", str(names[2]),
                "--output", str(self.output), "--disparities", str(wl.disparities),
                "--paths", str(wl.paths), "--threads", str(wl.threads),
            ])

    def frame(self, i: int) -> float:
        self.stdout, self.stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(self.stdout), redirect_stderr(self.stderr):
            self.code = cli.run(self.argv[i % CYCLE])
        return time.perf_counter() - t0

    def setup(self, i: int) -> float:
        argv = [sys.executable, str(FIRST_CALL), *self.argv[i % CYCLE]]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=FIRST_CALL_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up {i}: {FIRST_CALL.name} exited with {done.returncode}: "
                               f"{done.stderr.strip()}")
        reply = json.loads(done.stdout.strip().splitlines()[-1])
        self.code = reply["code"]
        self.stdout, self.stderr = io.StringIO(reply["stdout"]), io.StringIO(reply["stderr"])
        return reply["seconds"]

    def check(self, i: int) -> None:
        k = i % CYCLE
        scene = self.scenes[k]
        if k not in self.expected:  # serial reference
            self.expected[k] = compute_disparity(scene.left, scene.right, self.wl.params, threads=1)
        self.checker.cli_output(k, scene, self.code, self.stdout.getvalue(), self.output, self.expected[k])
        if self.code != 0:
            self.failed += 1
            self.checker.fail(f"frame {i}: cli stderr: {self.stderr.getvalue().strip()}")

    def __enter__(self) -> "CliClient":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
