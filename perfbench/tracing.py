"""Spans recorded from the benchmark's side of each module boundary.

The program has no tracing of its own.  ``instrument`` swaps, for the
duration of a ``with`` block, the names that ``sgmstereo.pipeline`` looks up
at call time (``run_tasks``, ``Executor``, the image I/O functions and
``bad_pixel_rate``) for wrappers that record a span around each call, then
puts the originals back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from sgmstereo import pipeline


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.frame: int | None = None  # frame id stamped on new spans
        self.enabled = True  # off: spans cost one call and record nothing
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict | None]:
        if not self.enabled:
            yield None
            return
        record = {"id": len(self.spans), "name": name, "frame": self.frame,
                  "parent": self._stack[-1] if self._stack else None, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record["start"] = start - self._t0
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def write(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": self.spans}, indent=1))


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def task_stage(tasks) -> str:
    """Pipeline stage of one ``run_tasks`` batch, named after its tasks."""
    if not tasks:
        return "empty"
    fn, kwargs = tasks[0]
    direction = kwargs.get("direction")
    if direction is not None:
        return "aggregate_diagonal" if direction[0] and direction[1] else "aggregate_axis"
    return {
        "_census_task": "census",
        "_mc_task": "matching_cost",
        "_select_task": "selection",
        "_median_task": "median",
    }.get(fn.__name__, fn.__name__)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    originals = {name: getattr(pipeline, name) for name in
                 ("run_tasks", "Executor", "read_pgm", "read_disparity", "write_disparity", "bad_pixel_rate")}

    def run_tasks(pool, buffers, tasks):
        with tracer.span("run_tasks", stage=task_stage(tasks), tasks=len(tasks), pooled=pool is not None):
            return originals["run_tasks"](pool, buffers, tasks)

    class Executor(originals["Executor"]):
        def __init__(self, *args, **kwargs):
            with tracer.span("pipeline.setup") as record:
                super().__init__(*args, **kwargs)
            if record is not None:
                record["buffer_bytes"] = sum(b.nbytes for b in self.buffers.values())

        def run(self, timings=None):
            with tracer.span("pipeline.run"):
                return super().run(timings)

        def close(self):
            with tracer.span("pipeline.close"):
                super().close()

    def spanned(name: str, fn):
        def call(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return call

    patches = {
        "run_tasks": run_tasks,
        "Executor": Executor,
        "read_pgm": spanned("image_io.read", originals["read_pgm"]),
        "read_disparity": spanned("image_io.read", originals["read_disparity"]),
        "write_disparity": spanned("image_io.write", originals["write_disparity"]),
        "bad_pixel_rate": spanned("evaluation", originals["bad_pixel_rate"]),
    }
    for name, value in patches.items():
        setattr(pipeline, name, value)
    try:
        yield
    finally:
        for name, value in originals.items():
            setattr(pipeline, name, value)
