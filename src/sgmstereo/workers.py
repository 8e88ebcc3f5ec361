"""Fork-based data-parallel execution over shared-memory arrays.

The pipeline partitions each stage into tasks that write disjoint regions of
preallocated output arrays, so results are bit-identical no matter how many
workers run them or in what order.  Buffers live in anonymous shared mmap
pages: forked workers inherit the live mappings, task messages carry only
buffer names and index ranges, and nothing bulky ever crosses a pipe.

Tasks are ``(callable, kwargs)`` pairs where the callable is a module-level
function taking the buffer dict as its first argument; the same tuples run
inline when no pool is active, keeping the serial and parallel code paths
literally the same code.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import signal
import traceback
from typing import Callable, Mapping, Sequence

import numpy as np

Task = tuple[Callable, dict]
Buffers = Mapping[str, np.ndarray]


def fork_available() -> bool:
    return "fork" in mp.get_all_start_methods()


def shared_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Uninitialised array backed by anonymous shared pages.

    Writes made by forked children are visible to the parent and vice versa.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    buf = mmap.mmap(-1, max(nbytes, 1))
    return np.frombuffer(buf, dtype=dtype, count=nbytes // dtype.itemsize).reshape(shape)


def split_ranges(extent: int, parts: int) -> list[tuple[int, int]]:
    """Split [0, extent) into at most ``parts`` contiguous non-empty ranges."""
    parts = max(1, min(parts, extent))
    bounds = [extent * i // parts for i in range(parts + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(parts) if bounds[i] < bounds[i + 1]]


def run_tasks(pool: "ForkPool | None", buffers: Buffers, tasks: Sequence[Task]) -> None:
    """Run tasks on the pool, or inline when no pool is active."""
    if pool is None:
        for fn, kwargs in tasks:
            fn(buffers, **kwargs)
    else:
        pool.run(tasks)


def _worker_main(buffers: Buffers, task_queue, done_queue) -> None:
    # an interrupt is the parent's to handle: it terminates the pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # keep only the pipe ends a worker uses, so once the parent is gone, even
    # killed outright, the task pipe has no writer left and get() sees
    # end-of-file instead of blocking forever
    task_queue._writer.close()
    done_queue._reader.close()
    while True:
        try:
            item = task_queue.get()
        except EOFError:
            return
        if item is None:
            return
        fn, kwargs = item
        try:
            fn(buffers, **kwargs)
        except Exception:
            done_queue.put(("error", traceback.format_exc()))
        else:
            done_queue.put(("ok", None))


class ForkPool:
    """A fixed set of forked workers sharing the given buffer dict.

    Fork the pool only after every shared buffer has been created; children
    resolve buffer names against the dict snapshot they inherited.  A worker
    that dies, or an interrupt while tasks are in flight, breaks the pool:
    :meth:`run` raises and :meth:`close` terminates the remaining workers.
    """

    def __init__(self, workers: int, buffers: Buffers):
        if workers < 2:
            raise ValueError("a pool needs at least 2 workers; run tasks inline instead")
        if not fork_available():
            raise RuntimeError("fork start method is not available on this platform")
        ctx = mp.get_context("fork")
        self._tasks = ctx.SimpleQueue()
        self._done = ctx.SimpleQueue()
        self._broken = False
        self._procs = [
            ctx.Process(target=_worker_main, args=(buffers, self._tasks, self._done), daemon=True)
            for _ in range(workers)
        ]
        for p in self._procs:
            p.start()

    def run(self, tasks: Sequence[Task]) -> None:
        """Dispatch all tasks and block until every one has finished.

        Raises RuntimeError when a task raises or a worker process dies.
        """
        if self._broken:
            raise RuntimeError("worker pool is broken by an earlier failure")
        if not self._procs:
            raise RuntimeError("worker pool is closed")
        try:
            for task in tasks:
                self._tasks.put(task)
            failures = []
            # the reader of the result queue, as multiprocessing.Pool waits on it
            results = self._done._reader
            sentinels = {p.sentinel: p for p in self._procs}
            pending = len(tasks)
            while pending:
                ready = mp_connection.wait([results, *sentinels])
                if results in ready:
                    status, payload = self._done.get()
                    pending -= 1
                    if status != "ok":
                        failures.append(payload)
                    continue
                dead = sentinels[ready[0]]
                dead.join()
                raise RuntimeError(
                    f"worker process {dead.pid} died with exit code {dead.exitcode} "
                    f"with {pending} of {len(tasks)} tasks unfinished"
                )
        except BaseException:
            self._broken = True
            raise
        if failures:
            raise RuntimeError("worker task failed:\n" + failures[0])

    def close(self) -> None:
        """Stop the workers; after a failure, terminate the survivors."""
        if self._broken:
            for p in self._procs:
                p.terminate()
        else:
            for _ in self._procs:
                self._tasks.put(None)
        for p in self._procs:
            p.join()
        self._procs = []

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
