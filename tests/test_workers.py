"""Failure handling of the fork pool.

A pool that hangs would hang the suite, so each scenario runs in a child
interpreter, in its own process group, under a timeout: a regression fails
the test and its workers are killed with it.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from sgmstereo.pipeline import default_threads
from sgmstereo.workers import ForkPool, fork_available

SRC = str(Path(__file__).resolve().parent.parent / "src")

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs the fork start method")


def run_script(body: str, timeout: float = 60) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    script = "from sgmstereo.workers import ForkPool\n" + textwrap.dedent(body)
    with subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"pool scenario still running after {timeout} s")
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def _fail(buffers, message):
    raise ValueError(message)


def test_task_exception_is_reraised_with_traceback():
    with ForkPool(2, {}) as pool:
        with pytest.raises(RuntimeError, match="ValueError: boom"):
            pool.run([(_fail, dict(message="boom")), (_fail, dict(message="boom"))])


def test_run_after_close_raises():
    pool = ForkPool(2, {})
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.run([(_fail, dict(message="unreached"))])


def test_dying_worker_raises_and_close_reaps_survivors():
    result = run_script("""
        import os

        def die(buffers):
            os._exit(3)

        def noop(buffers):
            pass

        pool = ForkPool(2, {})
        procs = list(pool._procs)
        try:
            pool.run([(die, {}), (noop, {}), (noop, {})])
        except RuntimeError as exc:
            print("raised:", exc)
        try:
            pool.run([(noop, {})])
        except RuntimeError as exc:
            print("again:", exc)
        pool.close()
        print("alive:", sum(p.is_alive() for p in procs))
    """)
    assert result.returncode == 0, result.stderr
    assert "raised: worker process" in result.stdout
    assert "exit code 3" in result.stdout
    assert "again: worker pool is broken" in result.stdout
    assert "alive: 0" in result.stdout


def test_interrupt_during_run_terminates_busy_workers():
    result = run_script("""
        import signal
        import time

        def stall(buffers):
            time.sleep(300)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        signal.signal(signal.SIGALRM, interrupt)
        pool = ForkPool(2, {})
        procs = list(pool._procs)
        t0 = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            pool.run([(stall, {}), (stall, {})])
        except KeyboardInterrupt:
            print("interrupted")
        pool.close()
        print("alive:", sum(p.is_alive() for p in procs))
        print("elapsed: %.1f" % (time.monotonic() - t0))
    """)
    assert result.returncode == 0, result.stderr
    assert "interrupted" in result.stdout
    assert "alive: 0" in result.stdout
    elapsed = float(result.stdout.split("elapsed:")[1])
    assert elapsed < 30


def test_workers_exit_when_the_parent_is_killed():
    result = run_script("""
        import os
        import signal
        import time

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            # a worker that exited after its parent died may linger as a
            # zombie until the init process reaps it
            try:
                with open(f"/proc/{pid}/stat") as f:
                    return f.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return True

        read_end, write_end = os.pipe()
        holder = os.fork()
        if holder == 0:
            os.close(read_end)
            pool = ForkPool(2, {})
            os.write(write_end, " ".join(str(p.pid) for p in pool._procs).encode() + b"\\n")
            time.sleep(300)
            os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            workers = [int(pid) for pid in pipe.readline().split()]
        os.kill(holder, signal.SIGKILL)
        os.waitpid(holder, 0)
        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in workers if alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        print("workers:", len(workers))
        print("alive:", len(survivors))
    """)
    assert result.returncode == 0, result.stderr
    assert "workers: 2" in result.stdout
    assert "alive: 0" in result.stdout


@pytest.mark.skipif(default_threads() < 2, reason="a 2-worker pool needs 2 CPUs in the process's budget")
def test_killed_worker_fails_a_production_size_frame():
    # the packed layout at 640x480, D=128, 8 paths on 2 workers; one
    # worker is killed about 50 ms into the frame, in its first stages
    result = run_script("""
        import os
        import signal
        import threading
        import time

        from sgmstereo import SgmParams, shifted_pair
        from sgmstereo.params import sum_volumes
        from sgmstereo.pipeline import Executor

        left, right = shifted_pair(640, 480, 10, seed=3)
        params = SgmParams(disparities=128, paths=8)
        assert sum_volumes(params.directions, params.p2) == "packed"
        ex = Executor(left, right, params, threads=2)
        assert ex.pool is not None
        procs = list(ex.pool._procs)
        print("victim:", procs[0].pid)
        threading.Timer(0.05, os.kill, (procs[0].pid, signal.SIGKILL)).start()
        t0 = time.monotonic()
        try:
            ex.run()
        except RuntimeError as exc:
            print("raised:", exc)
        print("elapsed: %.3f" % (time.monotonic() - t0))
        try:
            ex.run()
        except RuntimeError as exc:
            print("again:", exc)
        ex.close()
        print("alive:", sum(p.is_alive() for p in procs))
    """)
    assert result.returncode == 0, result.stderr
    victim = result.stdout.split("victim:")[1].split()[0]
    assert f"raised: worker process {victim} died with exit code -9" in result.stdout
    assert float(result.stdout.split("elapsed:")[1].split()[0]) < 10
    assert "again: worker pool is broken" in result.stdout
    assert "alive: 0" in result.stdout
