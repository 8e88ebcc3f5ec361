#!/usr/bin/env python3
"""Time one process's first ``sgmstereo.cli.run`` call.

    python3 perfbench/first_call.py CLI-ARGUMENTS...

The last line of standard output is one JSON object: the call's wall time
in seconds, its exit code, and what it wrote to standard output and standard
error.  The CLI workload's set-ups run this in a fresh child process each.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from sgmstereo import cli  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported sgmstereo from {cli.__file__}, not from {SRC}")


def main() -> None:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(sys.argv[1:])
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}))


if __name__ == "__main__":
    main()
