#!/usr/bin/env python3
"""Per-stage A/B of two sgmstereo source trees, interleaved in one process.

Each tree's ``sgmstereo`` package is copied to a temporary directory under
its own name (``sgm_old``, ``sgm_new``), so both import side by side and
pooled tasks pickle by their own module path.  Both sides run the same
``synthetic.shifted_pair`` of seed ``--seed``.  One reused ``Executor`` per
side runs a warm-up frame, then ``--rounds`` timed frames; the side that
runs first alternates every round.  Every map must be identical on both
sides.  Printed per stage in frame order, then for the walks (every
``aggregate…`` stage of a frame, so trees that cut their walks into
different stages compare) and for the whole frame: the median and the
quartiles in ms of each side, and in how many rounds the new side was
faster.

    python scripts/stage_ab.py old/src src --width 320 --height 240 \\
        --disparities 32 --paths 2 --threads 1 --rounds 150 --seed 0
"""

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("old", "new")


def load_tree(src: Path, name: str, root: Path):
    """Import ``src/sgmstereo`` as the package ``name``; return its pipeline
    and params modules."""
    shutil.copytree(src / "sgmstereo", root / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.pipeline"), importlib.import_module(f"{name}.params")


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{q2:9.2f} [{q1:.2f}-{q3:.2f}]"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path, help="the old tree's src directory")
    parser.add_argument("new", type=Path, help="the new tree's src directory")
    parser.add_argument("--width", type=int, default=640)
    parser.add_argument("--height", type=int, default=480)
    parser.add_argument("--disparities", type=int, default=128)
    parser.add_argument("--paths", type=int, default=4)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0, help="seed of the synthetic pair both trees run")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        modules = {side: load_tree(src, f"sgm_{side}", Path(tmp))
                   for side, src in zip(SIDES, (args.old, args.new))}
        left, right = importlib.import_module("sgm_new.synthetic").shifted_pair(
            args.width, args.height, args.disparities // 4, seed=args.seed)
        executors = {}
        try:
            for side, (pipeline, params) in modules.items():
                sgm = params.SgmParams(disparities=args.disparities, paths=args.paths)
                executors[side] = pipeline.Executor(left, right, sgm, threads=args.threads)
            expected = executors["old"].run()
            if not (executors["new"].run() == expected).all():
                raise SystemExit("stage_ab: the two trees' maps differ")
            stages = {side: {} for side in SIDES}
            for k in range(args.rounds):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    timings: dict[str, float] = {}
                    t0 = time.perf_counter()
                    disp = executors[side].run(timings)
                    timings["frame"] = time.perf_counter() - t0
                    timings["walks"] = sum(sec for name, sec in timings.items()
                                           if name.startswith("aggregate"))
                    if not (disp == expected).all():
                        raise SystemExit(f"stage_ab: the {side} map differs in round {k}")
                    for name, sec in timings.items():
                        stages[side].setdefault(name, []).append(1e3 * sec)
            workers = {side: ex.workers for side, ex in executors.items()}
        finally:
            for ex in executors.values():
                ex.close()

    print(f"stage_ab: {args.width}x{args.height} D={args.disparities} paths={args.paths} "
          f"threads={args.threads} (workers old {workers['old']}, new {workers['new']}) "
          f"seed={args.seed} rounds={args.rounds}, maps identical")
    # frame order: a stage at its position in its own tree's list (the later
    # of the two where both trees run it), then the walks and the frame
    position: dict[str, int] = {}
    for side in SIDES:
        for i, name in enumerate(stages[side]):
            position[name] = max(i, position.get(name, i))
    width = max(map(len, position))
    print(f"{'stage':<{width}s} {'old median [quartiles] ms':>28s} "
          f"{'new median [quartiles] ms':>28s}  new faster")
    for name in sorted(position, key=lambda name: ({"walks": 1, "frame": 2}.get(name, 0), position[name])):
        old, new = stages["old"].get(name), stages["new"].get(name)
        cells = [quartiles(times) if times else "-" for times in (old, new)]
        faster = f"{sum(n < o for o, n in zip(old, new))}/{len(old)}" if old and new else "-"
        print(f"{name:<{width}s} {cells[0]:>28s} {cells[1]:>28s}  {faster}")


if __name__ == "__main__":
    main()
