#!/usr/bin/env python3
"""Frame-rate benchmark of the sgmstereo pipeline.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all       # every workload, one child process each
    python3 perfbench/run.py --steady 10          # spread of repeated runs, two sets
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json from spec.py

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a separate traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; records and traces go to
``perfbench/out/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))

try:
    import sgmstereo
except ImportError as exc:
    sys.exit(f"perfbench: cannot import sgmstereo from {SRC}: {exc}")
if not Path(sgmstereo.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported sgmstereo from {sgmstereo.__file__}, not from {SRC}")

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402
from sgmstereo import compute_disparity  # noqa: E402

from checks import Checker  # noqa: E402
from layers import per_layer_metrics, traced_extras  # noqa: E402
from spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, Workload, manifest  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402
from workloads import run_workload, scenes_for  # noqa: E402

CHILD_TIMEOUT_S = 600
SETS = 2  # --steady: sets of runs whose medians must agree


def host() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {"cpus": os.cpu_count(), "caches": caches, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def run_one(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    scenes = scenes_for(wl, seed)
    checker = Checker(wl.disparities)
    work = OUT / f"work-{os.getpid()}"
    tracer = Tracer() if trace else None
    probed: list[str] = []
    with instrument(tracer) if tracer else nullcontext():
        run = run_workload(wl, scenes, seconds, checker, work, tracer)
        if tracer:
            probes, probed, diag_frames = traced_extras(tracer, wl, scenes, checker, work)

    checker.oracle(wl.params, seed)
    if not wl.cli:
        other = 2 if wl.threads == 1 else 1
        scene = scenes[0]
        checker.same(f"threads={other} against threads={wl.threads}",
                     compute_disparity(scene.left, scene.right, wl.params, threads=other), checker.maps[0])

    if tracer:
        values = per_layer_metrics(tracer, wl, run, probes, diag_frames)
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "fps": len(run.frame_s) / sum(run.frame_s),
            "frame_ms_p50": 1e3 * statistics.median(run.frame_s),
            "setup_s": statistics.median(run.setup_s),
            "peak_rss_mb": run.peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _, _) in END_TO_END.items()}
    result = {"correct": not checker.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}

    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace), "host": host(),
              "problems": checker.problems, "worst_miss_share": checker.worst_miss,
              "setup_s": run.setup_s, "frame_s": run.frame_s, "traced_frame_s": run.traced_frame_s,
              "probed": probed, "result": result}
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.write(OUT / f"{name}.spans.json", workload=wl.name, seed=seed)
    for problem in checker.problems:
        print(f"perfbench: {wl.name}: {problem}", file=sys.stderr)
    return result


def child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in its own process, so peak RSS is that workload's."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": f"exit code {done.returncode}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float, trace: int) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = child(name, seed, seconds, trace)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        cells = []
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            cells.append(f"{metric}={entry['value']:.4g} {entry['unit']}")
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(cells))
    return combined


def _worse_by(better: str, base: float, other: float) -> float:
    """Share by which ``other`` is worse than ``base`` (negative: better)."""
    return (other - base) / base if better == "lower" else (base - other) / base


def steady(names: list[str], runs: int, seed: int, seconds: float) -> dict:
    """``SETS`` sets of ``runs`` runs per workload, each run on its own seed,
    one workload's runs back to back.  Prints per set and metric the median,
    quartiles and their spread as a share of the median next to the bound,
    then how far the second set's medians moved from the first set's; the
    sets agree when that move, either way, is within the bound."""
    results = {name: [[] for _ in range(SETS)] for name in names}
    for name in names:
        for s in range(SETS):
            for k in range(runs):
                results[name][s].append(child(name, seed + s * runs + k, seconds, 0))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}, "steady": {}}
    for name in names:
        print(f"\n{name}: {SETS} sets of {runs} runs, {seconds} s each")
        per_set = results[name]
        flat = [r for runs_of_set in per_set for r in runs_of_set]
        summary["correct"] &= all(r["correct"] for r in flat)
        summary["attempted"] += sum(r["attempted"] for r in flat)
        summary["failed"] += sum(r["failed"] for r in flat)
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in per_set]
        print(f"  correct in every run: {all(r['correct'] for r in flat)}; failed share per set: {shares}")
        stats = {}
        for metric, (unit, better, bound) in END_TO_END.items():
            rows = []
            for s, rs in enumerate(per_set):
                values = [r["metrics"][metric]["value"] for r in rs if metric in r["metrics"]]
                if len(values) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                verdict = "ok" if spread <= bound / 3 else "within bound" if spread <= bound else "WIDER THAN BOUND"
                rows.append({"q1": q1, "median": med, "q3": q3, "spread": spread})
                print(f"  set {s} {metric:<13} median {med:10.4f} {unit:<4} q1 {q1:10.4f} q3 {q3:10.4f} "
                      f"spread {spread:6.2%} bound {bound:.0%}  {verdict}")
            for s in range(1, len(rows)):
                moved = _worse_by(better, rows[0]["median"], rows[s]["median"])
                print(f"  set {s} vs set 0 {metric:<13} worse by {moved:+7.2%} "
                      f"(bound {bound:.0%}) {'ok' if abs(moved) <= bound else 'OUTSIDE BOUND'}")
            stats[metric] = rows
        summary["steady"][name] = {"failed_share": shares, "metrics": stats}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(json.dumps(summary, indent=1))
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="timed frame time per run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help=f"run each workload K times in each of {SETS} sets and report spreads")
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.steady:
        result = steady(names, args.steady, args.seed, args.seconds)
        result.pop("steady")
    elif args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
