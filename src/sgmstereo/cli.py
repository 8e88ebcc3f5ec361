"""Command-line interface for the disparity pipeline.

Exit codes: 0 success, 1 I/O failure (missing or malformed image files),
2 invalid configuration or inconsistent inputs, 3 unexpected internal error.
"""

from __future__ import annotations

import argparse
import sys

from .evaluation import DEFAULT_THRESHOLD, metrics_csv
from .image_io import PgmError
from .params import PATH_SETS, SgmParams
from .pipeline import ConfigError, PipelineConfig, default_threads, run_pipeline

EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def build_parser() -> argparse.ArgumentParser:
    defaults = SgmParams()
    parser = argparse.ArgumentParser(
        prog="sgmstereo",
        description="Estimate a disparity map from a rectified stereo pair of binary PGM images.",
    )
    parser.add_argument("--left", required=True, help="left (base) image, binary PGM")
    parser.add_argument("--right", required=True, help="right (match) image, binary PGM")
    parser.add_argument("--output", required=True, help="output disparity map, 8-bit PGM")
    parser.add_argument("--disparities", type=int, default=defaults.disparities, metavar="D",
                        help="disparity levels to search (default: %(default)s)")
    parser.add_argument("--paths", type=int, default=defaults.paths, choices=sorted(PATH_SETS),
                        help="path directions for cost smoothing (default: %(default)s)")
    parser.add_argument("--p1", type=int, default=defaults.p1,
                        help="penalty for one-level disparity changes (default: %(default)s)")
    parser.add_argument("--p2", type=int, default=defaults.p2,
                        help="penalty for larger disparity jumps (default: %(default)s)")
    parser.add_argument("--no-median", action="store_true", help="skip the 3x3 median post-filter")
    parser.add_argument("--gt", default=None, help="ground-truth disparity PGM to evaluate against")
    parser.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                        help="bad-pixel threshold in pixels (default: %(default)s)")
    parser.add_argument("--bench", type=int, default=0, metavar="N",
                        help="repeat the compute N times and report per-stage timings")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker count (default: available parallelism)")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = SgmParams(disparities=args.disparities, p1=args.p1, p2=args.p2, paths=args.paths)
        result = run_pipeline(PipelineConfig(
            left=args.left,
            right=args.right,
            output=args.output,
            params=params,
            median=not args.no_median,
            gt=args.gt,
            threshold=args.threshold,
            bench_iters=args.bench,
            threads=args.threads if args.threads is not None else default_threads(),
        ))
    except ConfigError as exc:
        print(f"sgmstereo: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PgmError, OSError) as exc:
        print(f"sgmstereo: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive
        print(f"sgmstereo: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL

    if result.bench is not None:
        for line in result.bench.lines():
            print(line, file=sys.stderr)
    if result.evaluation is not None:
        height, width = result.disparity.shape
        print(metrics_csv(result.evaluation, params, width, height))
    return 0


def main() -> None:
    sys.exit(run())
