"""Correctness checks, run outside every timed region.

The references are independent of the numpy lane under test: the scene
generator's ground truth, the scalar ``sgmstereo.oracle`` lane, and for the
CLI the benchmark's own PGM and CSV parsing and bad-pixel count.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from scene import MAX_MISS_SHARE, Scene, make_scene
from sgmstereo import SgmParams, compute_disparity
from sgmstereo.oracle import oracle_pipeline

ORACLE_SIZE = (64, 48, 32)  # width, height, D: about half a second per path set
CLI_THRESHOLD = 3  # the CLI's default --threshold


class Checker:
    """Collects problems; a run is correct when none were found."""

    def __init__(self, disparities: int):
        self.disparities = disparities
        self.problems: list[str] = []
        self.maps: dict[int, np.ndarray] = {}  # first map of each frame index
        self.worst_miss = 0.0  # largest interior miss share seen

    def fail(self, what: str) -> None:
        self.problems.append(what)

    def frame(self, index: int, scene: Scene, disp: np.ndarray) -> None:
        """Shape, range and interior accuracy of one map, and that frame
        ``index`` always gives the same map."""
        if disp.shape != scene.left.shape:
            self.fail(f"frame {index}: map shape {disp.shape}, input {scene.left.shape}")
            return
        lo, hi = int(disp.min()), int(disp.max())
        if lo < 0 or hi >= self.disparities:
            self.fail(f"frame {index}: values in [{lo}, {hi}], expected [0, {self.disparities})")
        err = np.abs(disp[scene.interior].astype(np.int64) - scene.truth[scene.interior])
        miss = np.count_nonzero(err > 1) / err.size
        self.worst_miss = max(self.worst_miss, miss)
        if miss > MAX_MISS_SHARE:
            self.fail(f"frame {index}: {miss:.2%} of interior pixels off by more than 1")
        first = self.maps.setdefault(index, disp)
        if first is not disp and not np.array_equal(first, disp):
            self.fail(f"frame {index}: map differs from the first map of the same frame")

    def same(self, what: str, got: np.ndarray, expected: np.ndarray) -> None:
        if got.shape != expected.shape or not np.array_equal(got, expected):
            self.fail(f"{what}: maps differ")

    def oracle(self, params: SgmParams, seed: int) -> None:
        """The numpy lane matches the scalar lane bit for bit on a small frame."""
        width, height, disparities = ORACLE_SIZE
        small = make_scene(width, height, disparities, seed, 0)
        small_params = SgmParams(disparities=disparities, p1=params.p1, p2=params.p2, paths=params.paths)
        self.same(
            f"oracle {width}x{height} D={disparities} paths={params.paths}",
            compute_disparity(small.left, small.right, small_params),
            oracle_pipeline(small.left, small.right, small_params),
        )

    def cli_output(self, index: int, scene: Scene, code: int, stdout: str, output: Path,
                   expected: np.ndarray) -> None:
        """Exit code, the written map, and the CSV line's bad-pixel count."""
        if code != 0:
            self.fail(f"frame {index}: cli exit code {code}")
            return
        try:
            disp = read_pgm_raster(output)
            fields = stdout.strip().splitlines()[-1].split(",")
            total, bad = int(fields[7]), int(fields[8])
        except (ValueError, IndexError) as exc:
            self.fail(f"frame {index}: unreadable cli output: {exc}")
            return
        self.same(f"frame {index}: cli output read back", disp, expected)
        self.frame(index, scene, disp)
        own_bad = int(np.count_nonzero(np.abs(disp - scene.truth) > CLI_THRESHOLD))
        if total != disp.size or bad != own_bad:
            self.fail(f"frame {index}: cli csv total,bad = {total},{bad}; expected {disp.size},{own_bad}")


def read_pgm_raster(path: Path) -> np.ndarray:
    """Minimal P5 reader (no comments) kept apart from ``sgmstereo.image_io``."""
    data = path.read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if header is None or int(header[3]) > 255:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    width, height = int(header[1]), int(header[2])
    raster = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=header.end())
    return raster.reshape(height, width).astype(np.int32)


def write_pgm_raster(path: Path, image: np.ndarray) -> None:
    height, width = image.shape
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode("ascii") + image.astype(np.uint8).tobytes())
