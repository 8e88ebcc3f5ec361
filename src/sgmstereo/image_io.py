"""Binary PGM (P5) reading and writing.

Images are 8-bit single-channel rasters held as ``uint8`` arrays of shape
``(height, width)``.  Disparity maps are stored in the same container with
identity encoding: the byte value *is* the disparity, which is exact for up
to 256 disparity levels.
"""

from __future__ import annotations

import os

import numpy as np

from .params import ConfigError, as_array

_WHITESPACE = b" \t\n\r\x0b\x0c"


class PgmError(ValueError):
    """Malformed or unsupported PGM data."""


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next header token, skipping whitespace and # comments."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c == 0x23:  # '#'
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmError("truncated header")
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    try:
        return int(token), pos
    except ValueError:
        raise PgmError(f"malformed {what}: {token!r}") from None


def load_pgm(data: bytes) -> np.ndarray:
    """Decode a binary PGM (P5) byte stream into a grayscale image.

    Only 8-bit data (maxval <= 255) is accepted, and every sample must be
    at most maxval.  Header comments and any amount of whitespace between
    header fields are tolerated; trailing bytes after the raster are
    ignored.
    """
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"unsupported magic number: {magic!r}")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions {width}x{height}")
    if maxval > 255:
        raise PgmError(f"unsupported maxval {maxval} (only 8-bit data is supported)")
    if maxval < 1:
        raise PgmError(f"invalid maxval {maxval}")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PgmError("missing whitespace after maxval")
    pos += 1  # exactly one whitespace byte separates header and raster
    count = width * height
    raster = data[pos : pos + count]
    if len(raster) < count:
        raise PgmError(f"truncated pixel data: expected {count} bytes, found {len(raster)}")
    image = np.frombuffer(raster, dtype=np.uint8, count=count).reshape(height, width).copy()
    if maxval < 255 and image.max() > maxval:
        y, x = divmod(int(np.argmax(image > maxval)), width)
        raise PgmError(f"sample {image[y, x]} at row {y}, column {x} exceeds maxval {maxval}")
    return image


def save_pgm(image: np.ndarray) -> bytes:
    """Encode a grayscale image as binary PGM.  Round-trips bit-exactly."""
    image = as_array("image", image, 2, np.uint8)
    height, width = image.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + image.tobytes()


def save_disparity(disparity: np.ndarray) -> bytes:
    """Encode a disparity map as an 8-bit PGM with identity value encoding."""
    disparity = as_array("disparity", disparity, 2, np.integer)
    lo, hi = int(disparity.min()), int(disparity.max())
    if lo < 0 or hi > 255:
        raise ConfigError(f"disparity values outside the 8-bit range: min {lo}, max {hi}")
    return save_pgm(disparity.astype(np.uint8))


def load_disparity(data: bytes) -> np.ndarray:
    """Decode an identity-encoded 8-bit PGM disparity map."""
    return load_pgm(data).astype(np.int32)


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as fh:
        return load_pgm(fh.read())


def write_pgm(path: str | os.PathLike, image: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(save_pgm(image))


def read_disparity(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as fh:
        return load_disparity(fh.read())


def write_disparity(path: str | os.PathLike, disparity: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(save_disparity(disparity))
