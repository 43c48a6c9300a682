"""16-bit grayscale image I/O: binary PGM (P5, maxval 65535).

Pipeline images are stored as unsigned 16-bit and processed internally
as float64 in [0, 1]; ``to_unit`` / ``to_u16`` convert between the two.
"""

from __future__ import annotations

import contextlib
import mmap
import os
from pathlib import Path

import numpy as np

from .errors import GalvoMosaicError

MAXVAL = 65535


class ImageFormatError(GalvoMosaicError):
    """Unreadable or unsupported image file."""


def to_unit(img: np.ndarray) -> np.ndarray:
    """uint16 counts -> float64 intensities in [0, 1]."""
    return np.divide(img, MAXVAL, dtype=np.float64)


def to_u16(img: np.ndarray) -> np.ndarray:
    """Float intensities -> uint16 counts, clamped to [0, 1], round half up.

    Inputs are nonnegative after the clamp, so round-half-away-from-zero
    reduces to floor(x + 0.5).  The arithmetic runs in place on one
    float64 copy, so ``img`` itself is never written.
    """
    scaled = np.array(img, dtype=np.float64)
    np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled *= MAXVAL
    scaled += 0.5
    np.floor(scaled, out=scaled)
    return scaled.astype(np.uint16)


def pgm_header(width: int, height: int) -> bytes:
    """P5 header of a width x height image; big-endian u16 rows follow it."""
    return f"P5\n{width} {height}\n{MAXVAL}\n".encode("ascii")


@contextlib.contextmanager
def replacing(path: Path):
    """Binary file whose content replaces ``path`` only if the block completes.

    The content goes to a temporary file beside ``path``, which is
    removed on error, so an earlier ``path`` stays intact.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_pgm(path: str | os.PathLike, img: np.ndarray) -> None:
    """Write a 2D uint16 array as binary PGM (P5), big-endian samples."""
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ImageFormatError(f"expected a 2D array, got shape {arr.shape}")
    if arr.dtype != np.uint16:
        raise ImageFormatError(f"expected uint16 data, got {arr.dtype}")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(pgm_header(w, h))
        f.write(arr.astype(">u2", order="C"))


def _raster_layout(path, data) -> tuple[int, int, int]:
    """(height, width, raster offset) of the binary PGM held in ``data``.

    ``data`` is any bytes-like object with ``find`` (``bytes`` or an
    ``mmap``).  Checks the magic, skips ``#`` comments, requires maxval
    65535 and a raster no shorter than the header says.
    """
    if data[:2] != b"P5":
        raise ImageFormatError(f"{path}: not a binary PGM (P5) file")

    # Header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments running to end of line.
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3 and pos < len(data):
        c = data[pos:pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if len(tokens) < 3:
        raise ImageFormatError(f"{path}: truncated PGM header")
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ImageFormatError(f"{path}: malformed PGM header") from exc
    if w < 0 or h < 0:
        raise ImageFormatError(f"{path}: malformed PGM header: size {w}x{h}")
    if maxval != MAXVAL:
        raise ImageFormatError(f"{path}: expected maxval {MAXVAL}, got {maxval}")
    pos = min(pos + 1, len(data))  # single whitespace byte after maxval
    expected = w * h * 2
    available = len(data) - pos
    if available < expected:
        raise ImageFormatError(
            f"{path}: raster has {available} bytes, expected {expected}"
        )
    return h, w, pos


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    """Read a binary PGM (P5) with maxval 65535 into a uint16 array."""
    with open(path, "rb") as f:
        data = f.read()
    h, w, pos = _raster_layout(path, data)
    raster = data[pos:pos + 2 * h * w]
    return np.frombuffer(raster, dtype=">u2").reshape(h, w).astype(np.uint16)


def map_pgm(path: str | os.PathLike) -> np.ndarray:
    """Memory-map a binary PGM (P5) as a read-only big-endian u16 array.

    Same header checks as :func:`read_pgm`; only the pixels that are
    indexed are ever read from disk.
    """
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:
            raise ImageFormatError(f"{path}: not a binary PGM (P5) file")
        data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    h, w, pos = _raster_layout(path, data)
    return np.frombuffer(data, dtype=">u2", count=h * w, offset=pos).reshape(h, w)


class UnitView:
    """float64 intensities in [0, 1] of a u16 counts array, converted per index.

    ``view[key]`` is ``to_unit(counts[key])``: only the indexed block is
    converted, so a metric that reads a few rows of a memory-mapped
    mosaic never holds the whole float canvas.
    """

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.shape = counts.shape

    def __getitem__(self, key) -> np.ndarray:
        return to_unit(self.counts[key])
