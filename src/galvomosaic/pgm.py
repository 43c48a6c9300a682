"""16-bit grayscale image I/O: binary PGM (P5, maxval 65535).

Pipeline images are stored as unsigned 16-bit and processed internally
as float64 in [0, 1]; ``to_unit`` / ``to_u16`` convert between the two.
:func:`read_counts` gives a file's big-endian samples as read, for
``to_unit`` to decode straight to float64, and :func:`scale_to_counts`
encodes a float array in place, so neither direction needs an
intermediate native uint16 copy.  :class:`UnitView` memory-maps a PGM
and converts only what it is indexed with.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import re
from pathlib import Path

import numpy as np

from .errors import GalvoMosaicError

MAXVAL = 65535
# Header tokens and the gaps of whitespace and '#' comments to end of line
# between them (pgm(5)); two patterns, so a token never starts in a comment.
_GAP = re.compile(rb"(?:\s|#[^\n]*\n?)*")
_TOKEN = re.compile(rb"\S+")


class ImageFormatError(GalvoMosaicError):
    """Unreadable or unsupported image file."""


def to_unit(img: np.ndarray) -> np.ndarray:
    """uint16 counts -> float64 intensities in [0, 1], as a new array.

    ``scale_to_counts`` maps the result back to the same counts, exactly.
    """
    return _decode(img, None)


def _decode(counts: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The rule of :func:`to_unit`, into ``out`` if given: in-place
    decoding, also for callers that must not go through a public name
    (stitch's helper thread, see :mod:`galvomosaic.halves`)."""
    return np.divide(counts, MAXVAL, out=out, dtype=np.float64)


def scale_to_counts(img: np.ndarray) -> np.ndarray:
    """Float64 intensities -> integral float64 counts, in place; returns ``img``.

    Clamps to [0, 1], scales by 65535 and rounds half up.  Inputs are
    nonnegative after the clamp, so round-half-away-from-zero reduces to
    floor(x + 0.5).  The result converts exactly to any 16-bit unsigned
    dtype, e.g. ``img.astype(">u2")`` for a PGM raster.
    """
    np.clip(img, 0.0, 1.0, out=img)
    img *= MAXVAL
    img += 0.5
    np.floor(img, out=img)
    return img


def to_u16(img: np.ndarray) -> np.ndarray:
    """Float intensities -> uint16 counts, as :func:`scale_to_counts` on a
    float64 copy, so ``img`` itself is never written."""
    return scale_to_counts(np.array(img, dtype=np.float64)).astype(np.uint16)


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
    """Write a 2D uint16 array of either byte order as binary PGM (P5),
    big-endian samples; C-contiguous big-endian input is written as it is."""
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ImageFormatError(f"expected a 2D array, got shape {arr.shape}")
    if arr.dtype.kind != "u" or arr.dtype.itemsize != 2:
        raise ImageFormatError(f"expected uint16 data, got {arr.dtype}")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(pgm_header(w, h))
        f.write(arr.astype(">u2", order="C", copy=False))


def _raster_layout(path, data) -> tuple[int, int, int]:
    """(height, width, raster offset) of the binary PGM held in ``data``.

    ``data`` is ``bytes`` or an ``mmap``.  Checks the magic, skips ``#``
    comments, requires maxval 65535 and a raster no shorter than the
    header says.
    """
    if data[:2] != b"P5":
        raise ImageFormatError(f"{path}: not a binary PGM (P5) file")

    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        token = _TOKEN.match(data, _GAP.match(data, pos).end())
        if token is None:
            raise ImageFormatError(f"{path}: truncated PGM header")
        tokens.append(token.group())
        pos = token.end()
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


def read_counts(path: str | os.PathLike) -> np.ndarray:
    """A binary PGM's raster as read: a read-only big-endian uint16 array."""
    with open(path, "rb") as f:
        data = f.read()
    h, w, pos = _raster_layout(path, data)
    return np.frombuffer(data, dtype=">u2", count=h * w, offset=pos).reshape(h, w)


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    """Read a binary PGM (P5) with maxval 65535 into a uint16 array."""
    return read_counts(path).astype(np.uint16)


class UnitView:
    """float64 intensities in [0, 1] of a memory-mapped binary PGM, converted per index.

    Same header checks as :func:`read_pgm`.  ``view[key]`` is
    ``to_unit(counts[key])`` of the file's read-only big-endian u16
    ``counts``: only the indexed block is read and converted, so a metric
    that reads a few rows of a mosaic never holds the whole float canvas.
    Where the platform has ``MADV_DONTNEED``, each index then releases the
    whole mapping, so the pages a metric reads, and those mapped around
    them, do not pile up in the resident set; they stay in the page cache.
    """

    def __init__(self, path: str | os.PathLike):
        with open(path, "rb") as f:
            if os.fstat(f.fileno()).st_size == 0:
                raise ImageFormatError(f"{path}: not a binary PGM (P5) file")
            self._mapping = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        h, w, offset = _raster_layout(path, self._mapping)
        self.counts = np.frombuffer(
            self._mapping, dtype=">u2", count=h * w, offset=offset
        ).reshape(h, w)
        self.shape = self.counts.shape

    def __getitem__(self, key) -> np.ndarray:
        out = to_unit(self.counts[key])
        if hasattr(mmap, "MADV_DONTNEED"):
            # The whole mapping, not only the pages read: a page fault also
            # maps up to 64 KB of cached pages around the page (fault-around),
            # rows never read among them.
            self._mapping.madvise(mmap.MADV_DONTNEED)
        return out
