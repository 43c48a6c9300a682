"""Synthetic scan datasets for end-to-end verification.

A deterministic test target stands in for the physical resolution
target; tiles are cut from it at the exact placements the geometry
model produces, then optionally degraded with the effects the
correction stages exist to remove: radial vignetting, an additive
corner brightness offset inside the correction ROI footprint, per-tile
multiplicative gain jitter, and additive Gaussian noise.  Structure-free
bright/dark reference frames are emitted with the same field effects
(without the per-tile jitter) so the response fit can be exercised
against known ground truth.

Everything is seed-deterministic: tile (i, j) draws from a generator
seeded by (rng_seed, 0, i, j), references from (rng_seed, 1, k), so the
output is independent of evaluation order.

:func:`write_dataset` streams: the target is held as its description
(two counts and a list of dark rectangles), and every file is made and
written in blocks of 64 rows.  A frame's block is its rows of the target
window (or of the reference level), degraded with those rows of the
vignette and offset fields and the next noise draws of the frame's own
generator, then encoded.  The generator's normal draws carry no state
from one call to the next, so a frame drawn block by block has the bits
of one drawn whole.  No frame-sized array is held: the vignette field is
kept as its lower right quadrant, which mirrors to the rest, and the
offset field as one row per run of rows the same ROIs cover.
When a frame holds at least ``halves.SPLIT_MIN`` pixels, the calling
thread and the package's helper thread (:func:`galvomosaic.halves.each`)
each claim the next unwritten file, the truth or a frame, and write it
whole.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from . import halves, pgm
from .compose import canvas_dims
from .correction import BAND_PX_DEFAULT, EPSILON_DEFAULT, RectROI
from .errors import ConfigError, CoverageError, DimensionMismatchError, GalvoMosaicError
from .geometry import ScanConfig, TilePlacement, placement_table
from .metrics import RegionKind, RegionSpec
from .records import (
    INLINE, UNRECORDED, check_fields, dumps_indented, fields_dict, group, read, ungroup,
)

DARK_SHADE = 0.02
# Rows per block of every file write_dataset writes.
_BLOCK_ROWS = 64


class TargetPattern(Enum):
    UNIFORM = "uniform"
    BARS = "bars"
    USAF_LIKE = "usaf"


@dataclass(frozen=True)
class DegradationSpec:
    """Field degradations applied to clean tiles; all default to none."""

    vignette_min: float = 1.0
    corner_offset: float = 0.0
    gain_jitter: float = field(default=0.0, metadata={"least": 0})
    noise_sigma: float = field(default=0.0, metadata={"least": 0})
    rng_seed: int = field(default=0, metadata={"least": 0})

    def validate(self) -> None:
        check_fields(self)
        if not 0.0 < self.vignette_min <= 1.0:
            raise ConfigError(f"vignette_min must be in (0, 1], got {self.vignette_min}")
        # A gain of 0 or below would leave a tile with no signal.
        if not self.gain_jitter < 1.0:
            raise ConfigError(f"gain_jitter must be in [0, 1), got {self.gain_jitter}")
        # Intensities lie in [0, 1]: a larger noise or offset only saturates.
        if not self.noise_sigma < 1.0:
            raise ConfigError(f"noise_sigma must be in [0, 1), got {self.noise_sigma}")
        if not abs(self.corner_offset) < 1.0:
            raise ConfigError(f"corner_offset must be in (-1, 1), got {self.corner_offset}")


@dataclass
class RunConfig:
    """Every setting of one run: the scan, the corrections and the simulation.

    A config file sets these fields by name (``seed`` sets
    ``degradation.rng_seed``) and ``manifest.json`` records them, so the
    defaults here are the only ones.  :meth:`validate` is the one check of
    both a loaded config and a loaded manifest.
    """

    scan: ScanConfig
    rois: list[RectROI]
    degradation: DegradationSpec = field(default_factory=DegradationSpec)
    epsilon: float = field(default=EPSILON_DEFAULT, metadata={"least": 0})
    band_px: int = field(default=BAND_PX_DEFAULT, metadata={"least": 1})
    bright_level: float = 0.9
    dark_level: float = 0.0
    subpixel: bool = False
    per_frame_ms: float = 60.5
    # The target_* settings shape only the simulated target; no manifest records them.
    target_pattern: TargetPattern = field(default=TargetPattern.USAF_LIKE, metadata=UNRECORDED)
    target_value: float = field(default=0.9, metadata=UNRECORDED)
    target_pitch: int = field(default=32, metadata=UNRECORDED)
    target_width: int | None = field(default=None, metadata=UNRECORDED)
    target_height: int | None = field(default=None, metadata=UNRECORDED)
    regions: list[RegionSpec] | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming the first setting of a wrong type or value."""
        self.scan.validate()
        self.degradation.validate()
        check_fields(self)
        for k, roi in enumerate(self.rois):
            check_fields(roi, f"rois[{k}].")
            try:
                roi.check_within((self.scan.tile_height, self.scan.tile_width))
            except DimensionMismatchError as exc:
                raise ConfigError(f"key 'rois': {exc}") from exc
        for k, region in enumerate(self.regions or []):
            check_fields(region.rect, f"regions[{k}].")
        if self.per_frame_ms < self.scan.settle_ms:
            raise ConfigError(
                f"key 'per_frame_ms': {self.per_frame_ms} ms must cover the settling period "
                f"({self.scan.settle_ms} ms)"
            )
        # The manifest records the total as a JSON number, which is finite.
        total_s = timing_report(self.scan, self.per_frame_ms)
        if not math.isfinite(total_s):
            raise ConfigError(
                f"key 'per_frame_ms': {self.per_frame_ms} ms per frame over "
                f"{self.scan.n_rows} x {self.scan.n_cols} tiles makes a total of {total_s} s"
            )
        # The levels are stored on the 16-bit grid, where the stitcher
        # needs them to stay apart.
        if not snap_level(self.bright_level) > snap_level(self.dark_level):
            raise ConfigError(
                f"key 'bright_level': must be > dark_level on the 16-bit grid, got "
                f"{self.bright_level} and {self.dark_level}"
            )


@dataclass
class Tile:
    """One acquired frame with its grid indices."""

    row: int
    col: int
    data: np.ndarray


def _usaf_layout(width: int, height: int) -> dict[str, RectROI]:
    """Measurement-region rectangles for the bar-target pattern.

    Canonical region sizes (400x400 signal, 1400x700 bright, 700x900
    dark) are used whenever the target is large enough, otherwise scaled
    down so everything still fits.
    """
    sig = max(2, min(400, width // 6, height // 6))
    bright_w = max(2, min(1400, int(width * 0.35)))
    bright_h = max(2, min(700, int(height * 0.18)))
    dark_w = max(2, min(700, int(width * 0.20)))
    dark_h = max(2, min(900, int(height * 0.22)))
    return {
        "signal": RectROI(x0=int(width * 0.24), y0=int(height * 0.22), width=sig, height=sig),
        "bright": RectROI(x0=int(width * 0.52), y0=int(height * 0.12), width=bright_w, height=bright_h),
        "dark": RectROI(x0=int(width * 0.14), y0=int(height * 0.58), width=dark_w, height=dark_h),
    }


def _bar_layout(width: int, height: int) -> list[list[RectROI]]:
    """Dark bars of the USAF-like target's six bar groups, one list per group.

    Three groups of vertical bars of halving pitch (64/32/16 px) stand side
    by side; three groups of horizontal bars (48/24/12 px) are stacked
    below.  A pitch is clamped to [4, half the group size].  Each bar
    starts a period of twice the pitch, and the last one is cut at the
    group edge.  A group that does not fit the target is left out.
    """
    groups = []
    x0 = int(width * 0.55)
    y0, y1 = int(height * 0.45), int(height * 0.62)
    group_w = int(width * 0.11)
    for k, pitch in enumerate((64, 32, 16)):
        pitch = max(4, min(pitch, group_w // 2))
        gx0 = x0 + k * (group_w + group_w // 4)
        gx1 = min(gx0 + group_w, width)
        if gx0 < gx1 and y0 < y1:
            groups.append([
                RectROI(x0=x, y0=y0, width=min(pitch, gx1 - x), height=y1 - y0)
                for x in range(gx0, gx1, 2 * pitch)
            ])
    hx0, hx1 = int(width * 0.20), int(width * 0.45)
    hy0 = int(height * 0.76)
    group_h = int(height * 0.05)
    for k, pitch in enumerate((48, 24, 12)):
        pitch = max(4, min(pitch, group_h // 2))
        gy0 = hy0 + k * (group_h + group_h // 4)
        gy1 = min(gy0 + group_h, height)
        if gy0 < gy1 and hx0 < hx1:
            groups.append([
                RectROI(x0=hx0, y0=y, width=hx1 - hx0, height=min(pitch, gy1 - y))
                for y in range(gy0, gy1, 2 * pitch)
            ])
    return groups


class _Target:
    """The uint16 counts of a synthetic target, drawn one window at a time.

    The target is a bright field with dark column stripes (BARS) or dark
    rectangles (USAF_LIKE: the signal block, the dark region and every
    bar) on it.  ``target[rows, cols]``, two slices of step 1, draws the
    window as a new array: the bright count, then the stripes and the
    part of each rectangle that meets the window.  No array of the whole
    target is held.
    """

    def __init__(
        self, width: int, height: int, pattern: TargetPattern, value: float, pitch: int
    ):
        if width < 1 or height < 1:
            raise ConfigError(f"target dims must be positive, got {width}x{height}")
        self.shape = (height, width)
        self.bright = pgm.to_u16(np.array(value))
        self.dark = pgm.to_u16(np.array(DARK_SHADE))
        self.pitch = 0
        rects: list[RectROI] = []
        if pattern is TargetPattern.BARS:
            if pitch < 1:
                raise ConfigError(f"bar pitch must be >= 1, got {pitch}")
            self.pitch = pitch
        elif pattern is TargetPattern.USAF_LIKE:
            layout = _usaf_layout(width, height)
            rects = [layout["signal"], layout["dark"]]
            rects += [bar for group in _bar_layout(width, height) for bar in group]
        # Edges of each dark rectangle: top, bottom, left, right.
        self._rects = [(r.y0, r.y1, r.x0, r.x1) for r in rects]

    def __getitem__(self, key: tuple[slice, slice]) -> np.ndarray:
        top, bottom, _ = key[0].indices(self.shape[0])
        left, right, _ = key[1].indices(self.shape[1])
        out = np.empty((max(bottom - top, 0), max(right - left, 0)), dtype=np.uint16)
        if self.pitch:
            x = np.arange(left, right)
            out[:] = np.where(x // self.pitch % 2 == 0, self.dark, self.bright)
        else:
            out.fill(self.bright)
        for y0, y1, x0, x1 in self._rects:
            if y0 < bottom and top < y1 and x0 < right and left < x1:
                out[max(y0 - top, 0):y1 - top, max(x0 - left, 0):x1 - left] = self.dark
        return out


def make_target(
    width: int,
    height: int,
    pattern: TargetPattern,
    value: float = 0.9,
    pitch: int = 32,
) -> np.ndarray:
    """Deterministic synthetic target, quantized to the 16-bit grid.

    UNIFORM is a constant field at ``value``; BARS is a period-2*pitch
    square wave along x between ``value`` and a fixed dark shade;
    USAF_LIKE is a bright field carrying a dark signal block, clean
    bright and dark measurement regions, and bar groups of decreasing
    pitch (see :func:`target_regions` for the region rectangles).
    """
    return pgm.to_unit(_Target(width, height, pattern, value, pitch)[:, :])


def target_regions(width: int, height: int, pattern: TargetPattern) -> list[RegionSpec]:
    """Measurement regions matching :func:`make_target`'s layout."""
    if pattern is not TargetPattern.USAF_LIKE:
        return []
    layout = _usaf_layout(width, height)
    return [
        RegionSpec(name="signal", rect=layout["signal"], kind=RegionKind.SIGNAL),
        RegionSpec(name="bright", rect=layout["bright"], kind=RegionKind.BRIGHT_BACKGROUND),
        RegionSpec(name="dark", rect=layout["dark"], kind=RegionKind.DARK_BACKGROUND),
    ]


def _crop(
    src: np.ndarray, to_float, p: TilePlacement, tw: int, th: int, subpixel: bool,
    out: np.ndarray | None = None, term: np.ndarray | None = None, top: int = 0,
) -> np.ndarray:
    """Rows ``top..top + th`` of the tile-sized float64 sample of ``src`` at
    placement ``p``.

    ``to_float`` turns a window of ``src`` into a float64 array that the
    caller does not read again, so only the window the rows need is
    converted.  An integer crop takes the rounded offset and is that
    array; its window ends at ``p.x + tw``.  A subpixel crop interpolates
    bilinearly at the exact offset, from a window that ends at
    ``floor(p.dx) + tw + (fx > 0)``, which is ``ceil(p.dx) + tw``, into
    ``out`` with each later term in ``term`` (th x tw float64 buffers; new
    arrays where not given).  Likewise in y.  Each pixel is worked out
    from its own neighbours alone, so rows cut in blocks are the rows of
    the whole sample, bit for bit.  The callers check ``src`` against
    :func:`required_truth_dims`, the largest of these ends.
    """
    if not subpixel:
        return to_float(src[p.y + top:p.y + top + th, p.x:p.x + tw])
    ix, iy = math.floor(p.dx), math.floor(p.dy)
    fx, fy = p.dx - ix, p.dy - iy
    win = to_float(src[iy + top:iy + top + th + (fy > 0), ix:ix + tw + (fx > 0)])
    out = np.multiply(win[:th, :tw], (1 - fy) * (1 - fx), out=out)
    if fx > 0:
        out += np.multiply(win[:th, 1:], (1 - fy) * fx, out=term)
    if fy > 0:
        out += np.multiply(win[1:, :tw], fy * (1 - fx), out=term)
    if fx > 0 and fy > 0:
        out += np.multiply(win[1:, 1:], fy * fx, out=term)
    return out


def required_truth_dims(cfg: ScanConfig, subpixel: bool = False) -> tuple[int, int]:
    """Smallest ground-truth image this scan can be cut from.

    Integer extraction needs the rounded canvas footprint; subpixel
    extraction needs the ceiling of each offset plus the interpolation
    neighbor, which can exceed the rounded canvas by one pixel.
    """
    placements = placement_table(cfg)
    if not subpixel:
        return canvas_dims(placements, cfg.tile_width, cfg.tile_height)
    w = max(math.ceil(p.dx) for p in placements) + cfg.tile_width
    h = max(math.ceil(p.dy) for p in placements) + cfg.tile_height
    return w, h


def extract_tiles(
    truth: np.ndarray, cfg: ScanConfig, subpixel: bool = False
) -> list[Tile]:
    """Cut one tile per grid coordinate out of the ground-truth image.

    By default tiles are integer crops at the rounded placement offsets,
    which makes raw composition a lossless round trip.  With
    ``subpixel=True`` tiles are bilinear samples at the exact real-valued
    offsets, so the later rounding introduces the sub-pixel mismatch a
    real scanner exhibits between neighboring frames.
    """
    truth = np.asarray(truth, dtype=np.float64)
    h, w = truth.shape
    tw, th = cfg.tile_width, cfg.tile_height
    need_w, need_h = required_truth_dims(cfg, subpixel=subpixel)
    if w < need_w or h < need_h:
        raise CoverageError(
            f"truth image {w}x{h} too small; this scan needs at least {need_w}x{need_h}"
        )
    return [
        Tile(row=p.row, col=p.col, data=_crop(truth, np.copy, p, tw, th, subpixel))
        for p in placement_table(cfg)
    ]


def vignette_field(height: int, width: int, vignette_min: float) -> np.ndarray:
    """Radial quadratic gain: 1 at the frame center, vignette_min at corners.

    The field is mirror-symmetric in both axes, bit for bit: rows ``r`` and
    ``height - 1 - r`` lie at ``y`` and ``-y``, exact integers or
    half-integers, so their ``y**2`` agree; likewise the columns.
    """
    return _vignette(height, width, vignette_min, 0, 0)


def _vignette(height: int, width: int, vignette_min: float, top: int, left: int) -> np.ndarray:
    """Rows ``top..`` and columns ``left..`` of :func:`vignette_field`, worked
    out from their own coordinates."""
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    y = np.arange(top, height, dtype=np.float64) - cy
    x = np.arange(left, width, dtype=np.float64) - cx
    r2_corner = cy**2 + cx**2
    if r2_corner == 0.0:
        return np.ones((y.size, x.size), dtype=np.float64)
    # 1 - (1 - vignette_min) * (r2 / r2_corner), in the one array of r2.
    gain = y[:, None] ** 2 + x[None, :] ** 2
    gain /= r2_corner
    gain *= 1.0 - vignette_min
    return np.subtract(1.0, gain, out=gain)


def _field(
    spec: DegradationSpec, rois: Sequence[RectROI], th: int, tw: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vignette gain and ROI corner offset of a th x tw frame."""
    vignette = vignette_field(th, tw, spec.vignette_min)
    offset = np.zeros((th, tw), dtype=np.float64)
    for roi in rois:
        roi.check_within((th, tw))
        rows, cols = roi.slices()
        offset[rows, cols] += spec.corner_offset
    return vignette, offset


def _offset_runs(
    spec: DegradationSpec, rois: Sequence[RectROI]
) -> list[tuple[int, int, int, np.ndarray]]:
    """The offset field of :func:`_field` as row runs ``(top, bottom, left, row)``.

    The rows are cut at every ROI's top and bottom edge, so all rows
    between two consecutive edges are alike.  Where ROIs cover them, a run
    holds that row over the columns the ROIs span, from column ``left``,
    summed in ROI order as :func:`_field` sums it.  Every other value of
    the field is 0.
    """
    edges = sorted({edge for roi in rois for edge in (roi.y0, roi.y1)})
    runs = []
    for top, bottom in zip(edges, edges[1:]):
        inside = [roi for roi in rois if roi.y0 <= top and bottom <= roi.y1]
        if inside:
            left = min(roi.x0 for roi in inside)
            row = np.zeros(max(roi.x1 for roi in inside) - left)
            for roi in inside:
                row[roi.x0 - left:roi.x1 - left] += spec.corner_offset
            runs.append((top, bottom, left, row))
    return runs


def _noise(rng: np.random.Generator, sigma: float, shape: tuple[int, int], out=None):
    """Gaussian noise of ``shape``, into ``out`` if given; None when ``sigma`` is 0.

    Standard normal draws scaled in place: the bits of
    ``rng.normal(0.0, sigma, shape)`` without a second array.
    """
    if not sigma > 0.0:
        return None
    noise = rng.standard_normal(shape) if out is None else rng.standard_normal(out=out)
    noise *= sigma
    return noise


def _tile_rng(spec: DegradationSpec, row: int, col: int) -> tuple[float, np.random.Generator]:
    """Gain jitter of tile (row, col), the first draw of the tile's own
    generator, and that generator, whose normal draws are the tile's noise."""
    rng = np.random.default_rng([spec.rng_seed, 0, row, col])
    return rng.uniform(1.0 - spec.gain_jitter, 1.0 + spec.gain_jitter), rng


def _reference_rng(spec: DegradationSpec, which: int) -> np.random.Generator:
    """The generator of reference frame ``which`` (0 bright, 1 dark)."""
    return np.random.default_rng([spec.rng_seed, 1, which])


def _tile_draws(spec: DegradationSpec, row: int, col: int, shape: tuple[int, int]):
    """Gain jitter and whole-frame noise (None when ``noise_sigma`` is 0) of
    tile (row, col), as :func:`degrade` draws them.

    :func:`write_dataset` draws the same noise from the same generator
    one block of rows at a time (see :meth:`_Frames.write`).
    """
    jitter, rng = _tile_rng(spec, row, col)
    return jitter, _noise(rng, spec.noise_sigma, shape)


def _finish(img: np.ndarray, noise) -> np.ndarray:
    """In place: ``img + noise``, clamped to [0, 1]."""
    if noise is not None:
        img += noise
    np.clip(img, 0.0, 1.0, out=img)
    return img


def _degrade_tile(img, vignette, offset, jitter, noise) -> np.ndarray:
    """In place: ``((img * vignette) * jitter + offset) + noise``, clamped."""
    img *= vignette
    img *= jitter
    img += offset
    return _finish(img, noise)


def _reference(spec: DegradationSpec, which: int, level: float, vignette, offset) -> np.ndarray:
    """Uniform frame at ``level`` through the field effects, without jitter."""
    noise = _noise(_reference_rng(spec, which), spec.noise_sigma, vignette.shape)
    img = vignette * level
    img += offset
    return _finish(img, noise)


@dataclass(frozen=True)
class _Frames:
    """What the frames of one dataset share; :meth:`write` writes one frame.

    No array of a frame's size is held.  ``quadrant`` is the lower right
    quadrant of the frame's vignette field, its rows ``th // 2..`` and
    columns ``tw // 2..``: the field is mirror-symmetric in both axes, so
    the quadrant holds every value of it.  ``runs`` is the ROI offset
    field as row runs (:func:`_offset_runs`).  ``buffers`` holds each
    worker's block buffers, made by its first frame and kept for the rest,
    so no frame faults in fresh pages for them.
    """

    target: _Target
    shape: tuple[int, int]
    quadrant: np.ndarray
    runs: list[tuple[int, int, int, np.ndarray]]
    sigma: float
    subpixel: bool
    header: bytes
    buffers: dict[int, tuple[np.ndarray, ...]] = field(default_factory=dict)

    def write(
        self, worker: int, path: Path, rng: np.random.Generator, jitter: float,
        source: TilePlacement | float,
    ) -> None:
        """Write to ``path`` the frame of ``source``: the target's tile at a
        placement, or a uniform field at a level (a reference frame, whose
        ``jitter`` is 1).

        Each block of ``_BLOCK_ROWS`` rows is degraded as
        :func:`_degrade_tile` degrades those rows of the clean frame, with
        the fields and the next noise draws of ``rng``, then encoded and
        written, so the file holds the bytes of the whole-frame pipeline
        (``level * vignette`` is ``vignette * level``; a gain of 1 changes
        no bit).  Only the pixels of an offset run get its add: with a gain
        above 0 every pixel is at least +0.0 before it, so adding the
        field's 0 elsewhere would change no bit.  Either worker of
        :func:`halves.each` runs this, so it calls numpy, private helpers,
        ``pgm.scale_to_counts`` and ``open`` only; ``worker`` picks its
        buffers.
        """
        th, tw = self.shape
        rows = min(th, _BLOCK_ROWS)
        if worker not in self.buffers:
            self.buffers[worker] = (np.empty((rows, tw)), np.empty((rows, tw)),
                                    np.empty((rows, tw)), np.empty((rows + 1) * (tw + 1)))
        block, term, noise, window = self.buffers[worker]

        def decode(counts: np.ndarray) -> np.ndarray:
            return pgm._decode(counts, window[:counts.size].reshape(counts.shape))

        with open(path, "wb") as f:
            f.write(self.header)
            for top in range(0, th, rows):
                n = min(rows, th - top)
                if isinstance(source, TilePlacement):
                    img = _crop(
                        self.target, decode, source, tw, n, self.subpixel,
                        block[:n], term[:n], top,
                    )
                else:
                    # In ``window``, as an integer crop: only a subpixel
                    # crop touches, and so keeps, the pages of ``block``.
                    img = window[:n * tw].reshape(n, tw)
                    img.fill(source)
                # ``noise`` holds the vignette rows until the noise is drawn into it.
                img *= self._vignette_rows(top, noise[:n])
                img *= jitter
                for y0, y1, x0, row in self.runs:
                    if y0 < top + n and top < y1:
                        img[max(y0 - top, 0):y1 - top, x0:x0 + row.size] += row
                _finish(img, _noise(rng, self.sigma, (n, tw), noise[:n]))
                f.write(pgm.scale_to_counts(img).astype(">u2"))

    def _vignette_rows(self, top: int, out: np.ndarray) -> np.ndarray:
        """Rows ``top..top + len(out)`` of the vignette field, copied into
        ``out`` from the quadrant: the right half of each row, forward or
        mirrored, then its mirror image as the left half."""
        (th, tw), quadrant = self.shape, self.quadrant
        mid_row, mid_col = th // 2, tw // 2
        # Row r above the middle is row th - 1 - r, quadrant row th - 1 - r - mid_row.
        above = min(max(mid_row - top, 0), len(out))
        if above:
            first = th - 1 - top - mid_row
            out[:above, mid_col:] = quadrant[first - above + 1:first + 1][::-1]
        out[above:, mid_col:] = quadrant[top + above - mid_row:top + len(out) - mid_row]
        # Column c left of the middle is column tw - 1 - c.
        out[:, :mid_col] = out[:, ::-1][:, :mid_col]
        return out


def degrade(
    tiles: Sequence[Tile],
    spec: DegradationSpec,
    rois: Sequence[RectROI],
    bright_level: float = 0.9,
    dark_level: float = 0.0,
) -> tuple[list[Tile], np.ndarray, np.ndarray]:
    """Apply the degradation model and emit matching reference frames.

    Per tile: multiply by the vignette field, multiply by a per-tile
    gain drawn uniformly from [1 - gain_jitter, 1 + gain_jitter], add
    ``corner_offset`` inside every ROI footprint, add Gaussian noise,
    clamp to [0, 1].  The bright/dark references are uniform frames at
    the given levels pushed through the same field effects (no per-tile
    jitter, their own noise draws).  The input tiles are not modified.
    """
    spec.validate()
    if not tiles:
        raise ConfigError("degrade needs at least one tile")
    th, tw = tiles[0].data.shape
    vignette, offset = _field(spec, rois, th, tw)
    out = []
    for tile in tiles:
        if tile.data.shape != (th, tw):
            raise CoverageError(
                f"tile ({tile.row}, {tile.col}) shape {tile.data.shape} != {th}x{tw}"
            )
        jitter, noise = _tile_draws(spec, tile.row, tile.col, (th, tw))
        data = _degrade_tile(np.array(tile.data, dtype=np.float64), vignette, offset, jitter, noise)
        out.append(Tile(row=tile.row, col=tile.col, data=data))
    bright_ref = _reference(spec, 0, bright_level, vignette, offset)
    dark_ref = _reference(spec, 1, dark_level, vignette, offset)
    return out, bright_ref, dark_ref


def timing_report(cfg: ScanConfig, per_frame_ms: float) -> float:
    """Total acquisition time in seconds for the whole grid."""
    return cfg.n_rows * cfg.n_cols * per_frame_ms / 1000.0


def tile_filename(row: int, col: int, n_rows: int, n_cols: int) -> str:
    digits = max(2, len(str(max(n_rows, n_cols) - 1)))
    return f"tile_r{row:0{digits}d}_c{col:0{digits}d}.pgm"


# The JSON layout of ``manifest.json``: each key holds a key of the
# manifest's flat record (its fields and those of its run), or a group of
# them.  ``timing.settle_ms`` repeats ``scan.settle_ms``, and ``timing.total_s``
# is :func:`timing_report` of the scan and ``per_frame_ms``.
_LAYOUT = {
    "scan": "scan", "tiles": "tiles", "truth": "truth", "degradation": "degradation",
    "subpixel": "subpixel", "rois": "rois", "regions": "regions",
    "reference": {"bright": "reference.bright", "dark": "reference.dark",
                  "bright_level": "bright_level", "dark_level": "dark_level"},
    "correction": {"epsilon": "epsilon", "band_px": "band_px"},
    "timing": {"settle_ms": "settle_ms", "per_frame_ms": "per_frame_ms", "total_s": "total_s"},
}


@dataclass(frozen=True)
class TileFile:
    """One ``tiles`` entry of ``manifest.json``: a tile's grid indices and
    the name of its file in the dataset directory."""

    row: int
    col: int
    path: str


@dataclass
class DatasetManifest:
    """Everything needed to reproduce and stitch one emitted dataset.

    ``run`` is the run's settings with the reference levels snapped to
    the 16-bit grid and the metric regions resolved; a loaded one holds
    the defaults of the unrecorded ``target_*`` settings.  Loading reads
    every other key exactly, runs :meth:`validate`, the checks a config
    gets, and checks the copy of ``settle_ms`` and ``total_s`` against the
    values the scan and ``per_frame_ms`` give.
    """

    run: RunConfig = field(metadata=INLINE)
    tiles: list[TileFile]
    # The file names are recorded under their keys in the file.
    truth_path: str = field(metadata={"json": "truth"})
    ref_bright_path: str = field(metadata={"json": "reference.bright"})
    ref_dark_path: str = field(metadata={"json": "reference.dark"})
    total_s: float

    def validate(self) -> None:
        """:meth:`RunConfig.validate`, then: the regions are resolved, every grid
        coordinate appears exactly once and every path is a plain file name."""
        self.run.validate()
        if self.run.regions is None:
            raise ConfigError("manifest key 'regions': expected a list, got None")
        for k, t in enumerate(self.tiles):
            if not _plain_file_name(t.path):
                raise GalvoMosaicError(
                    f"manifest key 'tiles[{k}].path' of tile ({t.row}, {t.col}): "
                    f"expected a plain file name, got {t.path!r}"
                )
        for key, value in (("truth", self.truth_path), ("reference.bright", self.ref_bright_path),
                           ("reference.dark", self.ref_dark_path)):
            if not _plain_file_name(value):
                raise GalvoMosaicError(
                    f"manifest key {key!r}: expected a plain file name, got {value!r}"
                )
        scan = self.run.scan
        seen = {(t.row, t.col) for t in self.tiles}
        expected = {(i, j) for i in range(scan.n_rows) for j in range(scan.n_cols)}
        if len(self.tiles) != len(expected) or seen != expected:
            raise GalvoMosaicError(
                f"manifest tile list inconsistent: missing {sorted(expected - seen)}, "
                f"unexpected {sorted(seen - expected)}"
            )

    def to_json(self) -> str:
        flat = {**fields_dict(self), "settle_ms": self.run.scan.settle_ms}
        return dumps_indented(group(flat, _LAYOUT)) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        try:
            flat = ungroup(json.loads(text), _LAYOUT)
            settle_ms = flat.pop("settle_ms")
            manifest = read(cls, flat)
        except ValueError as exc:
            raise GalvoMosaicError(f"malformed manifest: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"manifest {exc}") from None
        manifest.validate()
        run = manifest.run
        for key, given, written in (
            ("timing.settle_ms", settle_ms, run.scan.settle_ms),
            ("timing.total_s", manifest.total_s, timing_report(run.scan, run.per_frame_ms)),
        ):
            if given != written:
                raise GalvoMosaicError(
                    f"manifest key {key!r}: {given!r} disagrees with {written!r}, "
                    "the value the other keys give"
                )
        return manifest


def _plain_file_name(value) -> bool:
    """Whether a manifest path names a file in the dataset directory itself."""
    named = isinstance(value, str) and value not in ("", ".", "..")
    return named and os.path.basename(value) == value


def snap_level(level: float) -> float:
    """Snap a normalized level onto the 16-bit storage grid."""
    return float(pgm.to_u16(np.array(level))) / pgm.MAXVAL


def write_dataset(out_dir: str | os.PathLike, run: RunConfig) -> DatasetManifest:
    """Generate and write a complete dataset; returns its manifest.

    The ground truth defaults to exactly the canvas footprint of the
    scan.  Reference levels are snapped onto the 16-bit grid before use
    so the stored reference frames encode them exactly.  Every input is
    checked before the first file is written.  No array of the whole
    target is made: ``truth.pgm`` is drawn in blocks of rows, and each
    frame block by block, a tile from its own window of the target.
    When frames hold at least ``halves.SPLIT_MIN`` pixels, the truth and
    the frames are written by two threads, each file whole by one
    (:func:`galvomosaic.halves.each`); else in order, the truth first.
    ``manifest.json`` is the commit point: an earlier one is removed
    first and the new one is put in place whole, last, once every other
    file is written, so a dataset with a manifest is complete.  An error
    in either thread stops both from starting another file, and is
    raised once both have stopped.
    """
    run.validate()
    scan, degradation, subpixel = run.scan, run.degradation, run.subpixel
    need_w, need_h = required_truth_dims(scan, subpixel=subpixel)
    width = run.target_width if run.target_width is not None else need_w
    height = run.target_height if run.target_height is not None else need_h
    if width < need_w or height < need_h:
        raise CoverageError(
            f"target {width}x{height} smaller than required canvas {need_w}x{need_h}"
        )

    target = _Target(width, height, run.target_pattern, run.target_value, run.target_pitch)
    given = run.regions
    run = replace(
        run,
        bright_level=snap_level(run.bright_level),
        dark_level=snap_level(run.dark_level),
        regions=given if given is not None else target_regions(width, height, run.target_pattern),
    )
    tw, th = scan.tile_width, scan.tile_height
    placements = placement_table(scan)
    # The mosaic is the scan's canvas, however large the target: every
    # region must lie on it for evaluate to measure it.
    mosaic_w, mosaic_h = canvas_dims(placements, tw, th)
    for region in run.regions:
        try:
            region.rect.check_within((mosaic_h, mosaic_w))
        except DimensionMismatchError as exc:
            key = "'target_width'/'target_height'" if given is None else f"'region_{region.name}'"
            raise ConfigError(
                f"key {key}: region {region.name!r} lies outside the mosaic: {exc}"
            ) from None
    names = [tile_filename(p.row, p.col, scan.n_rows, scan.n_cols) for p in placements]
    manifest = DatasetManifest(
        run=run,
        tiles=[TileFile(p.row, p.col, n) for p, n in zip(placements, names)],
        truth_path="truth.pgm",
        ref_bright_path="ref_bright.pgm",
        ref_dark_path="ref_dark.pgm",
        total_s=timing_report(scan, run.per_frame_ms),
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    # Both headers are made here: the workers call no public function.
    frames = _Frames(
        target, (th, tw), _vignette(th, tw, degradation.vignette_min, th // 2, tw // 2),
        _offset_runs(degradation, run.rois), degradation.noise_sigma, subpixel,
        pgm.pgm_header(tw, th),
    )
    truth_header = pgm.pgm_header(width, height)
    references = (("ref_bright.pgm", run.bright_level), ("ref_dark.pgm", run.dark_level))

    def write_file(worker: int, k: int) -> None:
        # Item 0 is the truth, then the two references, then the tiles.
        if k == 0:
            with open(out / "truth.pgm", "wb") as f:
                f.write(truth_header)
                for top in range(0, height, _BLOCK_ROWS):
                    f.write(target[top:top + _BLOCK_ROWS, :].astype(">u2"))
        elif k <= len(references):
            name, level = references[k - 1]
            frames.write(worker, out / name, _reference_rng(degradation, k - 1), 1.0, level)
        else:
            k -= 1 + len(references)
            jitter, rng = _tile_rng(degradation, placements[k].row, placements[k].col)
            frames.write(worker, out / names[k], rng, jitter, placements[k])

    halves.each(write_file, 1 + len(references) + len(placements), th * tw)

    with pgm.replacing(out / "manifest.json") as f:
        f.write(manifest.to_json().encode("ascii"))
    return manifest


def load_manifest(dataset_dir: str | os.PathLike) -> DatasetManifest:
    path = Path(dataset_dir) / "manifest.json"
    if not path.exists():
        raise GalvoMosaicError(f"no manifest.json in {dataset_dir}")
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise GalvoMosaicError(f"malformed manifest {path}: {exc}") from exc
    return DatasetManifest.from_json(text)
