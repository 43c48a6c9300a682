"""Scan-index to global-pixel geometry for galvo-scanned tile grids.

The scanner visits an ``n_rows x n_cols`` grid of coordinates.  A tile
acquired at grid indices ``(i, j)`` (0-based, row-major) lands in the
global mosaic at a real-valued pixel offset ``(dx, dy)`` determined by
the drive voltages and the calibrated pixels-per-volt scales:

    linear:      dx = j * dv_x * s_x + alpha_x * i
    sinusoidal:  dx = V_x(j) * s_x  + alpha_x * i
    both:        dy = i * dv_y * s_y + alpha_y * j

``V_x(j) = v0 + amplitude * sin(j*pi/(n_cols-1) - pi/2)`` sweeps the
phase from -pi/2 at the first column to +pi/2 at the last, so the end
columns coincide with the linear ones when ``v0 = amplitude =
(n_cols-1)*dv_x/2`` (the defaults).  The ``alpha`` terms compensate a
systematic tilt of the scan axes and apply to both strategies.

A :class:`TilePlacement` rounds its offset to the integer canvas
offset ``(x, y)`` once, when it is made; every later stage reads that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import ConfigError, DegenerateGridError, IndexRangeError
from .records import check_fields


# The largest scan accepted.  The limits are checked from the config
# arithmetic alone, before any placement list or array is made: the tile
# count bounds the placement list and the dataset's files, the canvas
# area bounds ``truth.pgm`` and ``mosaic.pgm`` (2 B per canvas pixel, so
# 2 GiB at the limit), and the band bounds the float64 row band that
# stitch holds (canvas width x band depth x 8 B) to the same 2 GiB.
MAX_TILES = 2**20
MAX_CANVAS_PIXELS = 2**30
MAX_BAND_BYTES = 2 * MAX_CANVAS_PIXELS


class ScanStrategy(Enum):
    LINEAR = "linear"
    SINUSOIDAL = "sinusoidal"


@dataclass(frozen=True)
class ScanConfig:
    """Grid dimensions, drive voltages, and calibration constants.

    ``v0`` and ``amplitude`` apply only to the sinusoidal strategy; when
    left as ``None`` they default so the sinusoidal sweep spans exactly
    the linear one (first tile at voltage 0).  ``settle_ms`` is carried
    as acquisition metadata only.
    """

    n_rows: int = field(metadata={"least": 1})
    n_cols: int = field(metadata={"least": 1})
    dv_x: float
    dv_y: float
    s_x: float
    s_y: float
    alpha_x: float = 0.0
    alpha_y: float = 0.0
    strategy: ScanStrategy = ScanStrategy.LINEAR
    v0: float | None = None
    amplitude: float | None = None
    tile_width: int = field(default=1000, metadata={"least": 1})
    tile_height: int = field(default=1000, metadata={"least": 1})
    settle_ms: float = field(default=30.0, metadata={"least": 0})

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming the first invalid field."""
        check_fields(self)
        if not self.s_x > 0:
            raise ConfigError(f"s_x must be > 0, got {self.s_x}")
        if not self.s_y > 0:
            raise ConfigError(f"s_y must be > 0, got {self.s_y}")
        # Seams and feather ramps assume each later column lies right, each
        # later row below.  A step of 1 px or more keeps the rounded offsets
        # strictly increasing, as round_half_away is monotone.
        if self.n_cols >= 2:
            if self.strategy is ScanStrategy.SINUSOIDAL:
                key, step = "amplitude", self.sine_params()[1]
            else:
                key, step = "dv_x", self.dv_x
            if not step > 0:
                raise ConfigError(f"{key} must be > 0 over 2 or more columns, got {step}")
            if self.strategy is ScanStrategy.SINUSOIDAL:
                # The sweep is densest at its ends.
                last = self.n_cols - 1
                step = min(sinusoidal_voltage(self, 1) - sinusoidal_voltage(self, 0),
                           sinusoidal_voltage(self, last) - sinusoidal_voltage(self, last - 1))
            _check_step((key, "s_x"), step * self.s_x, "column")
        if self.n_rows >= 2:
            if not self.dv_y > 0:
                raise ConfigError(f"dv_y must be > 0 over 2 or more rows, got {self.dv_y}")
            _check_step(("dv_y", "s_y"), self.dv_y * self.s_y, "row")
        self._check_size()

    def _check_size(self) -> None:
        """Raise :class:`ConfigError` for a scan over :data:`MAX_TILES`,
        :data:`MAX_CANVAS_PIXELS` or :data:`MAX_BAND_BYTES`, from the four
        corner tiles and each grid row's end tiles alone.

        Each offset is monotone in the row index and in the column index,
        so the corner tiles hold its extremes and span the canvas.
        """
        if self.n_rows * self.n_cols > MAX_TILES:
            raise ConfigError(
                f"keys 'n_rows' and 'n_cols': {self.n_rows} x {self.n_cols} tiles, "
                f"over the limit of {MAX_TILES}"
            )
        corners = [tile_offset(self, i, j)
                   for i in (0, self.n_rows - 1) for j in (0, self.n_cols - 1)]
        width = max(p.dx for p in corners) - min(p.dx for p in corners) + self.tile_width
        height = max(p.dy for p in corners) - min(p.dy for p in corners) + self.tile_height
        if not width * height <= MAX_CANVAS_PIXELS:
            if width < height:
                keys = "'n_rows', 'dv_y', 's_y', 'alpha_y', 'tile_height'"
            elif self.strategy is ScanStrategy.SINUSOIDAL:
                keys = "'n_cols', 'dv_x', 'amplitude', 's_x', 'alpha_x', 'tile_width'"
            else:
                keys = "'n_cols', 'dv_x', 's_x', 'alpha_x', 'tile_width'"
            raise ConfigError(
                f"keys {keys}: the scan spans a canvas of {width:.6g} x {height:.6g} px, "
                f"over the limit of {MAX_CANVAS_PIXELS} px"
            )
        # The band is never deeper than the canvas, so only a canvas of more
        # than MAX_BAND_BYTES / 8 px needs the depth worked out.
        if width * (height + 1) * 8 <= MAX_BAND_BYTES:
            return
        depth = self._band_depth()
        if not width * depth * 8 <= MAX_BAND_BYTES:
            raise ConfigError(
                f"keys 'dv_x', 'dv_y', 's_x', 's_y', 'alpha_x', 'alpha_y': stitch would hold a "
                f"band of {width:.6g} x {depth} px of float64 "
                f"({width * depth * 8 / 2**30:.3g} GiB), over the limit of "
                f"{MAX_BAND_BYTES // 2**30} GiB"
            )

    def _band_depth(self) -> int:
        """The depth of the row band that stitch holds, in canvas rows,
        from each grid row's end tiles.

        Stitch emits a canvas row once no later tile reaches it, and holds
        the rows from the first unemitted one to the lowest one touched so
        far (``compose._band_schedule``).  Within a grid row ``y`` is
        monotone in the column, so at its last tile the band spans at most
        from the smaller of that tile's ``y`` and the lowest ``y`` of the
        later rows to the row's highest ``y`` plus a tile; a span that
        starts at an earlier row's highest ``y`` is no wider than that
        row's own.  The ``y`` are rounded as the placements round them.
        """
        ends = [(_dy(self, i, 0), _dy(self, i, self.n_cols - 1)) for i in range(self.n_rows)]
        low = min(min(pair) for pair in ends)
        later, span = math.inf, 0
        for first, last in reversed(ends):
            first, last = round_half_away(first - low), round_half_away(last - low)
            span = max(span, max(first, last) - min(last, later))
            later = min(later, first, last)
        return self.tile_height + span

    def sine_params(self) -> tuple[float, float]:
        """Resolved ``(v0, amplitude)`` with span-matching defaults."""
        amplitude = self.amplitude
        if amplitude is None:
            amplitude = (self.n_cols - 1) * self.dv_x / 2.0
        v0 = self.v0 if self.v0 is not None else amplitude
        return v0, amplitude


def _check_step(keys: tuple[str, str], step: float, axis: str) -> None:
    """Raise :class:`ConfigError` naming ``keys`` if the scan advances less
    than 1 px from one grid ``axis`` (column or row) to the next."""
    if not step >= 1.0:
        raise ConfigError(
            f"keys {keys[0]!r} and {keys[1]!r}: the {axis} step of {step:.6g} px is under "
            f"1 px over 2 or more {axis}s"
        )


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero."""
    if x >= 0.0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


@dataclass(frozen=True)
class TilePlacement:
    """Offset ``(dx, dy)`` of the tile acquired at grid indices (row, col),
    and ``(x, y)``, the same rounded half away from zero."""

    row: int
    col: int
    dx: float
    dy: float
    x: int = field(init=False)
    y: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", round_half_away(self.dx))
        object.__setattr__(self, "y", round_half_away(self.dy))


def _check_indices(cfg: ScanConfig, i: int, j: int) -> None:
    if not 0 <= i < cfg.n_rows:
        raise IndexRangeError(f"row index {i} outside [0, {cfg.n_rows})")
    if not 0 <= j < cfg.n_cols:
        raise IndexRangeError(f"col index {j} outside [0, {cfg.n_cols})")


def _dy(cfg: ScanConfig, i, j):
    """The Y offset of tile (i, j) under either strategy; ``i`` may be an
    array of row indices."""
    return i * cfg.dv_y * cfg.s_y + cfg.alpha_y * j


def linear_offset(cfg: ScanConfig, i: int, j: int) -> TilePlacement:
    """Placement of tile (i, j) under uniform voltage stepping."""
    _check_indices(cfg, i, j)
    dx = j * cfg.dv_x * cfg.s_x + cfg.alpha_x * i
    return TilePlacement(row=i, col=j, dx=dx, dy=_dy(cfg, i, j))


def sinusoidal_voltage(cfg: ScanConfig, j: int) -> float:
    """X drive voltage at column j under sinusoidal stepping.

    The phase runs from -pi/2 (j = 0) to +pi/2 (j = n_cols - 1), so the
    voltage sweeps v0 - amplitude .. v0 + amplitude with the densest
    sampling at the ends.  A single-column grid has no defined phase
    step and raises :class:`DegenerateGridError`.
    """
    if cfg.n_cols < 2:
        raise DegenerateGridError(
            "sinusoidal voltage needs n_cols >= 2 (phase step divides by n_cols - 1)"
        )
    if not 0 <= j < cfg.n_cols:
        raise IndexRangeError(f"col index {j} outside [0, {cfg.n_cols})")
    v0, amplitude = cfg.sine_params()
    return v0 + amplitude * math.sin(j * math.pi / (cfg.n_cols - 1) - math.pi / 2.0)


def sinusoidal_offset(cfg: ScanConfig, i: int, j: int) -> TilePlacement:
    """Placement of tile (i, j) under sinusoidal X stepping."""
    _check_indices(cfg, i, j)
    dx = sinusoidal_voltage(cfg, j) * cfg.s_x + cfg.alpha_x * i
    return TilePlacement(row=i, col=j, dx=dx, dy=_dy(cfg, i, j))


def tile_offset(cfg: ScanConfig, i: int, j: int) -> TilePlacement:
    """Placement of tile (i, j) under the configured strategy."""
    if cfg.strategy is ScanStrategy.SINUSOIDAL:
        return sinusoidal_offset(cfg, i, j)
    return linear_offset(cfg, i, j)


def placement_table(cfg: ScanConfig) -> list[TilePlacement]:
    """All placements in row-major order, shifted to nonnegative offsets.

    The common translation puts ``min dx = 0`` and ``min dy = 0`` so the
    canvas origin is the top-left of the mosaic; relative geometry is
    unchanged.
    """
    cfg.validate()
    raw = [
        tile_offset(cfg, i, j)
        for i in range(cfg.n_rows)
        for j in range(cfg.n_cols)
    ]
    min_dx = min(p.dx for p in raw)
    min_dy = min(p.dy for p in raw)
    return [
        TilePlacement(row=p.row, col=p.col, dx=p.dx - min_dx, dy=p.dy - min_dy)
        for p in raw
    ]
