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

import dataclasses
import functools
import json
import math
import numbers
import types
import typing
from dataclasses import dataclass, field
from enum import Enum, EnumMeta

from .errors import ConfigError, DegenerateGridError, IndexRangeError


@functools.lru_cache(maxsize=None)
def scalar_fields(cls) -> tuple[tuple[str, type, bool], ...]:
    """``(name, T, takes None)`` for each field of dataclass ``cls`` annotated
    ``T`` or ``T | None``, where ``T`` is ``int``, ``float``, ``bool`` or an enum.
    """
    out = []
    for name, hint in typing.get_type_hints(cls).items():
        optional = type(None) in typing.get_args(hint)
        if typing.get_origin(hint) is types.UnionType:
            hint = next(a for a in typing.get_args(hint) if a is not type(None))
        if hint in (int, float, bool) or isinstance(hint, EnumMeta):
            out.append((name, hint, optional))
    return tuple(out)


# What each scalar annotation admits; an enum admits only its members.
_ADMITS = {int: numbers.Integral, float: numbers.Real, bool: bool}


def check_fields(spec, prefix: str = "") -> None:
    """Raise :class:`ConfigError` naming the first scalar field of ``spec``
    whose value does not fit its annotation; ``prefix`` goes before the
    field name in the message.

    An ``int`` takes any integer but no bool, a ``float`` takes any real
    number but no bool and must be finite, a ``bool`` takes only a bool,
    an enum only its members, and ``T | None`` also takes ``None``.
    """
    for name, kind, optional in scalar_fields(type(spec)):
        value = getattr(spec, name)
        if value is None and optional:
            continue
        # bool is an Integral, so it is told apart first.
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, _ADMITS.get(kind, kind)):
            raise ConfigError(f"key {prefix + name!r}: expected {kind.__name__}, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{prefix + name} must be finite, got {value}")


def check_json(value, kinds: tuple[type, ...], key: str):
    """``value``, read from JSON, if its type is exactly one of ``kinds``;
    otherwise :class:`ConfigError` naming ``key``.

    Parsed JSON holds only exact ``int``, ``float``, ``str``, ``bool``,
    ``list``, ``dict`` and ``None``, so an exact type test also keeps a
    bool out of an ``int`` field.
    """
    if type(value) not in kinds:
        names = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
        raise ConfigError(f"key {key!r}: expected {names}, got {value!r}")
    return value


_CONTAINERS = (dict, list, tuple)


@functools.lru_cache(maxsize=None)
def _flat_encoder(level: int):
    """Encoder of a container that holds no container, ``level`` deep.

    Without ``indent``, :mod:`json` encodes in C; the item separator
    carries the newline and the indent of the items one level down.
    """
    return json.JSONEncoder(separators=(",\n" + "  " * (level + 1), ": ")).encode


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (bool, int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _is_flat(value) -> bool:
    for member in value.values() if isinstance(value, dict) else value:
        if isinstance(member, _CONTAINERS):
            return False
    return True


def _rows_of_one_kind(value) -> bool:
    """Whether every member of the list ``value`` is a nonempty container
    holding no container, all dicts or all lists."""
    kind = dict if isinstance(value[0], dict) else (list, tuple)
    return all(member and isinstance(member, kind) and _is_flat(member) for member in value)


def _indented(value, level: int) -> str:
    # A raw newline never appears inside encoded JSON text, so in what the
    # flat encoders return the separators hold the only newlines.
    is_dict = isinstance(value, dict)
    if not value or not (is_dict or isinstance(value, (list, tuple))):
        return _flat_encoder(level)(value)
    open_, close = "{}" if is_dict else "[]"
    pad, inner = "  " * level, "  " * (level + 1)
    if _is_flat(value):
        return open_ + "\n" + inner + _flat_encoder(level)(value)[1:-1] + "\n" + pad + close
    if not is_dict and _rows_of_one_kind(value):
        # One call encodes the whole list.  Its members' closing and
        # opening brackets meet a separator only between two members, and
        # there the member indent is put back.
        row_open, row_close = "{}" if isinstance(value[0], dict) else "[]"
        deeper = "\n" + "  " * (level + 2)
        text = _flat_encoder(level + 1)(value)[2:-2].replace(
            row_close + "," + deeper + row_open,
            "\n" + inner + row_close + ",\n" + inner + row_open + deeper,
        )
        return (open_ + "\n" + inner + row_open + deeper + text + "\n" + inner + row_close
                + "\n" + pad + close)
    separator = ",\n" + inner
    if is_dict:
        body = separator.join(
            json.encoder.encode_basestring_ascii(_json_key(k)) + ": " + _indented(v, level + 1)
            for k, v in value.items()
        )
    else:
        body = separator.join(_indented(v, level + 1) for v in value)
    return open_ + "\n" + inner + body + "\n" + pad + close


def dumps_indented(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, in less time.

    ``indent`` makes :mod:`json` fall back to its pure-Python encoder;
    here every container that holds no container is encoded by the C
    encoder, with the indented item separator.
    """
    return _indented(value, 0)


@functools.lru_cache(maxsize=None)
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def fields_dict(spec) -> dict:
    """The dataclass fields of ``spec`` by name, in order, with enums as their values."""
    out = {}
    for name in _field_names(type(spec)):
        value = getattr(spec, name)
        out[name] = value.value if isinstance(value, Enum) else value
    return out


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

    n_rows: int
    n_cols: int
    dv_x: float
    dv_y: float
    s_x: float
    s_y: float
    alpha_x: float = 0.0
    alpha_y: float = 0.0
    strategy: ScanStrategy = ScanStrategy.LINEAR
    v0: float | None = None
    amplitude: float | None = None
    tile_width: int = 1000
    tile_height: int = 1000
    settle_ms: float = 30.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming the first invalid field."""
        check_fields(self)
        if self.n_rows < 1:
            raise ConfigError(f"n_rows must be >= 1, got {self.n_rows}")
        if self.n_cols < 1:
            raise ConfigError(f"n_cols must be >= 1, got {self.n_cols}")
        if self.tile_width < 1:
            raise ConfigError(f"tile_width must be >= 1, got {self.tile_width}")
        if self.tile_height < 1:
            raise ConfigError(f"tile_height must be >= 1, got {self.tile_height}")
        if not self.s_x > 0:
            raise ConfigError(f"s_x must be > 0, got {self.s_x}")
        if not self.s_y > 0:
            raise ConfigError(f"s_y must be > 0, got {self.s_y}")
        if self.settle_ms < 0:
            raise ConfigError(f"settle_ms must be >= 0, got {self.settle_ms}")
        if self.strategy is ScanStrategy.SINUSOIDAL and self.n_cols >= 2:
            _, amplitude = self.sine_params()
            if amplitude < 0:
                raise ConfigError(f"amplitude must be >= 0, got {amplitude}")

    def sine_params(self) -> tuple[float, float]:
        """Resolved ``(v0, amplitude)`` with span-matching defaults."""
        amplitude = self.amplitude
        if amplitude is None:
            amplitude = (self.n_cols - 1) * self.dv_x / 2.0
        v0 = self.v0 if self.v0 is not None else amplitude
        return v0, amplitude


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


def linear_offset(cfg: ScanConfig, i: int, j: int) -> TilePlacement:
    """Placement of tile (i, j) under uniform voltage stepping."""
    _check_indices(cfg, i, j)
    dx = j * cfg.dv_x * cfg.s_x + cfg.alpha_x * i
    dy = i * cfg.dv_y * cfg.s_y + cfg.alpha_y * j
    return TilePlacement(row=i, col=j, dx=dx, dy=dy)


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
    dy = i * cfg.dv_y * cfg.s_y + cfg.alpha_y * j
    return TilePlacement(row=i, col=j, dx=dx, dy=dy)


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
