"""Plain-text run configuration: one ``key = value`` per line, ``#`` comments.

The keys are the field names of :class:`~galvomosaic.geometry.ScanConfig`,
:class:`~galvomosaic.simulate.DegradationSpec` (``seed`` for ``rng_seed``)
and :class:`~galvomosaic.simulate.RunConfig`; each value is read as its
field's type, a key left out takes its field's default, and a field
without a default is a required key.  Two keys have their own syntax:

    rois            semicolon-separated "x0,y0,width,height" rects;
                    defaults per strategy when omitted
    region_signal, region_bright, region_dark
                    each "x0,y0,width,height"; optional metric regions
                    (the usaf target supplies its own)

The loaded settings pass :meth:`RunConfig.validate`, the same check a
loaded ``manifest.json`` gets.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, fields
from enum import EnumMeta
from pathlib import Path

from .correction import RectROI
from .errors import ConfigError
from .geometry import ScanConfig, ScanStrategy
from .metrics import RegionKind, RegionSpec
from .records import check_fields, field_table
from .simulate import DegradationSpec, RunConfig

_REGION_KINDS = {
    "region_signal": ("signal", RegionKind.SIGNAL),
    "region_bright": ("bright", RegionKind.BRIGHT_BACKGROUND),
    "region_dark": ("dark", RegionKind.DARK_BACKGROUND),
}
# Field name -> config key, where the two differ.
_ALIASES = {"rng_seed": "seed"}
# Each scalar setting is a key; the ROIs and the metric regions are keys
# with their own syntax.
CONFIG_KEYS = frozenset(
    _ALIASES.get(name, name)
    for cls in (ScanConfig, DegradationSpec, RunConfig)
    for name, *_ in field_table(cls).scalars
) | {"rois"} | set(_REGION_KINDS)


def default_rois(strategy: ScanStrategy, tile_width: int, tile_height: int) -> list[RectROI]:
    """Built-in correction ROIs per strategy, anchored to the lower corners.

    Linear scanning gets one 580x600 lower-left rectangle; sinusoidal
    gets two 200x400 rectangles, lower-left and lower-right.  Sizes clamp
    to the tile when it is smaller than the canonical frame.
    """
    if strategy is ScanStrategy.SINUSOIDAL:
        w = min(200, tile_width)
        h = min(400, tile_height)
        left = RectROI(x0=0, y0=tile_height - h, width=w, height=h)
        right = RectROI(x0=tile_width - w, y0=tile_height - h, width=w, height=h)
        if right.x0 <= left.x0:  # tile too narrow for two distinct corners
            return [left]
        return [left, right]
    w = min(580, tile_width)
    h = min(600, tile_height)
    return [RectROI(x0=0, y0=tile_height - h, width=w, height=h)]


def parse_kv(text: str, known) -> dict[str, str]:
    """Parse ``key = value`` lines; later duplicates override earlier ones.

    A key not in ``known`` is a :class:`ConfigError`.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    unknown = sorted(set(out) - set(known))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    return out


def _convert(key: str, value: str, kind: type):
    """``value`` as a ``kind`` (int, float, bool or enum); validate names a non-member."""
    if isinstance(kind, EnumMeta):
        return kind._value2member_map_.get(value.lower(), value)
    try:
        if kind is bool:
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {kind.__name__}") from exc


def _from_kv(cls, kv: dict[str, str], **given):
    """A ``cls`` whose fields not in ``given`` are read from their keys in ``kv``."""
    kinds = {name: kind for name, kind, *_ in field_table(cls).scalars}
    values = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        key = _ALIASES.get(f.name, f.name)
        if key in kv:
            values[f.name] = _convert(key, kv[key], kinds[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {key!r}")
    return cls(**values)


def parse_rect(key: str, value: str) -> RectROI:
    """The rectangle that ``value``, "x0,y0,width,height", holds; errors name ``key``."""
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"key {key!r}: expected 'x0,y0,width,height', got {value!r}")
    try:
        rect = RectROI(*(int(p) for p in parts))
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: bad rectangle {value!r}: {exc}") from exc
    check_fields(rect, f"{key}.")
    return rect


def regions_from_kv(kv: dict[str, str]) -> list[RegionSpec]:
    """The metric regions among parsed key-value pairs, in signal, bright, dark order."""
    return [
        RegionSpec(name=name, rect=parse_rect(key, kv[key]), kind=kind)
        for key, (name, kind) in _REGION_KINDS.items()
        if key in kv
    ]


def _read_kv(path: str | os.PathLike, known, what: str) -> dict[str, str]:
    """:func:`parse_kv` of the UTF-8 file ``path``; text that does not
    decode is a :class:`ConfigError` naming ``what`` and the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"malformed {what} {path}: {exc}") from exc
    return parse_kv(text, known)


def regions_from_file(path: str | os.PathLike) -> list[RegionSpec]:
    """The metric regions of a file holding only ``region_*`` keys, at least one."""
    regions = regions_from_kv(_read_kv(path, _REGION_KINDS, "regions file"))
    if not regions:
        raise ConfigError(f"{path}: no region_signal/region_bright/region_dark keys found")
    return regions


def load_run_config(
    path: str | os.PathLike,
    strategy_override: str | None = None,
    seed_override: int | None = None,
) -> RunConfig:
    """Load a config file into a validated RunConfig, applying CLI overrides."""
    kv = _read_kv(path, CONFIG_KEYS, "config")
    if strategy_override is not None:
        kv["strategy"] = strategy_override
    if seed_override is not None:
        kv["seed"] = str(seed_override)
    scan = _from_kv(ScanConfig, kv)
    if "rois" in kv:
        parts = [part for part in kv["rois"].split(";") if part.strip()]
        rois = [parse_rect(f"rois[{k}]", part) for k, part in enumerate(parts)]
        if not rois:
            raise ConfigError("key 'rois': no rectangles given")
    else:
        scan.validate()  # the default ROIs are cut to the tile size
        rois = default_rois(scan.strategy, scan.tile_width, scan.tile_height)
    degradation = _from_kv(DegradationSpec, kv)
    # Named by its config key here (``seed``), not by the field it sets.
    check_fields(degradation, keys=_ALIASES)
    rc = _from_kv(
        RunConfig,
        kv,
        scan=scan,
        rois=rois,
        degradation=degradation,
        regions=regions_from_kv(kv) or None,
    )
    rc.validate()
    return rc
