"""Plain-text run configuration: one ``key = value`` per line, ``#`` comments.

Scan keys (see :class:`~galvomosaic.geometry.ScanConfig`):
    n_rows, n_cols, dv_x, dv_y, s_x, s_y, alpha_x, alpha_y, strategy,
    v0, amplitude, tile_width, tile_height, settle_ms
Correction keys:
    rois            semicolon-separated "x0,y0,width,height" rects;
                    defaults per strategy when omitted
    epsilon, band_px
Simulation keys:
    vignette_min, corner_offset, gain_jitter, noise_sigma, seed,
    bright_level, dark_level, subpixel, per_frame_ms,
    target_pattern (uniform|bars|usaf), target_value, target_pitch,
    target_width, target_height
Metric-region keys (optional; the usaf target supplies its own):
    region_signal, region_bright, region_dark   each "x0,y0,width,height"
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .correction import BAND_PX_DEFAULT, EPSILON_DEFAULT, RectROI
from .errors import ConfigError, DimensionMismatchError
from .geometry import ScanConfig, ScanStrategy, require_finite
from .metrics import RegionKind, RegionSpec
from .simulate import DegradationSpec, TargetPattern, snap_level

SCAN_KEYS = (
    "n_rows", "n_cols", "dv_x", "dv_y", "s_x", "s_y", "alpha_x", "alpha_y",
    "strategy", "v0", "amplitude", "tile_width", "tile_height", "settle_ms",
)
_REGION_KINDS = {
    "region_signal": ("signal", RegionKind.SIGNAL),
    "region_bright": ("bright", RegionKind.BRIGHT_BACKGROUND),
    "region_dark": ("dark", RegionKind.DARK_BACKGROUND),
}
_KNOWN_KEYS = set(SCAN_KEYS) | set(_REGION_KINDS) | {
    "rois", "epsilon", "band_px",
    "vignette_min", "corner_offset", "gain_jitter", "noise_sigma", "seed",
    "bright_level", "dark_level", "subpixel", "per_frame_ms",
    "target_pattern", "target_value", "target_pitch", "target_width", "target_height",
}


@dataclass
class RunConfig:
    """Merged view of everything one pipeline run needs."""

    scan: ScanConfig
    rois: list[RectROI]
    degradation: DegradationSpec = field(default_factory=DegradationSpec)
    epsilon: float = EPSILON_DEFAULT
    band_px: int = BAND_PX_DEFAULT
    bright_level: float = 0.9
    dark_level: float = 0.0
    subpixel: bool = False
    per_frame_ms: float = 60.5
    target_pattern: TargetPattern = TargetPattern.USAF_LIKE
    target_value: float = 0.9
    target_pitch: int = 32
    target_width: int | None = None
    target_height: int | None = None
    regions: list[RegionSpec] | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming the first bad float field."""
        require_finite(self)
        if self.epsilon < 0:
            raise ConfigError(f"key 'epsilon': must be >= 0, got {self.epsilon}")
        # The levels are stored on the 16-bit grid, where the stitcher
        # needs them to stay apart.
        if not snap_level(self.bright_level) > snap_level(self.dark_level):
            raise ConfigError(
                f"key 'bright_level': must be > dark_level on the 16-bit grid, got "
                f"{self.bright_level} and {self.dark_level}"
            )


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


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; later duplicates override earlier ones."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _convert(key: str, value: str, kind):
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


def parse_rect(key: str, value: str) -> RectROI:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"key {key!r}: expected 'x0,y0,width,height', got {value!r}")
    try:
        x0, y0, w, h = (int(p) for p in parts)
        return RectROI(x0=x0, y0=y0, width=w, height=h)
    except (ValueError, DimensionMismatchError) as exc:
        raise ConfigError(f"key {key!r}: bad rectangle {value!r}: {exc}") from exc


def scan_config_from_kv(kv: dict[str, str]) -> ScanConfig:
    """Build and validate a ScanConfig from parsed key-value pairs."""
    for key in ("n_rows", "n_cols", "dv_x", "dv_y", "s_x", "s_y"):
        if key not in kv:
            raise ConfigError(f"missing required key {key!r}")
    strategy_text = kv.get("strategy", "linear").lower()
    try:
        strategy = ScanStrategy(strategy_text)
    except ValueError:
        raise ConfigError(
            f"key 'strategy': expected 'linear' or 'sinusoidal', got {strategy_text!r}"
        ) from None
    cfg = ScanConfig(
        n_rows=_convert("n_rows", kv["n_rows"], int),
        n_cols=_convert("n_cols", kv["n_cols"], int),
        dv_x=_convert("dv_x", kv["dv_x"], float),
        dv_y=_convert("dv_y", kv["dv_y"], float),
        s_x=_convert("s_x", kv["s_x"], float),
        s_y=_convert("s_y", kv["s_y"], float),
        alpha_x=_convert("alpha_x", kv.get("alpha_x", "0"), float),
        alpha_y=_convert("alpha_y", kv.get("alpha_y", "0"), float),
        strategy=strategy,
        v0=_convert("v0", kv["v0"], float) if "v0" in kv else None,
        amplitude=_convert("amplitude", kv["amplitude"], float) if "amplitude" in kv else None,
        tile_width=_convert("tile_width", kv.get("tile_width", "1000"), int),
        tile_height=_convert("tile_height", kv.get("tile_height", "1000"), int),
        settle_ms=_convert("settle_ms", kv.get("settle_ms", "30"), float),
    )
    cfg.validate()
    return cfg


def regions_from_kv(kv: dict[str, str]) -> list[RegionSpec]:
    """The metric regions among parsed key-value pairs, in signal, bright, dark order."""
    return [
        RegionSpec(name=name, rect=parse_rect(key, kv[key]), kind=kind)
        for key, (name, kind) in _REGION_KINDS.items()
        if key in kv
    ]


def load_run_config(
    path: str | os.PathLike,
    strategy_override: str | None = None,
    seed_override: int | None = None,
) -> RunConfig:
    """Load a config file into a RunConfig, applying CLI overrides."""
    text = Path(path).read_text(encoding="utf-8")
    kv = parse_kv(text)
    unknown = sorted(set(kv) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    if strategy_override is not None:
        kv["strategy"] = strategy_override
    scan = scan_config_from_kv(kv)

    if "rois" in kv:
        rois = []
        for part in kv["rois"].split(";"):
            part = part.strip()
            if part:
                rois.append(parse_rect("rois", part))
        if not rois:
            raise ConfigError("key 'rois': no rectangles given")
    else:
        rois = default_rois(scan.strategy, scan.tile_width, scan.tile_height)
    for roi in rois:
        try:
            roi.check_within((scan.tile_height, scan.tile_width))
        except Exception as exc:
            raise ConfigError(f"key 'rois': {exc}") from exc

    degradation = DegradationSpec(
        vignette_min=_convert("vignette_min", kv.get("vignette_min", "1.0"), float),
        corner_offset=_convert("corner_offset", kv.get("corner_offset", "0.0"), float),
        gain_jitter=_convert("gain_jitter", kv.get("gain_jitter", "0.0"), float),
        noise_sigma=_convert("noise_sigma", kv.get("noise_sigma", "0.0"), float),
        rng_seed=seed_override if seed_override is not None
        else _convert("seed", kv.get("seed", "0"), int),
    )
    degradation.validate()

    pattern_text = kv.get("target_pattern", "usaf").lower()
    try:
        pattern = TargetPattern(pattern_text)
    except ValueError:
        raise ConfigError(
            f"key 'target_pattern': expected uniform|bars|usaf, got {pattern_text!r}"
        ) from None

    regions = regions_from_kv(kv)
    band_px = _convert("band_px", kv.get("band_px", str(BAND_PX_DEFAULT)), int)
    if band_px < 1:
        raise ConfigError(f"key 'band_px': must be >= 1, got {band_px}")
    rc = RunConfig(
        scan=scan,
        rois=rois,
        degradation=degradation,
        epsilon=_convert("epsilon", kv.get("epsilon", repr(EPSILON_DEFAULT)), float),
        band_px=band_px,
        bright_level=_convert("bright_level", kv.get("bright_level", "0.9"), float),
        dark_level=_convert("dark_level", kv.get("dark_level", "0.0"), float),
        subpixel=_convert("subpixel", kv.get("subpixel", "false"), bool),
        per_frame_ms=_convert("per_frame_ms", kv.get("per_frame_ms", "60.5"), float),
        target_pattern=pattern,
        target_value=_convert("target_value", kv.get("target_value", "0.9"), float),
        target_pitch=_convert("target_pitch", kv.get("target_pitch", "32"), int),
        target_width=_convert("target_width", kv["target_width"], int) if "target_width" in kv else None,
        target_height=_convert("target_height", kv["target_height"], int) if "target_height" in kv else None,
        regions=regions or None,
    )
    rc.validate()
    return rc
