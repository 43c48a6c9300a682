"""Synthetic dataset generation and its round-trip guarantees."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galvomosaic import halves, pgm, simulate
from galvomosaic.compose import compose_feathered, compose_raw, compute_overlaps
from galvomosaic.correction import RectROI, ReferencePair, correct_roi, fit_two_point
from galvomosaic.errors import ConfigError, CoverageError, GalvoMosaicError
from galvomosaic.geometry import ScanConfig, ScanStrategy, placement_table
from galvomosaic.metrics import RegionKind, RegionSpec
from galvomosaic.simulate import (
    DARK_SHADE,
    DatasetManifest,
    DegradationSpec,
    RunConfig,
    TargetPattern,
    degrade,
    extract_tiles,
    load_manifest,
    make_target,
    required_truth_dims,
    snap_level,
    target_regions,
    tile_filename,
    timing_report,
    vignette_field,
    write_dataset,
)
from galvomosaic.simulate import (
    _bar_layout, _crop, _Frames, _noise, _Target, _tile_draws, _usaf_layout, _vignette,
)

TILE_W = TILE_H = 80
ROOT = Path(__file__).resolve().parents[1]


def small_cfg(**overrides) -> ScanConfig:
    # 3x3 grid of 80x80 tiles with ~35 px spacing (45 px overlaps)
    base = dict(
        n_rows=3, n_cols=3, dv_x=0.1, dv_y=0.1, s_x=350.0, s_y=352.0,
        tile_width=TILE_W, tile_height=TILE_H,
    )
    base.update(overrides)
    return ScanConfig(**base)


def identity_spec(**overrides) -> DegradationSpec:
    return DegradationSpec(**overrides)


class TestMakeTarget:
    def test_uniform_constant(self):
        img = make_target(50, 40, TargetPattern.UNIFORM, value=0.5)
        assert img.shape == (40, 50)
        assert np.all(img == snap_level(0.5))

    def test_bars_square_wave_period(self):
        pitch = 8
        img = make_target(64, 16, TargetPattern.BARS, value=0.9, pitch=pitch)
        row = img[0]
        assert np.array_equal(row[: 2 * pitch], row[2 * pitch: 4 * pitch])
        dark, bright = row[0], row[pitch]
        assert dark < bright
        assert np.all(row[:pitch] == dark)
        assert np.all(row[pitch: 2 * pitch] == bright)

    def test_usaf_like_contains_region_blocks(self):
        width = height = 900
        img = make_target(width, height, TargetPattern.USAF_LIKE, value=0.9)
        regions = {r.name: r for r in target_regions(width, height, TargetPattern.USAF_LIKE)}
        assert set(regions) == {"signal", "bright", "dark"}
        rows, cols = regions["signal"].rect.slices()
        assert np.all(img[rows, cols] < 0.1)
        rows, cols = regions["dark"].rect.slices()
        assert np.all(img[rows, cols] < 0.1)
        rows, cols = regions["bright"].rect.slices()
        assert np.all(img[rows, cols] > 0.8)
        assert regions["signal"].kind is RegionKind.SIGNAL

    def test_values_sit_on_16bit_grid(self):
        img = make_target(33, 21, TargetPattern.USAF_LIKE, value=0.9)
        assert np.array_equal(img, np.round(img * 65535) / 65535)


# The whole-canvas drawer the window view replaced, kept as its oracle.
def whole_target_counts(width, height, pattern, value, pitch):
    bright = pgm.to_u16(np.array(value))
    dark = pgm.to_u16(np.array(DARK_SHADE))
    img = np.full((height, width), bright, dtype=np.uint16)
    if pattern is TargetPattern.BARS:
        x = np.arange(width)
        img[:, (x // pitch) % 2 == 0] = dark
    elif pattern is TargetPattern.USAF_LIKE:
        layout = _usaf_layout(width, height)
        for name in ("signal", "dark"):
            rows, cols = layout[name].slices()
            img[rows, cols] = dark
        x0 = int(width * 0.55)
        y0, y1 = int(height * 0.45), int(height * 0.62)
        group_w = int(width * 0.11)
        for k, bar_pitch in enumerate((64, 32, 16)):
            bar_pitch = max(4, min(bar_pitch, group_w // 2))
            gx0 = x0 + k * (group_w + group_w // 4)
            gx1 = min(gx0 + group_w, width)
            if gx0 >= gx1 or y0 >= y1:
                continue
            x = np.arange(gx0, gx1)
            img[y0:y1, x[(x - gx0) // bar_pitch % 2 == 0]] = dark
        hx0, hx1 = int(width * 0.20), int(width * 0.45)
        hy0 = int(height * 0.76)
        group_h = int(height * 0.05)
        for k, bar_pitch in enumerate((48, 24, 12)):
            bar_pitch = max(4, min(bar_pitch, group_h // 2))
            gy0 = hy0 + k * (group_h + group_h // 4)
            gy1 = min(gy0 + group_h, height)
            if gy0 >= gy1 or hx0 >= hx1:
                continue
            y = np.arange(gy0, gy1)
            img[y[(y - gy0) // bar_pitch % 2 == 0], hx0:hx1] = dark
    return img


def target_edges(width, height, pattern, pitch):
    """Column and row positions where the target changes, each with its neighbours."""
    xs, ys = {0, width}, {0, height}
    if pattern is TargetPattern.BARS:
        xs |= set(range(0, width, pitch))
    elif pattern is TargetPattern.USAF_LIKE:
        layout = _usaf_layout(width, height)
        rects = [layout["signal"], layout["dark"], *sum(_bar_layout(width, height), [])]
        for r in rects:
            xs |= {r.x0, r.x1}
            ys |= {r.y0, r.y1}
    near = lambda edges, n: sorted({min(max(e + d, 0), n) for e in edges for d in (-1, 0, 1)})
    return near(xs, width), near(ys, height)


@st.composite
def target_windows(draw):
    pattern = draw(st.sampled_from(list(TargetPattern)))
    # Small canvases clamp the region sizes and the bar pitches.
    width = draw(st.integers(1, 700))
    height = draw(st.integers(1, 700))
    pitch = draw(st.integers(1, 40))
    value = draw(st.floats(0.0, 1.0))
    xs, ys = target_edges(width, height, pattern, pitch)
    windows = []
    for _ in range(8):
        left, right = sorted(draw(st.sampled_from(xs) | st.integers(0, width)) for _ in range(2))
        top, bottom = sorted(draw(st.sampled_from(ys) | st.integers(0, height)) for _ in range(2))
        windows.append((top, bottom, left, right))
    return width, height, pattern, value, pitch, windows


class TestTargetWindows:
    @settings(max_examples=150, deadline=None)
    @given(target_windows())
    def test_window_equals_whole_canvas_window(self, case):
        width, height, pattern, value, pitch, windows = case
        whole = whole_target_counts(width, height, pattern, value, pitch)
        target = _Target(width, height, pattern, value, pitch)
        assert target.shape == whole.shape
        assert np.array_equal(target[:, :], whole)
        for top, bottom, left, right in windows:
            window = target[top:bottom, left:right]
            assert window.dtype == np.uint16
            assert np.array_equal(window, whole[top:bottom, left:right])

    def test_full_scan_canvas(self):
        width, height = 4980, 5633
        whole = whole_target_counts(width, height, TargetPattern.USAF_LIKE, 0.9, 32)
        target = _Target(width, height, TargetPattern.USAF_LIKE, 0.9, 32)
        for top in range(0, height, 997):
            for left in range(0, width, 701):
                assert np.array_equal(
                    target[top:top + 1000, left:left + 1000],
                    whole[top:top + 1000, left:left + 1000],
                ), (top, left)

    def test_bar_layout_groups(self):
        groups = _bar_layout(4980, 5633)
        assert len(groups) == 6
        # Bar widths of the vertical groups, heights of the horizontal ones.
        assert [g[0].width for g in groups[:3]] == [64, 32, 16]
        assert [g[0].height for g in groups[3:]] == [48, 24, 12]
        for group in groups[:3]:
            period = 2 * group[0].width
            assert [b.x0 - group[0].x0 for b in group] == [period * k for k in range(len(group))]

    def test_bad_target_rejected(self):
        with pytest.raises(ConfigError, match="dims must be positive"):
            _Target(0, 5, TargetPattern.UNIFORM, 0.5, 8)
        with pytest.raises(ConfigError, match="pitch must be >= 1"):
            make_target(5, 5, TargetPattern.BARS, pitch=0)


class TestNoiseDraws:
    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 17), (80, 80), (200, 130)])
    def test_buffer_draw_has_the_bits_of_normal(self, seed, shape):
        sigma = 0.002 * (1 + seed % 5)
        expected = np.random.default_rng([seed, 0, 1, 2]).normal(0.0, sigma, shape)
        fresh = _noise(np.random.default_rng([seed, 0, 1, 2]), sigma, shape)
        buffer = np.full(shape, np.nan)
        drawn = _noise(np.random.default_rng([seed, 0, 1, 2]), sigma, shape, buffer)
        assert drawn is buffer
        assert fresh.tobytes() == expected.tobytes()
        assert drawn.tobytes() == expected.tobytes()

    def test_zero_sigma_draws_no_noise(self):
        spec = DegradationSpec(gain_jitter=0.05, rng_seed=4)
        jitter, noise = _tile_draws(spec, 1, 2, (8, 8))
        assert noise is None
        rng = np.random.default_rng([4, 0, 1, 2])
        assert jitter == rng.uniform(0.95, 1.05)

    def test_zero_sigma_dataset_tiles_are_target_crops(self, tmp_path):
        cfg = small_cfg()
        manifest = write_dataset(tmp_path, RunConfig(cfg, [], identity_spec(rng_seed=3)))
        truth = pgm.read_pgm(tmp_path / "truth.pgm")
        for p, entry in zip(placement_table(cfg), manifest.tiles):
            tile = pgm.read_pgm(tmp_path / entry.path)
            assert np.array_equal(tile, truth[p.y:p.y + TILE_H, p.x:p.x + TILE_W])

    def test_degrade_returns_arrays_of_its_own(self):
        tiles = extract_tiles(make_target(200, 200, TargetPattern.USAF_LIKE), small_cfg())
        degraded, bright, dark = degrade(tiles, identity_spec(noise_sigma=0.01, rng_seed=2), [])
        arrays = [t.data for t in tiles] + [t.data for t in degraded] + [bright, dark]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestExtractTiles:
    def test_single_tile_is_origin_crop(self):
        truth = np.random.default_rng(1).uniform(0, 1, size=(TILE_H, TILE_W))
        cfg = small_cfg(n_rows=1, n_cols=1)
        (tile,) = extract_tiles(truth, cfg)
        assert np.array_equal(tile.data, truth)

    def test_raw_compose_round_trip_is_bit_exact(self):
        # the module-defining test: cut tiles, overwrite-compose, compare
        cfg = small_cfg()
        truth = make_target(200, 200, TargetPattern.USAF_LIKE)
        tiles = extract_tiles(truth, cfg)
        placements = placement_table(cfg)
        canvas = compose_raw([t.data for t in tiles], placements, TILE_W, TILE_H)
        final = canvas.finalize()
        mask = canvas.covered()
        assert mask.any()
        assert np.array_equal(final[mask], truth[: final.shape[0], : final.shape[1]][mask])

    def test_feathered_compose_round_trip_is_bit_exact(self):
        cfg = small_cfg()
        truth = make_target(200, 200, TargetPattern.USAF_LIKE)
        tiles = extract_tiles(truth, cfg)
        placements = placement_table(cfg)
        overlaps = compute_overlaps(placements, TILE_W, TILE_H)
        canvas = compose_feathered([t.data for t in tiles], placements, overlaps, TILE_W, TILE_H)
        # quantization to u16 absorbs the few-ulp blend arithmetic noise
        final_u16 = np.floor(canvas.finalize() * 65535 + 0.5).astype(np.uint16)
        truth_u16 = np.floor(truth * 65535 + 0.5).astype(np.uint16)
        mask = canvas.covered()
        assert np.array_equal(
            final_u16[mask], truth_u16[: final_u16.shape[0], : final_u16.shape[1]][mask]
        )

    def test_sinusoidal_offsets_match_geometry(self):
        cfg = small_cfg(strategy=ScanStrategy.SINUSOIDAL)
        truth = np.random.default_rng(2).uniform(0, 1, size=(300, 300))
        tiles = extract_tiles(truth, cfg)
        for tile, placement in zip(tiles, placement_table(cfg)):
            x, y = placement.x, placement.y
            assert np.array_equal(tile.data, truth[y:y + TILE_H, x:x + TILE_W])

    def test_undersized_truth_reports_required_dims(self):
        cfg = small_cfg()
        with pytest.raises(CoverageError, match=r"at least \d+x\d+"):
            extract_tiles(np.zeros((50, 50)), cfg)

    def test_subpixel_extraction_interpolates(self):
        truth = np.tile(np.arange(100, dtype=np.float64) / 100, (40, 1))
        cfg = ScanConfig(
            n_rows=1, n_cols=2, dv_x=0.1, dv_y=0.1, s_x=105.0, s_y=100.0,
            tile_width=30, tile_height=30,
        )
        exact = extract_tiles(truth, cfg, subpixel=True)
        rounded = extract_tiles(truth, cfg, subpixel=False)
        # second tile sits at dx = 10.5: the subpixel tile is the average of
        # the two neighboring integer crops of this linear ramp
        expected = (truth[0:30, 10:40] + truth[0:30, 11:41]) / 2
        assert np.allclose(exact[1].data, expected, atol=1e-12)
        assert not np.array_equal(exact[1].data, rounded[1].data)


@st.composite
def small_scans(draw):
    strategy = draw(st.sampled_from(list(ScanStrategy)))
    n_cols = draw(st.integers(2 if strategy is ScanStrategy.SINUSOIDAL else 1, 4))
    # 0.05 V x 20 px/V: a linear step advances at least 1 px.
    step = st.floats(0.05, 0.2)
    scale = st.floats(20.0, 400.0)
    tilt = st.floats(-15.0, 15.0)
    cfg = ScanConfig(
        n_rows=draw(st.integers(1, 3)), n_cols=n_cols, dv_x=draw(step), dv_y=draw(step),
        s_x=draw(scale), s_y=draw(scale), alpha_x=draw(tilt), alpha_y=draw(tilt),
        strategy=strategy, tile_width=draw(st.integers(4, 24)),
        tile_height=draw(st.integers(4, 24)),
    )
    try:
        cfg.validate()
    except ConfigError as exc:
        # A sinusoidal sweep's end steps are shorter than the linear one.
        assume("under 1 px" not in str(exc))
        raise
    return cfg


class _WindowLog:
    """Stands in for a target: records each window ``_crop`` reads, as
    (top, bottom, left, right), and gives zeros of its size."""

    def __init__(self):
        self.windows = []

    def __getitem__(self, key):
        rows, cols = key
        self.windows.append((rows.start, rows.stop, cols.start, cols.stop))
        return np.zeros((rows.stop - rows.start, cols.stop - cols.start))


class TestTruthCoverage:
    @settings(max_examples=200, deadline=None)
    @given(small_scans(), st.booleans())
    def test_required_truth_dims_bound_every_crop_window(self, cfg, subpixel):
        need_w, need_h = required_truth_dims(cfg, subpixel=subpixel)
        log = _WindowLog()
        for p in placement_table(cfg):
            _crop(log, lambda window: window, p, cfg.tile_width, cfg.tile_height, subpixel)
        tops, bottoms, lefts, rights = zip(*log.windows)
        assert min(tops) >= 0 and min(lefts) >= 0
        # The bound is the far edge of some window: no pixel more is needed.
        assert (max(rights), max(bottoms)) == (need_w, need_h)
        for w, h in ((need_w - 1, need_h), (need_w, need_h - 1)):
            with pytest.raises(CoverageError, match=f"truth image {w}x{h} too small"):
                extract_tiles(np.zeros((h, w)), cfg, subpixel=subpixel)
        tiles = extract_tiles(np.zeros((need_h, need_w)), cfg, subpixel=subpixel)
        assert all(t.data.shape == (cfg.tile_height, cfg.tile_width) for t in tiles)


class TestVignette:
    def test_center_one_corner_min(self):
        field = vignette_field(41, 61, 0.7)
        assert field[20, 30] == 1.0
        for corner in [(0, 0), (0, -1), (-1, 0), (-1, -1)]:
            assert field[corner] == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("height, width, vignette_min",
                             [(1, 7, 0.5), (41, 61, 0.7), (400, 300, 0.85), (1000, 1000, 0.85)])
    def test_field_has_the_bits_of_its_formula(self, height, width, vignette_min):
        # vignette_field works in one array; the formula with its temporaries.
        y = np.arange(height, dtype=np.float64) - (height - 1) / 2.0
        x = np.arange(width, dtype=np.float64) - (width - 1) / 2.0
        r2 = y[:, None] ** 2 + x[None, :] ** 2
        expected = 1.0 - (1.0 - vignette_min) * (r2 / r2.max())
        assert vignette_field(height, width, vignette_min).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.floats(-2.0, 2.0), st.integers(1, 64))
    def test_quadrant_mirrors_back_to_the_field(self, height, width, vignette_min, rows):
        field = vignette_field(height, width, vignette_min)
        quadrant = _vignette(height, width, vignette_min, height // 2, width // 2)
        half = np.vstack([quadrant[::-1][:height // 2], quadrant])
        mirrored = np.hstack([half[:, ::-1][:, :width // 2], half])
        assert mirrored.tobytes() == field.tobytes()
        # write_dataset copies each block of rows from the quadrant.
        frames = _Frames(None, (height, width), quadrant, [], 0.0, False, b"")
        out = np.empty((rows, width))
        for top in range(0, height, rows):
            n = min(rows, height - top)
            block = frames._vignette_rows(top, out[:n])
            assert block.tobytes() == field[top:top + n].tobytes(), top

    def test_uniform_truth_tiles_identical_with_ratio(self):
        cfg = small_cfg()
        truth = make_target(200, 200, TargetPattern.UNIFORM, value=0.5)
        tiles = extract_tiles(truth, cfg)
        spec = identity_spec(vignette_min=0.8)
        degraded, _, _ = degrade(tiles, spec, rois=[])
        first = degraded[0].data
        for tile in degraded[1:]:
            assert np.array_equal(tile.data, first)
        ratio = first[TILE_H // 2, TILE_W // 2] / first[0, 0]
        # tile dims are even, so the center pixel sits half a pixel off the
        # exact optical center; allow that half-pixel of quadratic falloff
        assert ratio == pytest.approx(1 / 0.8, rel=1e-3)


class TestDegrade:
    def test_identity_spec_is_bitwise_noop(self):
        cfg = small_cfg()
        truth = make_target(200, 200, TargetPattern.USAF_LIKE)
        tiles = extract_tiles(truth, cfg)
        degraded, bright, dark = degrade(
            tiles, identity_spec(), rois=[], bright_level=0.9, dark_level=0.0
        )
        for before, after in zip(tiles, degraded):
            assert np.array_equal(before.data, after.data)
        assert np.all(bright == 0.9)
        assert np.all(dark == 0.0)

    def test_corner_offset_confined_to_roi(self):
        cfg = small_cfg(n_rows=1, n_cols=1)
        truth = make_target(TILE_W, TILE_H, TargetPattern.UNIFORM, value=0.4)
        tiles = extract_tiles(truth, cfg)
        roi = RectROI(x0=0, y0=50, width=30, height=30)
        degraded, _, dark = degrade(tiles, identity_spec(corner_offset=0.2), rois=[roi])
        data = degraded[0].data
        rows, cols = roi.slices()
        assert np.allclose(data[rows, cols], 0.6)
        outside = np.ones(data.shape, dtype=bool)
        outside[rows, cols] = False
        assert np.allclose(data[outside], 0.4)
        assert np.allclose(dark[rows, cols], 0.2)

    def test_same_seed_bit_identical_different_seed_differs(self):
        cfg = small_cfg()
        truth = make_target(200, 200, TargetPattern.USAF_LIKE)
        tiles = extract_tiles(truth, cfg)
        spec_a = identity_spec(gain_jitter=0.05, rng_seed=11)
        one, bright1, _ = degrade(tiles, spec_a, rois=[])
        two, bright2, _ = degrade(tiles, spec_a, rois=[])
        other, _, _ = degrade(tiles, identity_spec(gain_jitter=0.05, rng_seed=12), rois=[])
        for t1, t2 in zip(one, two):
            assert np.array_equal(t1.data, t2.data)
        assert np.array_equal(bright1, bright2)
        assert any(
            not np.array_equal(t1.data, t3.data) for t1, t3 in zip(one, other)
        )

    def test_jitter_is_order_independent(self):
        cfg = small_cfg()
        truth = make_target(200, 200, TargetPattern.UNIFORM, value=0.5)
        tiles = extract_tiles(truth, cfg)
        spec = identity_spec(gain_jitter=0.05, rng_seed=3)
        forward, _, _ = degrade(tiles, spec, rois=[])
        backward, _, _ = degrade(list(reversed(tiles)), spec, rois=[])
        backward_by_index = {(t.row, t.col): t for t in backward}
        for t in forward:
            assert np.array_equal(t.data, backward_by_index[(t.row, t.col)].data)

    def test_correction_efficacy_on_references(self):
        # vignette + corner offset, no noise: fitting the emitted references
        # and correcting a degraded tile recovers the clean ROI to 1e-3
        cfg = small_cfg(n_rows=1, n_cols=1)
        truth = make_target(TILE_W, TILE_H, TargetPattern.UNIFORM, value=0.6)
        tiles = extract_tiles(truth, cfg)
        roi = RectROI(x0=0, y0=40, width=40, height=40)
        bright_level = snap_level(0.9)
        spec = identity_spec(vignette_min=0.7, corner_offset=0.08)
        degraded, bright, dark = degrade(
            tiles, spec, rois=[roi], bright_level=bright_level, dark_level=0.0
        )
        refs = ReferencePair(
            bright_frame=bright, l_bright=bright_level, dark_frame=dark, l_dark=0.0
        )
        model = fit_two_point(refs, roi, eps=1e-6)
        recovered = correct_roi(degraded[0].data, model, roi)
        rows, cols = roi.slices()
        assert np.all(np.abs(recovered - truth[rows, cols]) < 1e-3)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            identity_spec(vignette_min=0.0).validate()
        with pytest.raises(ConfigError):
            identity_spec(noise_sigma=-1.0).validate()

    @pytest.mark.parametrize("gain_jitter", [1.0, 1.5])
    def test_gain_jitter_of_one_or_more_rejected(self, gain_jitter):
        # A tile gain drawn from [1 - gain_jitter, 1 + gain_jitter] must stay above 0.
        with pytest.raises(ConfigError, match=re.escape(
                f"gain_jitter must be in [0, 1), got {gain_jitter}")):
            identity_spec(gain_jitter=gain_jitter).validate()
        identity_spec(gain_jitter=math.nextafter(1.0, 0.0)).validate()


class TestTiming:
    def test_full_grid_total_time(self):
        cfg = small_cfg(n_rows=10, n_cols=10, settle_ms=30.0)
        assert timing_report(cfg, per_frame_ms=60.5) == pytest.approx(6.05)

    def test_settling_only_floor(self):
        cfg = small_cfg(n_rows=10, n_cols=10, settle_ms=30.0)
        assert timing_report(cfg, per_frame_ms=30.0) == pytest.approx(3.0)

    def test_single_frame(self):
        cfg = small_cfg(n_rows=1, n_cols=1, settle_ms=30.0)
        assert timing_report(cfg, per_frame_ms=45.0) == pytest.approx(0.045)

    def test_per_frame_must_cover_settling(self):
        cfg = small_cfg(settle_ms=30.0)
        with pytest.raises(ConfigError, match="'per_frame_ms'"):
            RunConfig(cfg, [], per_frame_ms=10.0).validate()


class TestWriteDataset:
    def test_emits_complete_dataset(self, tmp_path):
        cfg = small_cfg()
        manifest = write_dataset(tmp_path, RunConfig(cfg, []))
        names = {p.name for p in tmp_path.iterdir()}
        expected_tiles = {
            tile_filename(i, j, 3, 3) for i in range(3) for j in range(3)
        }
        assert expected_tiles <= names
        assert {"truth.pgm", "ref_bright.pgm", "ref_dark.pgm", "manifest.json"} <= names
        assert len(manifest.tiles) == 9
        restored = DatasetManifest.from_json((tmp_path / "manifest.json").read_text())
        assert restored.run.scan == manifest.run.scan
        assert restored.run.degradation == manifest.run.degradation
        assert restored.run.bright_level == manifest.run.bright_level

    def test_manifest_requires_every_grid_index_once(self, tmp_path):
        cfg = small_cfg()
        manifest = write_dataset(tmp_path, RunConfig(cfg, []))
        manifest.tiles = manifest.tiles[:-1]
        with pytest.raises(Exception, match="missing"):
            manifest.validate()

    def test_undersized_target_rejected(self, tmp_path):
        cfg = small_cfg()
        with pytest.raises(CoverageError):
            write_dataset(tmp_path, RunConfig(cfg, [], target_width=100, target_height=100))

    def test_reference_levels_are_snapped_to_grid(self, tmp_path):
        cfg = small_cfg(n_rows=1, n_cols=2)
        manifest = write_dataset(tmp_path, RunConfig(cfg, [], bright_level=0.9))
        assert manifest.run.bright_level == snap_level(0.9)
        assert manifest.run.bright_level * 65535 == round(manifest.run.bright_level * 65535)


    def test_manifest_records_run_except_target(self, tmp_path):
        rc = RunConfig(
            small_cfg(), [RectROI(0, 50, 30, 30)], identity_spec(gain_jitter=0.05, rng_seed=3),
            epsilon=1e-3, band_px=7, bright_level=0.8, dark_level=0.1, subpixel=True,
            per_frame_ms=70.0, target_pattern=TargetPattern.BARS, target_value=0.7,
            target_pitch=9, target_width=400, target_height=300,
        )
        manifest = write_dataset(tmp_path, rc)
        untargeted = dataclasses.replace(
            manifest.run,
            **{f: getattr(RunConfig(rc.scan, rc.rois), f) for f in (
                "target_pattern", "target_value", "target_pitch", "target_width", "target_height",
            )},
        )
        assert load_manifest(tmp_path).run == untargeted


class TestRunConfigValidate:
    @pytest.mark.parametrize(
        "field, value",
        [("band_px", True), ("band_px", 8.0), ("subpixel", 1), ("bright_level", "0.9"),
         ("target_width", 1.5), ("target_pattern", "usaf")],
    )
    def test_wrong_type_names_field(self, field, value):
        with pytest.raises(ConfigError, match=f"key '{field}': expected"):
            RunConfig(small_cfg(), [], **{field: value}).validate()

    def test_nested_settings_are_checked(self):
        with pytest.raises(ConfigError, match="key 'n_rows': expected int"):
            RunConfig(small_cfg(n_rows=3.0), []).validate()
        with pytest.raises(ConfigError, match="key 'rng_seed': expected int"):
            RunConfig(small_cfg(), [], identity_spec(rng_seed=False)).validate()

    def test_int_for_float_and_none_for_optional_accepted(self):
        RunConfig(small_cfg(s_x=350), [], epsilon=0, per_frame_ms=61, target_width=None).validate()

    def test_numpy_int_accepted_as_int(self):
        scan = small_cfg(n_rows=np.int64(3), tile_width=np.int64(TILE_W))
        RunConfig(scan, [], identity_spec(rng_seed=np.int64(7)), band_px=np.int32(8)).validate()
        assert len(placement_table(scan)) == 9

    def test_numpy_float32_accepted_as_float(self):
        scan = small_cfg(s_x=np.float32(350.0))
        RunConfig(scan, [], identity_spec(gain_jitter=np.float32(0.05))).validate()
        with pytest.raises(ConfigError, match="s_x must be finite"):
            small_cfg(s_x=np.float32("nan")).validate()

    def test_rect_fields_name_the_key(self):
        with pytest.raises(ConfigError, match=r"key 'rois\[1\]\.x0': expected int, got 5\.0"):
            RunConfig(small_cfg(), [RectROI(0, 0, 8, 8), RectROI(5.0, 0, 8, 8)]).validate()
        region = RegionSpec("dark", RectROI(0, 0, 8, 8.0), RegionKind.DARK_BACKGROUND)
        with pytest.raises(ConfigError, match=r"key 'regions\[0\]\.height': expected int"):
            RunConfig(small_cfg(), [], regions=[region]).validate()


# write_dataset makes each frame in blocks of rows, with the noise drawn
# block by block, from the same crop and degrade helpers as the list APIs,
# which make and draw each frame whole; each case must give the same bytes
# as the list pipeline.  The *_large cases hold SPLIT_MIN pixels or more
# per tile, so two threads share their frames.  Each case is (scan,
# degradation, subpixel, ROIs).
STREAM_ROIS = [RectROI(x0=0, y0=50, width=30, height=30)]
STREAM_CASES = {
    "linear_noise": (
        small_cfg(),
        DegradationSpec(
            vignette_min=0.85, corner_offset=0.05, gain_jitter=0.05, noise_sigma=0.01, rng_seed=5
        ),
        False,
        STREAM_ROIS,
    ),
    # the last tile of a grid row lies above the first tile of the row before it
    "sinusoidal_subpixel_negative_tilt": (
        small_cfg(n_rows=3, n_cols=4, strategy=ScanStrategy.SINUSOIDAL, alpha_x=3.5, alpha_y=-12.25),
        DegradationSpec(
            vignette_min=0.9, corner_offset=0.05, gain_jitter=0.05, noise_sigma=0.002, rng_seed=11
        ),
        True,
        STREAM_ROIS,
    ),
    "no_noise": (
        small_cfg(),
        DegradationSpec(vignette_min=0.9, corner_offset=0.05, gain_jitter=0.05, rng_seed=2),
        False,
        STREAM_ROIS,
    ),
    # Odd frames have a middle row and column of their own, and two
    # overlapping ROIs cut the offset into three row runs.
    "odd_overlapping_rois": (
        small_cfg(tile_width=81, tile_height=77),
        DegradationSpec(
            vignette_min=0.8, corner_offset=-0.05, gain_jitter=0.05, noise_sigma=0.003, rng_seed=7
        ),
        False,
        [RectROI(x0=3, y0=5, width=40, height=30), RectROI(x0=10, y0=9, width=50, height=60)],
    ),
    "linear_noise_large": (
        small_cfg(n_rows=2, n_cols=2, tile_width=400, tile_height=400),
        DegradationSpec(
            vignette_min=0.85, corner_offset=0.05, gain_jitter=0.05, noise_sigma=0.01, rng_seed=5
        ),
        False,
        STREAM_ROIS,
    ),
    "sinusoidal_subpixel_negative_tilt_large": (
        small_cfg(
            n_rows=2, n_cols=2, strategy=ScanStrategy.SINUSOIDAL, alpha_x=3.5, alpha_y=-12.25,
            tile_width=400, tile_height=400,
        ),
        DegradationSpec(
            vignette_min=0.9, corner_offset=0.05, gain_jitter=0.05, noise_sigma=0.002, rng_seed=11
        ),
        True,
        STREAM_ROIS,
    ),
    "odd_overlapping_rois_large": (
        small_cfg(n_rows=2, n_cols=2, tile_width=401, tile_height=399),
        DegradationSpec(
            vignette_min=0.8, corner_offset=-0.05, gain_jitter=0.05, noise_sigma=0.003, rng_seed=7
        ),
        True,
        [RectROI(x0=30, y0=50, width=200, height=150),
         RectROI(x0=100, y0=90, width=250, height=300)],
    ),
}
assert all(
    (cfg.tile_width * cfg.tile_height >= halves.SPLIT_MIN) == name.endswith("_large")
    for name, (cfg, *_) in STREAM_CASES.items()
)


class _Opens:
    """Stands in for ``open`` in galvomosaic.simulate: logs (file name, thread
    name) of every file opened, and raises OSError("disk full") where
    ``fails(name, on_main)`` says so."""

    def __init__(self, fails=lambda name, on_main: False):
        self.log = []
        self.fails = fails

    def __call__(self, path, mode="r"):
        name = Path(path).name
        thread = threading.current_thread()
        self.log.append((name, thread.name))
        if self.fails(name, thread is threading.main_thread()):
            raise OSError("disk full")
        return open(path, mode)


class TestStreamingWriteDataset:
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_files_match_list_pipeline(self, tmp_path, case):
        cfg, spec, subpixel, rois = STREAM_CASES[case]
        manifest = write_dataset(
            tmp_path,
            RunConfig(cfg, rois, spec, subpixel=subpixel, bright_level=0.9, dark_level=0.05),
        )
        truth = make_target(*required_truth_dims(cfg, subpixel=subpixel), TargetPattern.USAF_LIKE)
        tiles, bright, dark = degrade(
            extract_tiles(truth, cfg, subpixel=subpixel),
            spec,
            rois,
            bright_level=manifest.run.bright_level,
            dark_level=manifest.run.dark_level,
        )
        expected = {"truth.pgm": truth, "ref_bright.pgm": bright, "ref_dark.pgm": dark}
        for tile, entry in zip(tiles, manifest.tiles):
            assert (tile.row, tile.col) == (entry.row, entry.col)
            expected[entry.path] = tile.data
        assert len(expected) == 3 + cfg.n_rows * cfg.n_cols
        for name, data in expected.items():
            assert np.array_equal(pgm.read_pgm(tmp_path / name), pgm.to_u16(data)), name

    @pytest.mark.parametrize("case, grid", [("linear_noise", 4), ("linear_noise_large", 3)])
    def test_files_match_under_fast_thread_switching(self, tmp_path, case, grid):
        # Switching threads every microsecond must not let a noise draw
        # reach a block or a frame other than its own, whether one thread
        # writes the frames or two share them.
        cfg, spec, _, _ = STREAM_CASES[case]
        cfg = dataclasses.replace(cfg, n_rows=grid, n_cols=grid)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            manifest = write_dataset(tmp_path, RunConfig(cfg, STREAM_ROIS, spec))
        finally:
            sys.setswitchinterval(interval)
        truth = make_target(*required_truth_dims(cfg), TargetPattern.USAF_LIKE)
        tiles, _, _ = degrade(extract_tiles(truth, cfg), spec, STREAM_ROIS)
        for tile, entry in zip(tiles, manifest.tiles):
            assert np.array_equal(pgm.read_pgm(tmp_path / entry.path), pgm.to_u16(tile.data))

    def test_memory_scales_with_canvas_counts(self, tmp_path):
        # 200 px tiles on 175 px steps; a 16x8 grid doubles the canvas of an 8x8 one
        spec = DegradationSpec(
            vignette_min=0.85, corner_offset=0.05, gain_jitter=0.05, noise_sigma=0.002, rng_seed=1
        )
        tile_buffer = 200 * 200 * 8
        for n_rows in (8, 16):
            cfg = ScanConfig(
                n_rows=n_rows, n_cols=8, dv_x=1.0, dv_y=1.0, s_x=175.0, s_y=175.0,
                tile_width=200, tile_height=200,
            )
            width, height = required_truth_dims(cfg)
            tracemalloc.start()
            try:
                rc = RunConfig(cfg, [RectROI(0, 120, 80, 80)], spec)
                write_dataset(tmp_path / f"rows{n_rows}", rc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * width * height * 2 + 8 * tile_buffer, (n_rows, peak)

    def test_memory_does_not_grow_with_canvas(self, tmp_path):
        # The grids of test_memory_scales_with_canvas_counts: the 16x8 one
        # has twice the canvas, 8 MB of counts, yet both stay within a few
        # tile buffers (the vignette quadrant and one frame's blocks of rows).
        spec = DegradationSpec(
            vignette_min=0.85, corner_offset=0.05, gain_jitter=0.05, noise_sigma=0.002, rng_seed=1
        )
        tile_buffer = 200 * 200 * 8
        # Imports made by the first call are not counted.
        write_dataset(tmp_path / "warm", RunConfig(small_cfg(n_rows=1, n_cols=2), [], spec))
        for n_rows in (8, 16):
            for subpixel in (False, True):
                cfg = ScanConfig(
                    n_rows=n_rows, n_cols=8, dv_x=1.0, dv_y=1.0, s_x=175.0, s_y=175.0,
                    tile_width=200, tile_height=200,
                )
                tracemalloc.start()
                try:
                    rc = RunConfig(cfg, [RectROI(0, 120, 80, 80)], spec, subpixel=subpixel)
                    write_dataset(tmp_path / f"rows{n_rows}_{subpixel}", rc)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 9 * tile_buffer, (n_rows, subpixel, peak)

    def test_memory_does_not_grow_with_frame_height_beyond_the_vignette_quadrant(self, tmp_path):
        # Equal-width scans of 200-row and 400-row frames, each written by
        # the calling thread (60,000 and 120,000 px, below SPLIT_MIN).  Of
        # the frame's own values only the vignette's lower right quadrant is
        # held, so the peak may grow by its 100 more rows of 150 columns,
        # plus ``slack`` for the longer placement and block loops, but by no
        # field (200 x 300 x 8 B = 480,000 B of growth each).
        slack = 64 * 1024
        width = 300
        spec = DegradationSpec(
            vignette_min=0.85, corner_offset=0.05, gain_jitter=0.05, noise_sigma=0.002, rng_seed=1
        )
        write_dataset(tmp_path / "warm", RunConfig(small_cfg(n_rows=1, n_cols=2), [], spec))
        peaks = {}
        for height in (200, 400):
            cfg = ScanConfig(
                n_rows=2, n_cols=2, dv_x=1.0, dv_y=1.0, s_x=175.0, s_y=175.0,
                tile_width=width, tile_height=height,
            )
            assert cfg.tile_width * cfg.tile_height < halves.SPLIT_MIN
            tracemalloc.start()
            try:
                rc = RunConfig(cfg, [RectROI(0, 120, 80, 80)], spec, subpixel=True)
                write_dataset(tmp_path / f"height{height}", rc)
                peaks[height] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] - peaks[200] <= (400 - 200) // 2 * width // 2 * 8 + slack, peaks

    @pytest.mark.parametrize("subpixel", [False, True])
    def test_two_threads_hold_less_than_one_frame(self, tmp_path, subpixel):
        # 1000 x 1000 frames, written by both threads: the vignette quadrant
        # (2 MB) and each thread's blocks of rows stay below one float64
        # frame, 8,000,000 B.
        spec = DegradationSpec(
            vignette_min=0.85, corner_offset=0.05, gain_jitter=0.05, noise_sigma=0.002, rng_seed=1
        )
        cfg = ScanConfig(
            n_rows=2, n_cols=2, dv_x=1.0, dv_y=1.0, s_x=875.0, s_y=875.0,
            tile_width=1000, tile_height=1000,
        )
        assert cfg.tile_width * cfg.tile_height >= halves.SPLIT_MIN
        rois = [RectROI(0, 700, 300, 300), RectROI(100, 800, 400, 200)]
        write_dataset(tmp_path / "warm", RunConfig(small_cfg(n_rows=1, n_cols=2), [], spec))
        tracemalloc.start()
        try:
            write_dataset(tmp_path / "frames", RunConfig(cfg, rois, spec, subpixel=subpixel))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 1000 * 8, peak

    def test_truth_is_written_beside_the_frames(self, tmp_path, monkeypatch):
        # The truth is one more item of halves.each: the thread writing it
        # holds it open until the other thread has opened a frame.
        cfg, spec, subpixel, _ = STREAM_CASES["linear_noise_large"]
        writers, framers = [], []

        def fails(name: str, on_main: bool) -> bool:
            here = threading.current_thread()
            if name != "truth.pgm":
                framers.append(here)
                return False
            writers.append(here)
            deadline = time.monotonic() + 10.0
            while all(thread is here for thread in framers):
                assert time.monotonic() < deadline, "no frame was opened beside the truth"
                time.sleep(0.001)
            return False

        monkeypatch.setattr(simulate, "open", _Opens(fails), raising=False)
        write_dataset(tmp_path, RunConfig(cfg, STREAM_ROIS, spec, subpixel=subpixel))
        assert len(writers) == 1
        assert load_manifest(tmp_path).tiles

    def test_small_frames_start_no_thread(self, tmp_path):
        # In a fresh interpreter: this one has loaded concurrent.futures.
        code = "\n".join((
            "import sys, threading",
            "started = []",
            "start = threading.Thread.start",
            "threading.Thread.start = lambda thread: (started.append(thread), start(thread))",
            "from galvomosaic.cli import main",
            f"assert main(['simulate', '--config', {str(ROOT / 'configs' / 'quick.cfg')!r},"
            f" '--out', {str(tmp_path)!r}]) == 0",
            "assert started == [], started",
            "assert 'concurrent.futures' not in sys.modules",
        ))
        path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
        subprocess.run(
            [sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path}
        )
        assert (tmp_path / "manifest.json").exists()

    def test_large_frames_are_each_written_once_by_one_of_two_threads(
        self, tmp_path, monkeypatch
    ):
        cfg, spec, subpixel, _ = STREAM_CASES["linear_noise_large"]
        opens = _Opens()
        monkeypatch.setattr(simulate, "open", opens, raising=False)
        manifest = write_dataset(tmp_path, RunConfig(cfg, STREAM_ROIS, spec, subpixel=subpixel))
        frames = [entry.path for entry in manifest.tiles] + ["ref_bright.pgm", "ref_dark.pgm"]
        written = [name for name, _ in opens.log]
        assert sorted(written) == sorted(frames + ["truth.pgm"])
        assert {thread for _, thread in opens.log} <= {"MainThread", "galvomosaic-halves_0"}

    def test_failed_rewrite_leaves_no_manifest(self, tmp_path, monkeypatch):
        cfg = small_cfg()
        write_dataset(tmp_path, RunConfig(cfg, [], identity_spec(noise_sigma=0.01)))
        assert (tmp_path / "manifest.json").exists()
        tiles_written = []

        def fails(name: str, on_main: bool) -> bool:
            if name.startswith("tile_"):
                tiles_written.append(name)
                return len(tiles_written) == 3
            return False

        monkeypatch.setattr(simulate, "open", _Opens(fails), raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_dataset(tmp_path, RunConfig(cfg, [], identity_spec(noise_sigma=0.01, rng_seed=9)))
        names = {p.name for p in tmp_path.iterdir()}
        assert "manifest.json" not in names
        assert not [n for n in names if n.endswith(".tmp")], names
        with pytest.raises(GalvoMosaicError, match="no manifest.json"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("error, on_helper", [(OSError, True), (KeyboardInterrupt, False)])
    def test_error_in_one_worker_stops_both(self, tmp_path, monkeypatch, error, on_helper):
        # The failing worker raises at the first tile it opens; the other
        # holds its first tile until then, so each has one tile under way.
        # No tile may be begun after the error, and none written after
        # write_dataset has raised.
        cfg, spec, _, _ = STREAM_CASES["linear_noise_large"]
        cfg = dataclasses.replace(cfg, n_rows=3, n_cols=3)
        rc = RunConfig(cfg, [], spec)
        write_dataset(tmp_path, rc)
        failed = threading.Event()

        def fails(name: str, on_main: bool) -> bool:
            if not name.startswith("tile_"):
                return False
            if on_main != on_helper:
                failed.set()
                raise error("disk full")
            assert failed.wait(timeout=30.0)
            return False

        opens = _Opens(fails)
        monkeypatch.setattr(simulate, "open", opens, raising=False)
        with pytest.raises(error, match="disk full"):
            write_dataset(tmp_path, dataclasses.replace(rc, degradation=identity_spec(rng_seed=9)))
        tiles = [(name, thread) for name, thread in opens.log if name.startswith("tile_")]
        time.sleep(0.2)
        assert len(opens.log) == len(tiles) + 3  # truth and the two references
        failing = "galvomosaic-halves_0" if on_helper else "MainThread"
        assert [thread for _, thread in tiles].count(failing) == 1
        assert len(tiles) <= 2
        names = {p.name for p in tmp_path.iterdir()}
        assert "manifest.json" not in names
        assert not [n for n in names if n.endswith(".tmp")], names
        # The helper serves the next dataset.
        monkeypatch.undo()
        write_dataset(tmp_path, rc)
        assert load_manifest(tmp_path).tiles
