"""Synthetic dataset generation and its round-trip guarantees."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from galvomosaic import pgm
from galvomosaic.compose import compose_feathered, compose_raw, compute_overlaps
from galvomosaic.correction import RectROI, ReferencePair, correct_roi, fit_two_point
from galvomosaic.errors import ConfigError, CoverageError, GalvoMosaicError
from galvomosaic.geometry import ScanConfig, ScanStrategy, placement_table
from galvomosaic.metrics import RegionKind, RegionSpec
from galvomosaic.simulate import (
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

TILE_W = TILE_H = 80


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


class TestVignette:
    def test_center_one_corner_min(self):
        field = vignette_field(41, 61, 0.7)
        assert field[20, 30] == 1.0
        for corner in [(0, 0), (0, -1), (-1, 0), (-1, -1)]:
            assert field[corner] == pytest.approx(0.7, abs=1e-12)

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


# write_dataset streams tiles through the same crop and degrade helpers as
# the list APIs; each case must give the same bytes as the list pipeline.
STREAM_CASES = {
    "linear_noise": (
        small_cfg(),
        DegradationSpec(
            vignette_min=0.85, corner_offset=0.05, gain_jitter=0.05, noise_sigma=0.01, rng_seed=5
        ),
        False,
    ),
    # the last tile of a grid row lies above the first tile of the row before it
    "sinusoidal_subpixel_negative_tilt": (
        small_cfg(n_rows=3, n_cols=4, strategy=ScanStrategy.SINUSOIDAL, alpha_x=3.5, alpha_y=-12.25),
        DegradationSpec(
            vignette_min=0.9, corner_offset=0.05, gain_jitter=0.05, noise_sigma=0.002, rng_seed=11
        ),
        True,
    ),
    "no_noise": (
        small_cfg(),
        DegradationSpec(vignette_min=0.9, corner_offset=0.05, gain_jitter=0.05, rng_seed=2),
        False,
    ),
}
STREAM_ROIS = [RectROI(x0=0, y0=50, width=30, height=30)]


class TestStreamingWriteDataset:
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_files_match_list_pipeline(self, tmp_path, case):
        cfg, spec, subpixel = STREAM_CASES[case]
        manifest = write_dataset(
            tmp_path,
            RunConfig(
                cfg, STREAM_ROIS, spec, subpixel=subpixel, bright_level=0.9, dark_level=0.05
            ),
        )
        truth = make_target(*required_truth_dims(cfg, subpixel=subpixel), TargetPattern.USAF_LIKE)
        tiles, bright, dark = degrade(
            extract_tiles(truth, cfg, subpixel=subpixel),
            spec,
            STREAM_ROIS,
            bright_level=manifest.run.bright_level,
            dark_level=manifest.run.dark_level,
        )
        expected = {"truth.pgm": truth, "ref_bright.pgm": bright, "ref_dark.pgm": dark}
        for tile, entry in zip(tiles, manifest.tiles):
            assert (tile.row, tile.col) == (entry["row"], entry["col"])
            expected[entry["path"]] = tile.data
        assert len(expected) == 3 + cfg.n_rows * cfg.n_cols
        for name, data in expected.items():
            assert np.array_equal(pgm.read_pgm(tmp_path / name), pgm.to_u16(data)), name

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

    def test_encode_and_write_stay_on_main_thread(self, tmp_path, monkeypatch):
        calls = []

        def recorded(func):
            def wrapper(*args, **kwargs):
                calls.append((func.__name__, threading.get_ident()))
                return func(*args, **kwargs)
            return wrapper

        for name in ("to_u16", "write_pgm"):
            monkeypatch.setattr(pgm, name, recorded(getattr(pgm, name)))
        write_dataset(
            tmp_path, RunConfig(small_cfg(), [], identity_spec(gain_jitter=0.05, noise_sigma=0.01))
        )
        assert sum(name == "write_pgm" for name, _ in calls) == 3 + 9
        assert {ident for _, ident in calls} == {threading.main_thread().ident}

    def test_failed_rewrite_leaves_no_manifest(self, tmp_path, monkeypatch):
        cfg = small_cfg()
        write_dataset(tmp_path, RunConfig(cfg, [], identity_spec(noise_sigma=0.01)))
        assert (tmp_path / "manifest.json").exists()
        write_pgm = pgm.write_pgm
        tiles_written = []

        def failing_write(path, img):
            if path.name.startswith("tile_"):
                tiles_written.append(path.name)
                if len(tiles_written) == 3:
                    raise OSError("disk full")
            write_pgm(path, img)

        monkeypatch.setattr(pgm, "write_pgm", failing_write)
        with pytest.raises(OSError, match="disk full"):
            write_dataset(tmp_path, RunConfig(cfg, [], identity_spec(noise_sigma=0.01, rng_seed=9)))
        names = {p.name for p in tmp_path.iterdir()}
        assert "manifest.json" not in names
        assert not [n for n in names if n.endswith(".tmp")], names
        with pytest.raises(GalvoMosaicError, match="no manifest.json"):
            load_manifest(tmp_path)
