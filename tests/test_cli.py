"""End-to-end CLI pipeline on small grids."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from galvomosaic import pgm
from galvomosaic.cli import main

QUICK_CFG = Path(__file__).resolve().parents[1] / "configs" / "quick.cfg"

# 10x10 grid of small tiles; spacing 35 px leaves 45 px overlaps.
SMALL_CONFIG = """\
# compact scan for fast end-to-end runs
n_rows = 10
n_cols = 10
dv_x = 0.1
dv_y = 0.1
s_x = 350
s_y = 352
tile_width = 80
tile_height = 80
settle_ms = 30
per_frame_ms = 60.5
rois = 0,50,30,30
band_px = 8
seed = 42
"""


# 200 columns of 100 px tiles climbing 100 px each: an 18010 x 20100 px
# canvas, within the area limit, whose stitch band is 19,900 rows deep
# (2.67 GiB of float64).
BAND_OVER_THE_LIMIT = ("n_rows = 2\nn_cols = 200\ndv_x = 1\ndv_y = 1\ns_x = 90\ns_y = 100\n"
                       "alpha_y = 100\ntile_width = 100\ntile_height = 100\n")


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scan.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_full_dataset(self, tmp_path, config_path):
        out = tmp_path / "ds"
        assert run("simulate", "--config", config_path, "--out", out) == 0
        tiles = sorted(p.name for p in out.glob("tile_*.pgm"))
        assert len(tiles) == 100
        assert (out / "ref_bright.pgm").exists()
        assert (out / "ref_dark.pgm").exists()
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dv_x", "nan"), ("dv_y", "inf"), ("s_x", "inf"), ("alpha_x", "-inf"),
            ("alpha_y", "nan"), ("v0", "nan"), ("amplitude", "inf"), ("settle_ms", "nan"),
            ("vignette_min", "nan"), ("corner_offset", "inf"), ("gain_jitter", "inf"),
            ("noise_sigma", "nan"),
        ],
    )
    def test_non_finite_float_names_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CONFIG + f"{key} = {value}\n")
        out = tmp_path / "ds"
        assert run("simulate", "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"{key} must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, key, message",
        [
            pytest.param("bright_level = nan\n", "bright_level", "must be finite", id="bright_nan"),
            pytest.param("dark_level = -inf\n", "dark_level", "must be finite", id="dark_-inf"),
            pytest.param("per_frame_ms = inf\n", "per_frame_ms", "must be finite", id="frame_inf"),
            pytest.param("target_value = nan\n", "target_value", "must be finite", id="target_nan"),
            pytest.param("epsilon = nan\n", "epsilon", "must be finite", id="epsilon_nan"),
            pytest.param(
                "bright_level = 0.4\ndark_level = 0.4\n", "bright_level", "must be > dark_level",
                id="bright_eq_dark",
            ),
            pytest.param(
                "bright_level = 0.2\ndark_level = 0.3\n", "bright_level", "must be > dark_level",
                id="bright_lt_dark",
            ),
            pytest.param(
                "bright_level = 1.5\ndark_level = 1.2\n", "bright_level", "must be > dark_level",
                id="both_clamp_to_one",
            ),
            pytest.param("rois = 0,0,0,5\n", "'rois[0].width'", "must be at least 1, got 0",
                         id="roi_empty"),
            pytest.param("rois = -1,0,5,5\n", "'rois[0].x0'", "must be at least 0, got -1",
                         id="roi_negative"),
            pytest.param("rois = 0,50,30,30; 0,0,5,-2\n", "'rois[1].height'",
                         "must be at least 1, got -2", id="second_roi_negative"),
            pytest.param("dv_x = 1e9\n", "'dv_x'", "over the limit of 1073741824 px",
                         id="canvas_over_the_limit"),
            pytest.param("target_width = 501\ntarget_height = 433\n",
                         "'target_width'/'target_height'",
                         "region 'bright' lies outside the mosaic: rectangle 260,51,175,77 "
                         "exceeds array bounds 395x397", id="default_region_past_mosaic"),
            pytest.param("region_signal = 390,0,20,20\n", "'region_signal'",
                         "region 'signal' lies outside the mosaic: rectangle 390,0,20,20 "
                         "exceeds array bounds 395x397", id="config_region_past_mosaic"),
            pytest.param("seed = -5\n", "key 'seed'", "must be at least 0, got -5",
                         id="seed_negative"),
            pytest.param(BAND_OVER_THE_LIMIT, "'dv_x', 'dv_y', 's_x', 's_y', 'alpha_x', 'alpha_y'",
                         "band of 18010 x 19900 px", id="band_over_the_limit"),
            pytest.param("dv_x = -0.1\n", "dv_x", "must be > 0 over 2 or more columns",
                         id="dv_x_negative"),
            pytest.param("dv_x = 0\n", "dv_x", "must be > 0 over 2 or more columns",
                         id="dv_x_zero"),
            pytest.param("dv_y = -0.1\n", "dv_y", "must be > 0 over 2 or more rows",
                         id="dv_y_negative"),
            pytest.param("strategy = sinusoidal\namplitude = 0\n", "amplitude",
                         "must be > 0 over 2 or more columns", id="amplitude_zero"),
            pytest.param("dv_x = 0.001\n", "keys 'dv_x' and 's_x'",
                         "column step of 0.35 px is under 1 px", id="dv_x_under_1px"),
            pytest.param("dv_y = 0.001\n", "keys 'dv_y' and 's_y'",
                         "row step of 0.352 px is under 1 px", id="dv_y_under_1px"),
            pytest.param("gain_jitter = 1.5\n", "gain_jitter", "must be in [0, 1), got 1.5",
                         id="gain_jitter_over_1"),
            pytest.param("gain_jitter = 1\n", "gain_jitter", "must be in [0, 1), got 1.0",
                         id="gain_jitter_1"),
        ],
    )
    def test_bad_run_float_names_key(self, tmp_path, capsys, lines, key, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CONFIG + lines)
        out = tmp_path / "ds"
        assert run("simulate", "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert key in err and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_degenerate_sinusoidal_grid_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "n_rows = 2\nn_cols = 1\ndv_x = 0.1\ndv_y = 0.1\ns_x = 350\ns_y = 350\n"
            "tile_width = 40\ntile_height = 40\nstrategy = sinusoidal\n"
        )
        code = run("simulate", "--config", cfg, "--out", tmp_path / "ds")
        assert code != 0
        assert "n_cols" in capsys.readouterr().err

    def test_unknown_key_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CONFIG + "mystery_knob = 3\n")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "ds") != 0
        assert "mystery_knob" in capsys.readouterr().err

    def test_negative_seed_flag_names_the_config_key(self, tmp_path, capsys):
        # --seed sets the config key `seed`; the error names that key, not
        # the DegradationSpec field `rng_seed` behind it.
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "ds"
        assert run("simulate", "--config", cfg, "--out", out, "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert "key 'seed': must be at least 0, got -1" in err
        assert "rng_seed" not in err
        assert not out.exists()

    def test_identical_seed_gives_byte_identical_outputs(self, tmp_path, config_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run("simulate", "--config", config_path, "--out", out_a, "--seed", "7")
        run("simulate", "--config", config_path, "--out", out_b, "--seed", "7")
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name


class TestStitch:
    @pytest.fixture
    def dataset(self, tmp_path, config_path):
        out = tmp_path / "ds"
        run("simulate", "--config", config_path, "--out", out)
        return out

    def test_raw_mode_round_trips_identity_dataset(self, tmp_path, dataset):
        out = tmp_path / "raw"
        assert run("stitch", "--dataset", dataset, "--out", out, "--mode", "raw") == 0
        mosaic = pgm.read_pgm(out / "mosaic.pgm")
        truth = pgm.read_pgm(dataset / "truth.pgm")
        sidecar = json.loads((out / "sidecar.json").read_text())
        assert sidecar["mode"] == {"compose": "raw", "correction": "off"}
        assert mosaic.shape == (sidecar["canvas"]["height"], sidecar["canvas"]["width"])
        assert np.array_equal(mosaic, truth[: mosaic.shape[0], : mosaic.shape[1]])

    def test_processed_mode_blend_identity(self, tmp_path, dataset):
        out = tmp_path / "proc"
        assert run("stitch", "--dataset", dataset, "--out", out, "--mode", "processed",
                   "--correction", "off") == 0
        mosaic = pgm.read_pgm(out / "mosaic.pgm")
        truth = pgm.read_pgm(dataset / "truth.pgm")
        assert np.array_equal(mosaic, truth[: mosaic.shape[0], : mosaic.shape[1]])

    def test_missing_tile_listed_in_error(self, tmp_path, dataset, capsys):
        (dataset / "tile_r01_c02.pgm").unlink()
        code = run("stitch", "--dataset", dataset, "--out", tmp_path / "x")
        assert code != 0
        assert "(1, 2)" in capsys.readouterr().err

    def test_sidecar_records_seams_and_mae(self, tmp_path, dataset):
        out = tmp_path / "proc"
        run("stitch", "--dataset", dataset, "--out", out)
        sidecar = json.loads((out / "sidecar.json").read_text())
        vertical = [s for s in sidecar["seams"] if s["orientation"] == "vertical"]
        horizontal = [s for s in sidecar["seams"] if s["orientation"] == "horizontal"]
        assert len(vertical) == 90 and len(horizontal) == 90
        assert len(sidecar["mae_per_overlap"]) == 180
        assert len(sidecar["placements"]) == 100

    def test_bright_only_correction_flattens_vignetted_roi(self, tmp_path, config_path):
        cfg = tmp_path / "vig.cfg"
        cfg.write_text(SMALL_CONFIG + "vignette_min = 0.75\ntarget_pattern = uniform\n")
        dataset = tmp_path / "dsv"
        run("simulate", "--config", cfg, "--out", dataset)
        truth = pgm.to_unit(pgm.read_pgm(dataset / "truth.pgm"))
        mosaics = {}
        for tag, correction in (("off", "off"), ("gain", "bright-only")):
            out = tmp_path / tag
            assert run("stitch", "--dataset", dataset, "--out", out,
                       "--correction", correction, "--feather", "off") == 0
            mosaics[tag] = pgm.to_unit(pgm.read_pgm(out / "mosaic.pgm"))
        # the bottom-left tile's ROI footprint stays visible under raw
        # overwrite; gain-only correction must pull it toward the truth
        sidecar = json.loads((tmp_path / "gain" / "sidecar.json").read_text())
        last_row = max(p["row"] for p in sidecar["placements"])
        tile_y = next(p["y"] for p in sidecar["placements"]
                      if p["row"] == last_row and p["col"] == 0)
        window = np.s_[tile_y + 55: tile_y + 75, 5:25]  # ROI interior, past the band
        crop = truth[: mosaics["off"].shape[0], : mosaics["off"].shape[1]]
        err_off = np.abs(mosaics["off"][window] - crop[window]).mean()
        err_gain = np.abs(mosaics["gain"][window] - crop[window]).mean()
        assert err_gain < err_off

    @staticmethod
    def _stitch_fails_cleanly(tmp_path, dataset, manifest, capsys):
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "out"
        assert run("stitch", "--dataset", dataset, "--out", out) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("where", ["dotdot", "absolute", "subdir"])
    @pytest.mark.parametrize("key", ["tile", "reference.bright", "reference.dark", "truth"])
    def test_manifest_path_must_stay_in_dataset(self, tmp_path, dataset, capsys, key, where):
        # The file the path names exists, so only the path itself is at fault.
        target = {
            "dotdot": tmp_path / "q" / "x.pgm",
            "absolute": tmp_path / "abs.pgm",
            "subdir": dataset / "sub" / "x.pgm",
        }[where]
        target.parent.mkdir(exist_ok=True)
        target.write_bytes((dataset / "tile_r00_c03.pgm").read_bytes())
        path = {"dotdot": "../q/x.pgm", "absolute": str(target), "subdir": "sub/x.pgm"}[where]
        manifest = json.loads((dataset / "manifest.json").read_text())
        if key == "tile":
            assert manifest["tiles"][3]["path"] == "tile_r00_c03.pgm"
            manifest["tiles"][3]["path"] = path
            named = "'tiles[3].path' of tile (0, 3)"
        elif key == "truth":
            manifest["truth"] = path
            named = "'truth'"
        else:
            manifest["reference"][key.split(".")[1]] = path
            named = repr(key)
        err = self._stitch_fails_cleanly(tmp_path, dataset, manifest, capsys)
        assert named in err and "plain file name" in err and repr(path) in err

    @pytest.mark.parametrize("tiles", [5, None, [7]], ids=["int", "null", "list_of_int"])
    def test_malformed_tile_list_names_key(self, tmp_path, dataset, capsys, tiles):
        manifest = json.loads((dataset / "manifest.json").read_text())
        manifest["tiles"] = tiles
        err = self._stitch_fails_cleanly(tmp_path, dataset, manifest, capsys)
        assert "manifest key 'tiles" in err


    # One manifest value that no config could hold: the manifest goes
    # through the same checks as a config, naming the key.
    @pytest.mark.parametrize(
        "path, value, key",
        [
            pytest.param(("correction", "epsilon"), -1e9, "'epsilon'", id="epsilon_negative"),
            pytest.param(("correction", "epsilon"), math.nan, "epsilon", id="epsilon_nan"),
            pytest.param(("correction", "band_px"), 0, "'band_px'", id="band_px_zero"),
            pytest.param(("reference", "bright_level"), 0, "'bright_level'", id="bright_zero"),
            pytest.param(("degradation", "gain_jitter"), -1, "gain_jitter", id="jitter_negative"),
            pytest.param(("degradation", "gain_jitter"), 1.0, "gain_jitter must be in [0, 1)",
                         id="jitter_one"),
            pytest.param(("timing", "per_frame_ms"), math.inf, "per_frame_ms", id="frame_inf"),
            pytest.param(
                ("rois", 0), {"x0": 60, "y0": 50, "width": 30, "height": 30}, "'rois'",
                id="roi_outside_tile",
            ),
            pytest.param(("reference", "bright_level"), "0.9", "'bright_level'", id="bright_str"),
            pytest.param(("correction", "band_px"), "8", "'band_px'", id="band_px_str"),
            pytest.param(("subpixel",), "no", "'subpixel'", id="subpixel_str"),
            pytest.param(("rois", 0, "x0"), 5.0, "'rois[0].x0'", id="roi_float"),
            pytest.param(("regions", 0, "width"), 4.5, "'regions[0].width'", id="region_float"),
            pytest.param(("rois", 0, "x0"), "5", "'rois[0].x0'", id="roi_str"),
            pytest.param(("regions", 0, "y0"), "5", "'regions[0].y0'", id="region_str"),
            pytest.param(("timing", "per_frame_ms"), 1.0, "'per_frame_ms'", id="frame_below_settle"),
            pytest.param(("rois", 0, "x0"), -1, "key 'rois[0].x0': must be at least 0",
                         id="roi_negative"),
            pytest.param(("regions", 0, "width"), 0, "key 'regions[0].width': must be at least 1",
                         id="region_empty"),
            pytest.param(("regions", 0, "kind"), "nope", "key 'regions[0].kind'",
                         id="region_kind"),
            pytest.param(("scan", "strategy"), 5, "key 'scan.strategy'", id="strategy_int"),
            pytest.param(("scan", "strategy"), "sine", "key 'scan.strategy'", id="strategy_str"),
            pytest.param(("scan",), [1], "key 'scan'", id="scan_list"),
            pytest.param(("scan", "s_x"), 10**400, "scan.s_x must be finite", id="s_x_huge_int"),
            pytest.param(("truth",), 5, "key 'truth': expected str, got 5", id="truth_int"),
            pytest.param(("reference", "bright"), 5, "key 'reference.bright': expected str",
                         id="ref_bright_int"),
            pytest.param(("reference", "dark"), None, "key 'reference.dark': expected str",
                         id="ref_dark_null"),
            pytest.param(("scan", "dv_x"), 1e9, "'dv_x'", id="canvas_over_the_limit"),
            pytest.param(("degradation", "rng_seed"), -3,
                         "manifest key 'degradation.rng_seed': must be at least 0, got -3",
                         id="seed_negative"),
        ],
    )
    def test_manifest_values_checked_like_config(self, tmp_path, capsys, path, value, key):
        dataset = tmp_path / "quick"
        assert run("simulate", "--config", QUICK_CFG, "--out", dataset) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        parent = manifest
        for part in path[:-1]:
            parent = parent[part]
        parent[path[-1]] = value
        err = self._stitch_fails_cleanly(tmp_path, dataset, manifest, capsys)
        assert key in err, err

    def test_band_over_the_limit_fails_before_any_file_is_read(self, tmp_path, capsys):
        dataset = tmp_path / "quick"
        assert run("simulate", "--config", QUICK_CFG, "--out", dataset) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        for line in BAND_OVER_THE_LIMIT.splitlines():
            key, value = line.split(" = ")
            manifest["scan"][key] = int(value)
        err = self._stitch_fails_cleanly(tmp_path, dataset, manifest, capsys)
        assert "'alpha_y': stitch would hold a band of 18010 x 19900 px" in err, err

    # Each edit leaves a manifest that the writer would never write: the
    # reader must not drop a key, ignore a copy or fill in a default.
    @pytest.mark.parametrize(
        "edit, key",
        [
            pytest.param(lambda m: m.update(epsilonn=1e-6), "'epsilonn' is unknown", id="top_level"),
            pytest.param(
                lambda m: m["reference"].update(level=0.9), "'reference.level' is unknown",
                id="reference",
            ),
            pytest.param(
                lambda m: m["correction"].update(eps=0.1), "'correction.eps' is unknown",
                id="correction",
            ),
            pytest.param(
                lambda m: m["timing"].update(settle=1), "'timing.settle' is unknown", id="timing",
            ),
            pytest.param(
                lambda m: m["tiles"][2].update(gain=1.0), "'tiles[2].gain' is unknown", id="tile",
            ),
            pytest.param(lambda m: m["tiles"][0].update(row=False), "'tiles[0].row'",
                         id="tile_bool"),
            pytest.param(
                lambda m: m["timing"].update(settle_ms=999), "'timing.settle_ms': 999 disagrees",
                id="settle_ms_copy",
            ),
            pytest.param(lambda m: m["scan"].pop("alpha_x"), "'scan.alpha_x' is missing",
                         id="scan_default"),
            pytest.param(lambda m: m["timing"].update(total_s="x"), "'total_s'", id="total_s_str"),
            pytest.param(
                lambda m: m["timing"].update(total_s=-123.0),
                "'timing.total_s': -123.0 disagrees with 6.05", id="total_s_copy",
            ),
            pytest.param(lambda m: m["degradation"].update(foo=1),
                         "'degradation.foo' is unknown", id="degradation_unknown"),
            pytest.param(lambda m: m["scan"].pop("n_rows"), "'scan.n_rows' is missing",
                         id="scan_required"),
            pytest.param(lambda m: m["rois"][0].pop("x0"), "'rois[0].x0' is missing",
                         id="roi_missing"),
        ],
    )
    def test_manifest_reads_back_only_what_it_writes(self, tmp_path, capsys, edit, key):
        dataset = tmp_path / "quick"
        assert run("simulate", "--config", QUICK_CFG, "--out", dataset) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        edit(manifest)
        err = self._stitch_fails_cleanly(tmp_path, dataset, manifest, capsys)
        assert key in err, err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dv_x", -0.1, "dv_x must be > 0 over 2 or more"),
            ("dv_x", 0, "dv_x must be > 0 over 2 or more"),
            ("dv_y", -0.1, "dv_y must be > 0 over 2 or more"),
            ("amplitude", 0, "amplitude must be > 0 over 2 or more"),
            ("dv_x", 0.001, "keys 'dv_x' and 's_x': the column step of 0.35 px is under 1 px"),
            ("dv_y", 0.001, "keys 'dv_y' and 's_y': the row step of 0.352 px is under 1 px"),
            ("amplitude", 0.001, "keys 'amplitude' and 's_x': the column step of"),
        ],
        ids=["dv_x_negative", "dv_x_zero", "dv_y_negative", "amplitude_zero",
             "dv_x_under_1px", "dv_y_under_1px", "amplitude_under_1px"],
    )
    def test_step_that_does_not_advance_fails_before_any_tile_is_read(
            self, tmp_path, capsys, key, value, message):
        dataset = tmp_path / "quick"
        assert run("simulate", "--config", QUICK_CFG, "--out", dataset) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        manifest["scan"][key] = value
        if key == "amplitude":
            manifest["scan"]["strategy"] = "sinusoidal"
        # Empty tiles: reading any of them would fail with another error.
        for tile in dataset.glob("tile_*.pgm"):
            tile.write_bytes(b"")
        err = self._stitch_fails_cleanly(tmp_path, dataset, manifest, capsys)
        assert message in err, err

    @pytest.mark.parametrize(
        "corner_offset, correction, files",
        [(1.0, "two-point", "ref_bright.pgm and ref_dark.pgm"),
         (-1.0, "bright-only", "ref_bright.pgm")],
        ids=["saturated", "bright_zero"],
    )
    def test_fit_with_zero_gain_and_epsilon_is_refused(
            self, tmp_path, capsys, corner_offset, correction, files):
        # Both references clamp to one level inside the ROI (or the bright
        # one to 0), so the fitted gain is 0 there, and epsilon = 0 leaves
        # the correction dividing by it.
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(QUICK_CFG.read_text() + f"corner_offset = {corner_offset}\nepsilon = 0\n")
        dataset = tmp_path / "flat"
        assert run("simulate", "--config", cfg, "--out", dataset) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run("stitch", "--dataset", dataset, "--out", out, "--correction", correction) == 1
        assert not (out / "mosaic.pgm").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (f"rois[0] = 0,50,30,30: gain + epsilon is 0 at some pixel of the fit to {files} "
                "with epsilon = 0.0") in err, err
        assert run("stitch", "--dataset", dataset, "--out", out, "--correction", "off") == 0

    @pytest.mark.parametrize("size", [100, 40], ids=["padded", "cut"])
    def test_reference_frame_of_wrong_size_is_named(self, tmp_path, dataset, capsys, size):
        for name in ("ref_bright.pgm", "ref_dark.pgm"):
            frame = pgm.read_pgm(dataset / name)
            resized = np.zeros((size, size), dtype=np.uint16)
            n = min(size, 80)
            resized[:n, :n] = frame[:n, :n]
            pgm.write_pgm(dataset / name, resized)
        manifest = json.loads((dataset / "manifest.json").read_text())
        err = self._stitch_fails_cleanly(tmp_path, dataset, manifest, capsys)
        expected = f"{dataset / 'ref_bright.pgm'}: reference frame is {size}x{size}, expected 80x80"
        assert expected in err, err


class TestEvaluate:
    @pytest.fixture
    def stitched(self, tmp_path, config_path):
        dataset = tmp_path / "ds"
        run("simulate", "--config", config_path, "--out", dataset)
        out = tmp_path / "run"
        run("stitch", "--dataset", dataset, "--out", out, "--mode", "processed")
        return out

    def test_report_files_and_fields(self, tmp_path, stitched):
        rep = tmp_path / "rep"
        code = run(
            "evaluate", "--mosaic", stitched / "mosaic.pgm",
            "--sidecar", stitched / "sidecar.json", "--out", rep,
        )
        assert code == 0
        report = json.loads((rep / "report.json").read_text())
        for key in ("mae_per_overlap", "mae_mean", "cnr", "bright_std",
                    "dark_std", "mean_seam_jump"):
            assert key in report
        text = (rep / "report.txt").read_text()
        assert "mean_seam_jump = " in text

    def test_truth_with_zero_seam_sidecar_scores_zero_jump(self, tmp_path, stitched):
        sidecar = json.loads((stitched / "sidecar.json").read_text())
        sidecar["seams"] = []
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps(sidecar))
        rep = tmp_path / "rep0"
        code = run(
            "evaluate", "--mosaic", stitched / "mosaic.pgm",
            "--sidecar", zero, "--out", rep,
        )
        assert code == 0
        report = json.loads((rep / "report.json").read_text())
        assert report["mean_seam_jump"] == 0.0

    def test_constant_image_surfaces_degenerate_cnr(self, tmp_path, stitched, capsys):
        flat = np.full((300, 300), 30000, dtype=np.uint16)
        flat_path = tmp_path / "flat.pgm"
        pgm.write_pgm(flat_path, flat)
        sidecar = json.loads((stitched / "sidecar.json").read_text())
        sidecar["seams"] = []
        sc_path = tmp_path / "flat_sidecar.json"
        regions = [
            {"name": "signal", "kind": "signal", "x0": 0, "y0": 0, "width": 50, "height": 50},
            {"name": "bright", "kind": "bright_background", "x0": 60, "y0": 0, "width": 100, "height": 80},
            {"name": "dark", "kind": "dark_background", "x0": 0, "y0": 100, "width": 70, "height": 90},
        ]
        sidecar["regions"] = regions
        sidecar["canvas"] = {"width": 300, "height": 300}
        sc_path.write_text(json.dumps(sidecar))
        rep = tmp_path / "repflat"
        code = run("evaluate", "--mosaic", flat_path, "--sidecar", sc_path, "--out", rep)
        assert code == 0
        assert "CNR degenerate" in capsys.readouterr().err
        report = json.loads((rep / "report.json").read_text())
        assert report["cnr"] is None
        assert report["bright_std"] == 0.0

    def test_malformed_sidecar_region_is_named(self, tmp_path, stitched, capsys):
        sidecar = json.loads((stitched / "sidecar.json").read_text())
        del sidecar["regions"][0]["x0"]
        bad = tmp_path / "bad_sidecar.json"
        bad.write_text(json.dumps(sidecar))
        code = run(
            "evaluate", "--mosaic", stitched / "mosaic.pgm",
            "--sidecar", bad, "--out", tmp_path / "r",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "malformed sidecar" in err and "x0" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            pytest.param(lambda s: s["regions"][0].update(x0=5.5), "'regions[0].x0'",
                         id="region_float"),
            pytest.param(lambda s: s["regions"][1].update(x0="5"), "'regions[1].x0'",
                         id="region_str"),
            pytest.param(lambda s: s["seams"][0].update(position="5"), "'seams[0].position'",
                         id="seam_str"),
            pytest.param(lambda s: s["seams"][3].update(stop=7.0), "'seams[3].stop'",
                         id="seam_float"),
            pytest.param(lambda s: s.update(mae_mean="x"), "'mae_mean'", id="mae_mean_str"),
            pytest.param(lambda s: s.update(mae_mean=[1]), "'mae_mean'", id="mae_mean_list"),
            pytest.param(lambda s: s["mae_per_overlap"][0].__setitem__(1, "x"),
                         "'mae_per_overlap[0][1]'", id="mae_value_str"),
            pytest.param(lambda s: s["mae_per_overlap"][4].__setitem__(0, 3),
                         "'mae_per_overlap[4][0]'", id="mae_pair_int"),
            pytest.param(lambda s: s["regions"][0].update(x0=-3),
                         "'regions[0].x0': must be at least 0", id="region_negative"),
            pytest.param(lambda s: s["regions"][2].update(height=0),
                         "'regions[2].height': must be at least 1", id="region_empty"),
            pytest.param(lambda s: s["regions"][1].update(kind="nope"), "'regions[1].kind'",
                         id="region_kind"),
            pytest.param(lambda s: s["regions"][1].update(kind=3), "'regions[1].kind'",
                         id="region_kind_int"),
            pytest.param(lambda s: s.update(seams={}), "'seams'", id="seams_object"),
            pytest.param(lambda s: s.update(mae_per_overlap={}), "'mae_per_overlap'",
                         id="mae_object"),
            pytest.param(lambda s: s["regions"][0].update(extra=1), "'regions[0].extra' is unknown",
                         id="region_unknown_key"),
            pytest.param(lambda s: s["seams"][0].update(extra=1), "'seams[0].extra' is unknown",
                         id="seam_unknown_key"),
            pytest.param(lambda s: s["seams"][0].update(orientation="diag"),
                         "'seams[0].orientation'", id="seam_orientation"),
            pytest.param(lambda s: s["regions"][0].pop("kind"), "'regions[0].kind' is missing",
                         id="region_kind_missing"),
            pytest.param(lambda s: s["mae_per_overlap"][0].append(1.0), "'mae_per_overlap[0]'",
                         id="mae_triple"),
            pytest.param(lambda s: s.pop("regions"), "'regions' is missing", id="regions_missing"),
            pytest.param(lambda s: s["canvas"].update(width=0),
                         "'canvas.width': must be at least 1", id="canvas_empty"),
        ],
    )
    def test_sidecar_value_of_wrong_type_is_named(self, tmp_path, stitched, capsys, edit, key):
        sidecar = json.loads((stitched / "sidecar.json").read_text())
        edit(sidecar)
        bad = tmp_path / "bad_sidecar.json"
        bad.write_text(json.dumps(sidecar))
        capsys.readouterr()
        code = run(
            "evaluate", "--mosaic", stitched / "mosaic.pgm",
            "--sidecar", bad, "--out", tmp_path / "r",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"malformed sidecar {bad}: key {key}" in err and "Traceback" not in err, err
        assert not (tmp_path / "r").exists()

    def test_unknown_region_key_rejected(self, tmp_path, stitched, capsys):
        regions = tmp_path / "regions.cfg"
        regions.write_text(
            "region_signal = 0,0,50,50\n"
            "region_bright = 60,0,50,50\n"
            "region_dark = 0,60,50,50\n"
            "region_sgnal = 5,5,5,5\n"
        )
        code = run(
            "evaluate", "--mosaic", stitched / "mosaic.pgm",
            "--sidecar", stitched / "sidecar.json",
            "--regions", regions, "--out", tmp_path / "r",
        )
        assert code == 1
        assert "unknown config key 'region_sgnal'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_region_out_of_bounds_fails(self, tmp_path, stitched, capsys):
        regions = tmp_path / "regions.cfg"
        regions.write_text(
            "region_signal = 0,0,50,50\n"
            "region_bright = 0,0,99999,50\n"
            "region_dark = 0,60,50,50\n"
        )
        code = run(
            "evaluate", "--mosaic", stitched / "mosaic.pgm",
            "--sidecar", stitched / "sidecar.json",
            "--regions", regions, "--out", tmp_path / "r",
        )
        assert code != 0
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "signal, message",
        [
            pytest.param("{x},0,20,20", "region 'signal' lies outside the mosaic: rectangle "
                         "{x},0,20,20 exceeds array bounds {width}x{height}", id="outside"),
            pytest.param("0,0,0,5", "key 'region_signal.width': must be at least 1, got 0",
                         id="empty"),
            pytest.param("-1,0,5,5", "key 'region_signal.x0': must be at least 0, got -1",
                         id="negative"),
        ],
    )
    def test_bad_region_names_region_and_bound(self, tmp_path, stitched, capsys, signal, message):
        canvas = json.loads((stitched / "sidecar.json").read_text())["canvas"]
        sizes = {"x": canvas["width"] - 10, **canvas}
        regions = tmp_path / "regions.cfg"
        regions.write_text(
            f"region_signal = {signal.format(**sizes)}\n"
            "region_bright = 60,0,50,50\n"
            "region_dark = 0,60,50,50\n"
        )
        code = run(
            "evaluate", "--mosaic", stitched / "mosaic.pgm",
            "--sidecar", stitched / "sidecar.json",
            "--regions", regions, "--out", tmp_path / "r",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert message.format(**sizes) in err and "Traceback" not in err, err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            pytest.param(lambda raw: raw[:-101], "raster has", id="truncated"),
            pytest.param(lambda raw: b"P5\n4 4\n255\n" + bytes(16), "expected maxval 65535",
                         id="maxval_255"),
            pytest.param(lambda raw: b"P5\n4 3\n65535\n" + bytes(24),
                         "mosaic is 4x3, expected {width}x{height}", id="other_size"),
        ],
    )
    def test_bad_mosaic_names_file_and_keeps_reports(
        self, tmp_path, stitched, capsys, damage, message
    ):
        rep = tmp_path / "rep"
        args = ["--sidecar", stitched / "sidecar.json", "--out", rep]
        assert run("evaluate", "--mosaic", stitched / "mosaic.pgm", *args) == 0
        before = {p.name: p.read_bytes() for p in rep.iterdir()}
        capsys.readouterr()
        bad = tmp_path / "bad_mosaic.pgm"
        bad.write_bytes(damage((stitched / "mosaic.pgm").read_bytes()))
        assert run("evaluate", "--mosaic", bad, *args) == 1
        err = capsys.readouterr().err
        canvas = json.loads((stitched / "sidecar.json").read_text())["canvas"]
        assert f"{bad}: {message.format(**canvas)}" in err and "Traceback" not in err, err
        assert {p.name: p.read_bytes() for p in rep.iterdir()} == before
        assert sorted(before) == ["report.json", "report.txt"]

    def test_memory_does_not_grow_with_mosaic_height(self, tmp_path):
        # Same regions and seams on a mosaic and on one twice as tall:
        # only the region rows and seam lines are converted, so the
        # Python-heap peak barely moves (whole-canvas decoding doubles it).
        rng = np.random.default_rng(21)
        regions = [
            {"name": "signal", "kind": "signal", "x0": 10, "y0": 10, "width": 100, "height": 40},
            {"name": "bright", "kind": "bright_background", "x0": 0, "y0": 60, "width": 600, "height": 30},
            {"name": "dark", "kind": "dark_background", "x0": 200, "y0": 100, "width": 100, "height": 50},
        ]
        seams = [
            {"orientation": "vertical", "position": 300, "start": 0, "stop": 200},
            {"orientation": "horizontal", "position": 150, "start": 0, "stop": 600},
        ]
        peaks = []
        for height in (400, 800):
            sidecar = tmp_path / f"sidecar_{height}.json"
            sidecar.write_text(json.dumps({
                "canvas": {"width": 600, "height": height}, "seams": seams, "regions": regions,
                "mae_per_overlap": [], "mae_mean": None,
            }))
            mosaic = tmp_path / f"mosaic_{height}.pgm"
            pgm.write_pgm(mosaic, rng.integers(0, 65536, size=(height, 600), dtype=np.uint16))
            tracemalloc.start()
            try:
                code = run("evaluate", "--mosaic", mosaic, "--sidecar", sidecar,
                           "--out", tmp_path / f"rep_{height}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestPipelineReproducibility:
    def test_end_to_end_outputs_are_byte_identical(self, tmp_path, config_path):
        outputs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            run("simulate", "--config", config_path, "--out", base / "ds", "--seed", "5")
            run("stitch", "--dataset", base / "ds", "--out", base / "run")
            run(
                "evaluate", "--mosaic", base / "run" / "mosaic.pgm",
                "--sidecar", base / "run" / "sidecar.json", "--out", base / "rep",
            )
            outputs.append(base)
        one, two = outputs
        for rel in ("run/mosaic.pgm", "run/sidecar.json", "rep/report.json", "rep/report.txt"):
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel


@pytest.mark.parametrize("command", ["simulate", "stitch", "evaluate"])
def test_undecodable_input_file_is_named(tmp_path, config_path, capsys, command):
    # A byte that does not decode, in a config, a manifest or a regions file.
    out = tmp_path / "out"
    if command == "simulate":
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"n_rows = 2\n\xff\xfe bad\n")
        argv, what = ("simulate", "--config", bad, "--out", out), "config"
    else:
        dataset = tmp_path / "ds"
        assert run("simulate", "--config", config_path, "--out", dataset) == 0
        if command == "stitch":
            bad = dataset / "manifest.json"
            bad.write_bytes(bad.read_bytes() + b"\xff")
            argv, what = ("stitch", "--dataset", dataset, "--out", out), "manifest"
        else:
            stitched = tmp_path / "run"
            assert run("stitch", "--dataset", dataset, "--out", stitched) == 0
            bad = tmp_path / "regions.cfg"
            bad.write_bytes(b"region_signal = 0,0,50,50\n# \xff\n")
            argv = ("evaluate", "--mosaic", stitched / "mosaic.pgm",
                    "--sidecar", stitched / "sidecar.json", "--regions", bad, "--out", out)
            what = "regions file"
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert f"error: malformed {what} {bad}: " in err and "Traceback" not in err, err
    assert not out.exists()
