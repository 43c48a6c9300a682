"""Key-value config parsing and defaults."""

import pytest

from galvomosaic.config import (
    default_rois,
    load_run_config,
    parse_kv,
)
from galvomosaic.errors import ConfigError
from galvomosaic.geometry import ScanConfig, ScanStrategy
from galvomosaic.simulate import RunConfig, TargetPattern

MINIMAL = """\
n_rows = 2
n_cols = 3
dv_x = 1.1
dv_y = 1.1
s_x = 402
s_y = 468
tile_width = 1000
tile_height = 1000
"""


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parse_kv_comments_blanks_and_overrides():
    kv = parse_kv("# header\na = 1\n\nb = two  # trailing\na = 3\n", {"a", "b"})
    assert kv == {"a": "3", "b": "two"}


def test_parse_kv_rejects_garbage_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_kv("a = 1\nnot a pair\n", {"a"})


def test_missing_required_key_is_named(tmp_path):
    with pytest.raises(ConfigError, match="missing required key 'n_cols'"):
        load_run_config(write(tmp_path, "n_rows = 2\n"))


def test_bad_number_names_key(tmp_path):
    with pytest.raises(ConfigError, match="s_x"):
        load_run_config(write(tmp_path, MINIMAL + "s_x = fast\n"))


def test_omitted_keys_take_field_defaults(tmp_path):
    scan = ScanConfig(
        n_rows=2, n_cols=3, dv_x=1.1, dv_y=1.1, s_x=402.0, s_y=468.0,
        tile_width=1000, tile_height=1000,
    )
    rois = default_rois(ScanStrategy.LINEAR, 1000, 1000)
    assert load_run_config(write(tmp_path, MINIMAL)) == RunConfig(scan, rois)


@pytest.mark.parametrize(
    "key, value",
    [("strategy", "zigzag"), ("target_pattern", "checkers"), ("subpixel", "maybe"),
     ("band_px", "8.0"), ("target_width", "wide"), ("seed", "1.5")],
)
def test_unparsable_value_names_key(tmp_path, key, value):
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        load_run_config(write(tmp_path, MINIMAL + f"{key} = {value}\n"))


def test_default_rois_per_strategy():
    linear = default_rois(ScanStrategy.LINEAR, 1000, 1000)
    assert len(linear) == 1
    assert (linear[0].x0, linear[0].y0) == (0, 400)
    assert (linear[0].width, linear[0].height) == (580, 600)
    sinus = default_rois(ScanStrategy.SINUSOIDAL, 1000, 1000)
    assert len(sinus) == 2
    assert {(r.x0, r.y0) for r in sinus} == {(0, 600), (800, 600)}
    assert all((r.width, r.height) == (200, 400) for r in sinus)


def test_load_run_config_full(tmp_path):
    path = write(
        tmp_path,
        MINIMAL
        + "strategy = sinusoidal\nrois = 0,900,100,100 ; 900,900,100,100\n"
        + "gain_jitter = 0.05\nseed = 9\ntarget_pattern = bars\ntarget_pitch = 16\n"
        + "epsilon = 0\nband_px = 25\nsubpixel = true\nregion_signal = 10,10,50,50\n",
    )
    rc = load_run_config(path)
    assert rc.scan.strategy is ScanStrategy.SINUSOIDAL
    assert len(rc.rois) == 2
    assert rc.degradation.gain_jitter == 0.05
    assert rc.degradation.rng_seed == 9
    assert rc.target_pattern is TargetPattern.BARS
    assert rc.epsilon == 0.0
    assert rc.band_px == 25
    assert rc.subpixel is True
    assert rc.regions is not None and rc.regions[0].name == "signal"


def test_strategy_and_seed_overrides(tmp_path):
    path = write(tmp_path, MINIMAL + "seed = 1\n")
    rc = load_run_config(path, strategy_override="sinusoidal", seed_override=99)
    assert rc.scan.strategy is ScanStrategy.SINUSOIDAL
    assert rc.degradation.rng_seed == 99
    # sinusoidal override also switches the default ROI layout
    assert len(rc.rois) == 2


def test_roi_outside_tile_is_config_error(tmp_path):
    path = write(tmp_path, MINIMAL + "rois = 900,900,200,200\n")
    with pytest.raises(ConfigError, match="rois"):
        load_run_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "warp_speed = 9\n")
    with pytest.raises(ConfigError, match="warp_speed"):
        load_run_config(path)


@pytest.mark.parametrize("key", ["ref_bright", "ref_dark"])
def test_reference_frame_keys_are_unknown(tmp_path, key):
    # The stitcher always uses the dataset's own reference frames, so
    # a key naming other frames would be silently ignored: reject it.
    path = write(tmp_path, MINIMAL + f"{key} = frames/{key}.pgm\n")
    with pytest.raises(ConfigError, match=key):
        load_run_config(path)
