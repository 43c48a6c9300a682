"""Every float config key at the edge of the float range, through all three commands."""

import json
import warnings

import pytest

from galvomosaic.cli import main
from galvomosaic.config import _ALIASES
from galvomosaic.geometry import ScanConfig
from galvomosaic.records import field_table
from galvomosaic.simulate import DegradationSpec, RunConfig

# A 2 x 3 grid of 32 px tiles on 20 px steps, with one ROI.
TINY_CFG = """\
n_rows = 2
n_cols = 3
dv_x = 0.1
dv_y = 0.1
s_x = 200
s_y = 200
tile_width = 32
tile_height = 32
rois = 0,16,16,16
band_px = 4
seed = 1
"""

FLOAT_KEYS = [
    _ALIASES.get(name, name)
    for cls in (ScanConfig, DegradationSpec, RunConfig)
    for name, kind, *_ in field_table(cls).scalars
    if kind is float
]


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def run(*argv) -> int:
    # No RuntimeWarning may pass, as in a run outside the test suite.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main([str(a) for a in argv])


def test_every_float_key_is_swept():
    assert len(FLOAT_KEYS) == 18
    assert {"dv_x", "amplitude", "noise_sigma", "corner_offset", "per_frame_ms"} <= set(FLOAT_KEYS)


@pytest.mark.parametrize("strategy", ["linear", "sinusoidal"])
@pytest.mark.parametrize("value", ["1e308", "-1e308"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_extreme_value_ends_in_exit_0_or_1(tmp_path, capsys, key, value, strategy):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(TINY_CFG + f"strategy = {strategy}\n{key} = {value}\n")
    dataset = tmp_path / "ds"
    code = run("simulate", "--config", cfg, "--out", dataset)
    err = capsys.readouterr().err
    assert code in (0, 1) and "Traceback" not in err
    if code == 1:
        assert not dataset.exists()
        return
    json.loads((dataset / "manifest.json").read_text(), parse_constant=_refuse_constant)
    out = tmp_path / "run"
    assert run("stitch", "--dataset", dataset, "--out", out) == 0
    code = run("evaluate", "--mosaic", out / "mosaic.pgm", "--sidecar", out / "sidecar.json",
               "--out", out)
    assert code in (0, 1) and "Traceback" not in capsys.readouterr().err
