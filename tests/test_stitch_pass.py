"""The single-pass stitch: band depth against a full-canvas oracle, memory, atomic outputs."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from galvomosaic import pgm
from galvomosaic.cli import main
from galvomosaic.compose import canvas_dims, compute_overlaps, tile_weight_map
from galvomosaic.correction import (
    ReferencePair,
    apply_roi_corrections,
    fit_two_point,
    linear_weight_field,
)
from galvomosaic.geometry import placement_table
from galvomosaic.simulate import load_manifest

QUICK_CFG = (Path(__file__).resolve().parents[1] / "configs" / "quick.cfg").read_text()

# Sinusoidal drive, bilinear sub-pixel tiles and a negative Y tilt: each
# grid row climbs 12 px per column, so the last tile of a grid row lies
# above the first tile of the row before it.
SINUSOIDAL_TILT_CFG = """\
n_rows = 4
n_cols = 5
dv_x = 0.1
dv_y = 0.1
s_x = 350
s_y = 352
alpha_x = 3.5
alpha_y = -12.25
strategy = sinusoidal
subpixel = true
tile_width = 64
tile_height = 64
rois = 0,40,20,20;44,40,20,20
band_px = 4
vignette_min = 0.9
corner_offset = 0.05
gain_jitter = 0.05
seed = 11
"""

# 105 px voltage steps on 64 px tiles: no overlaps, and whole canvas rows
# and columns between the tiles stay uncovered.
GAPPED_CFG = """\
n_rows = 3
n_cols = 4
dv_x = 0.3
dv_y = 0.3
s_x = 350
s_y = 350
tile_width = 64
tile_height = 64
rois = 0,40,20,20
band_px = 4
vignette_min = 0.9
corner_offset = 0.05
gain_jitter = 0.05
seed = 5
"""


def run(*argv) -> int:
    return main([str(a) for a in argv])


def simulate(tmp_path: Path, name: str, cfg_text: str) -> Path:
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(cfg_text)
    dataset = tmp_path / f"ds_{name}"
    assert run("simulate", "--config", cfg, "--out", dataset) == 0
    return dataset


def oracle_pgm(dataset: Path, mode: str) -> bytes:
    """The expected mosaic.pgm, from full-canvas value and weight sums.

    Processed mode is two-point correction plus feathering, with each
    tile's weights taken from the whole overlap list.
    """
    manifest = load_manifest(dataset)
    scan = manifest.run.scan
    tw, th = scan.tile_width, scan.tile_height
    placements = placement_table(scan)
    overlaps = compute_overlaps(placements, tw, th)
    width, height = canvas_dims(placements, tw, th)
    fits = []
    if mode == "processed":
        refs = ReferencePair(
            bright_frame=pgm.to_unit(pgm.read_pgm(dataset / manifest.ref_bright_path)),
            l_bright=manifest.run.bright_level,
            dark_frame=pgm.to_unit(pgm.read_pgm(dataset / manifest.ref_dark_path)),
            l_dark=manifest.run.dark_level,
        )
        fits = [
            (fit_two_point(refs, roi, eps=manifest.run.epsilon), roi,
             linear_weight_field(roi, manifest.run.band_px))
            for roi in manifest.run.rois
        ]
    paths = {(t["row"], t["col"]): dataset / t["path"] for t in manifest.tiles}
    value = np.zeros((height, width))
    weight = np.zeros((height, width))
    for p in placements:
        tile = pgm.to_unit(pgm.read_pgm(paths[(p.row, p.col)]))
        x, y = p.x, p.y
        box = np.s_[y:y + th, x:x + tw]
        if mode == "processed":
            w = np.outer(*tile_weight_map((p.row, p.col), tw, th, overlaps))
            value[box] += apply_roi_corrections(tile, fits) * w
            weight[box] += w
        else:
            value[box] = tile
            weight[box] = 1.0
    final = np.zeros((height, width))
    np.divide(value, weight, out=final, where=weight > 0.0)
    header = b"P5\n%d %d\n65535\n" % (width, height)
    return header + pgm.to_u16(final).astype(">u2").tobytes()


def overlaps_two_columns_over(boxes, tile):
    return boxes[(0, 2)][0] < boxes[(0, 0)][0] + tile


def later_row_starts_above_earlier_row(boxes, tile):
    return boxes[(1, 4)][1] < boxes[(0, 0)][1]


def leaves_whole_rows_uncovered(boxes, tile):
    rows = set()
    for _, y in boxes.values():
        rows.update(range(y, y + tile))
    return len(rows) < max(rows) + 1


@pytest.mark.parametrize("mode", ["raw", "processed"])
@pytest.mark.parametrize(
    "name, cfg_text, geometry",
    [
        ("quick", QUICK_CFG, overlaps_two_columns_over),
        ("sinusoidal_tilt", SINUSOIDAL_TILT_CFG, later_row_starts_above_earlier_row),
        ("gapped", GAPPED_CFG, leaves_whole_rows_uncovered),
    ],
)
def test_mosaic_matches_full_canvas_oracle(tmp_path, name, cfg_text, geometry, mode):
    dataset = simulate(tmp_path, name, cfg_text)
    scan = load_manifest(dataset).run.scan
    boxes = {(p.row, p.col): (p.x, p.y) for p in placement_table(scan)}
    assert geometry(boxes, scan.tile_height)
    out = tmp_path / f"run_{mode}"
    assert run("stitch", "--dataset", dataset, "--out", out, "--mode", mode) == 0
    assert (out / "mosaic.pgm").read_bytes() == oracle_pgm(dataset, mode)


def _grid_cfg(n_rows: int) -> str:
    return (
        f"n_rows = {n_rows}\nn_cols = 8\ndv_x = 0.1\ndv_y = 0.1\ns_x = 1200\ns_y = 1300\n"
        "tile_width = 200\ntile_height = 200\nrois = 0,120,80,80\nband_px = 10\n"
        "vignette_min = 0.9\ngain_jitter = 0.05\nseed = 3\n"
    )


def test_stitch_memory_does_not_grow_with_grid_rows(tmp_path):
    peaks = {}
    for n_rows in (8, 16):
        dataset = simulate(tmp_path, f"rows{n_rows}", _grid_cfg(n_rows))
        tracemalloc.start()
        try:
            code = run("stitch", "--dataset", dataset, "--out", tmp_path / f"run{n_rows}",
                       "--mode", "processed")
            peaks[n_rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[16] <= 1.25 * peaks[8], peaks


def test_failed_stitch_keeps_earlier_outputs(tmp_path, capsys):
    dataset = simulate(tmp_path, "quick", QUICK_CFG)
    out = tmp_path / "run"
    assert run("stitch", "--dataset", dataset, "--out", out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"mosaic.pgm", "sidecar.json"}

    manifest = load_manifest(dataset)
    last_row = max(t["row"] for t in manifest.tiles)
    victim = dataset / next(t["path"] for t in manifest.tiles if t["row"] == last_row)
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])
    capsys.readouterr()

    assert run("stitch", "--dataset", dataset, "--out", out) == 1
    assert str(victim) in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_wrong_size_tile_is_named(tmp_path, capsys):
    dataset = simulate(tmp_path, "quick", QUICK_CFG)
    victim = dataset / "tile_r00_c01.pgm"
    pgm.write_pgm(victim, np.zeros((40, 40), dtype=np.uint16))
    capsys.readouterr()
    out = tmp_path / "run"
    assert run("stitch", "--dataset", dataset, "--out", out) == 1
    assert f"{victim}: tile (0, 1) is 40x40, expected 80x80" in capsys.readouterr().err
    assert list(out.iterdir()) == []
