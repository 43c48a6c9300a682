"""The single-pass stitch: band depth against a full-canvas oracle, memory, atomic outputs."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from galvomosaic import halves, pgm
from galvomosaic.cli import main
from galvomosaic.compose import _band_schedule, canvas_dims, compute_overlaps, tile_weight_map
from galvomosaic.correction import ReferencePair, fit_bright_only, fit_two_point
from galvomosaic.geometry import placement_table
from galvomosaic.metrics import normalized_mae
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


# Test id -> (correction, feather, stitch arguments).
STITCH_MODES = {
    "raw": ("off", False, ["--mode", "raw"]),
    "processed": ("two-point", True, ["--mode", "processed"]),
    "raw-two-point": ("two-point", False, ["--mode", "raw", "--correction", "two-point"]),
    "processed-uncorrected": ("off", True, ["--mode", "processed", "--correction", "off"]),
    "raw-bright-only": ("bright-only", False, ["--mode", "raw", "--correction", "bright-only"]),
    "processed-bright-only": ("bright-only", True,
                              ["--mode", "processed", "--correction", "bright-only"]),
}


def corrected(tile: np.ndarray, fits) -> np.ndarray:
    """The whole float tile with each fit's ROI corrected and blended back
    with the ROI-shaped weights min(d / band_px, 1), d the distance to the
    nearest ROI edge, in turn."""
    out = tile.copy()
    for model, roi, band_px in fits:
        x = np.arange(roi.width, dtype=np.float64)
        y = np.arange(roi.height, dtype=np.float64)
        dist = np.minimum(np.minimum(y, roi.height - 1 - y)[:, None],
                          np.minimum(x, roi.width - 1 - x)[None, :])
        weights = np.minimum(dist / float(band_px), 1.0)
        patch = out[roi.slices()]
        inverted = (patch - model.offset) / (model.gain + model.epsilon)
        blended = np.where(weights == 1.0, inverted, patch + weights * (inverted - patch))
        out[roi.slices()] = np.clip(blended, 0.0, 1.0)
    return out


def oracle(dataset: Path, correction: str, feather: bool):
    """The expected mosaic.pgm bytes and ``mae_per_overlap`` values.

    The mosaic comes from full-canvas value and weight sums, with each
    tile's weights taken from the whole overlap list.  Each MAE is
    ``normalized_mae`` on slices of the two whole corrected float tiles.
    """
    manifest = load_manifest(dataset)
    scan = manifest.run.scan
    tw, th = scan.tile_width, scan.tile_height
    placements = placement_table(scan)
    overlaps = compute_overlaps(placements, tw, th)
    width, height = canvas_dims(placements, tw, th)
    fits = []
    if correction != "off":
        bright = pgm.to_unit(pgm.read_pgm(dataset / manifest.ref_bright_path))
        dark = pgm.to_unit(pgm.read_pgm(dataset / manifest.ref_dark_path))
        for roi in manifest.run.rois:
            if correction == "two-point":
                refs = ReferencePair(bright, manifest.run.bright_level, dark, manifest.run.dark_level)
                model = fit_two_point(refs, roi, eps=manifest.run.epsilon)
            else:
                model = fit_bright_only(bright, manifest.run.bright_level, roi,
                                        eps=manifest.run.epsilon)
            fits.append((model, roi, manifest.run.band_px))
    paths = {(t.row, t.col): dataset / t.path for t in manifest.tiles}
    value = np.zeros((height, width))
    weight = np.zeros((height, width))
    tiles = {}
    for p in placements:
        tile = tiles[p.row, p.col] = corrected(pgm.to_unit(pgm.read_pgm(paths[(p.row, p.col)])), fits)
        box = np.s_[p.y:p.y + th, p.x:p.x + tw]
        if feather:
            w = np.outer(*tile_weight_map((p.row, p.col), tw, th, overlaps))
            value[box] += tile * w
            weight[box] += w
        else:
            value[box] = tile
            weight[box] = 1.0
    final = np.zeros((height, width))
    np.divide(value, weight, out=final, where=weight > 0.0)
    header = b"P5\n%d %d\n65535\n" % (width, height)
    boxes = {(p.row, p.col): (p.x, p.y) for p in placements}
    mae = []
    for ov in overlaps:
        pair = []
        for index in (ov.tile_a, ov.tile_b):
            x, y = boxes[index]
            pair.append(tiles[index][ov.rect.y0 - y:ov.rect.y1 - y, ov.rect.x0 - x:ov.rect.x1 - x])
        mae.append(normalized_mae(*pair)[0])
    return header + pgm.to_u16(final).astype(">u2").tobytes(), mae


def overlaps_two_columns_over(boxes, tile):
    return boxes[(0, 2)][0] < boxes[(0, 0)][0] + tile


def later_row_starts_above_earlier_row(boxes, tile):
    return boxes[(1, 4)][1] < boxes[(0, 0)][1]


def leaves_whole_rows_uncovered(boxes, tile):
    rows = set()
    for _, y in boxes.values():
        rows.update(range(y, y + tile))
    return len(rows) < max(rows) + 1


@pytest.mark.parametrize("mode", list(STITCH_MODES))
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
    correction, feather, argv = STITCH_MODES[mode]
    out = tmp_path / f"run_{mode}"
    assert run("stitch", "--dataset", dataset, "--out", out, *argv) == 0
    mosaic, mae = oracle(dataset, correction, feather)
    assert (out / "mosaic.pgm").read_bytes() == mosaic
    sidecar = json.loads((out / "sidecar.json").read_text())
    assert sidecar["mode"] == {"compose": "feathered" if feather else "raw",
                               "correction": correction}
    # Bit for bit: JSON floats round-trip exactly.
    assert [value for _, value in sidecar["mae_per_overlap"]] == mae


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


def test_raw_stitch_holds_counts_not_floats(tmp_path):
    # Raw stitch keeps tiles as uint16 counts: a 2 B/px row band, the
    # pending overlap samples of one grid row at 2 B/px, one MAE workspace
    # (two float64 rows of the largest overlap, and a two-row scratch of
    # at most halves.LEAF samples for each half of a split sum) and one
    # tile's counts.  The same pass with float64 band and samples needs
    # about twice this.
    dataset = simulate(tmp_path, "rows8", _grid_cfg(8))
    scan = load_manifest(dataset).run.scan
    placements = placement_table(scan)
    overlaps = compute_overlaps(placements, scan.tile_width, scan.tile_height)
    width, _ = canvas_dims(placements, scan.tile_width, scan.tile_height)
    assert len({p.y for p in placements if p.row == 0}) == 1  # untilted: one tile-high band
    band = width * scan.tile_height * 2
    areas = [ov.rect.width * ov.rect.height for ov in overlaps]
    pending = 2 * (sum(a for a, ov in zip(areas, overlaps) if ov.tile_a[0] == 0) + max(areas))
    largest = max(areas)
    halves_split = 1 if largest <= halves.LEAF else 2
    workspace = 2 * largest * 8 + halves_split * 2 * min(largest, halves.LEAF) * 8
    tile = scan.tile_width * scan.tile_height * 2
    # The run's own Python objects: manifest, placements, sidecar text.
    objects = 256 * 1024
    args = ("stitch", "--dataset", dataset, "--out", tmp_path / "run", "--mode", "raw")
    assert run(*args) == 0  # imports and caches are in place before tracing
    tracemalloc.start()
    try:
        code = run(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < band + pending + workspace + tile + objects, (
        peak, band, pending, workspace, tile)


# 400 px tiles on 350 px steps, tilted 20 px per row: every tile is worked
# in shared blocks, and its float64 copy (1.28 MB) would outweigh the
# slack below.
PROCESSED_CFG = """\
n_rows = 3
n_cols = 4
dv_x = 1
dv_y = 1
s_x = 350
s_y = 350
alpha_x = 20
tile_width = 400
tile_height = 400
rois = 0,250,120,150
band_px = 20
vignette_min = 0.9
gain_jitter = 0.05
noise_sigma = 0.002
seed = 9
"""


def _processed_peak_and_bound(tmp_path: Path, cfg_text: str) -> tuple[int, int]:
    """The tracemalloc peak of a processed stitch of ``cfg_text``, and its
    bound, the sum of: the float64 band; the pending overlap samples (as
    in the raw test); the two-row MAE workspace and each worker's
    scratch, which holds a block of decoded rows (or, during the sums,
    the leaf scratch), counted with the ROI blend's three float64
    temporaries of a block's 64 ROI rows; the ROI gain, offset and ramps;
    one tile's counts; each worker's weight product of a 64-row block,
    and the blend's mask; the weight block, its mask and the encoded rows
    of one emitted block.  No term is a float64 tile."""
    dataset = simulate(tmp_path, "processed", cfg_text)
    run_cfg = load_manifest(dataset).run
    scan = run_cfg.scan
    tw, th = scan.tile_width, scan.tile_height
    placements = placement_table(scan)
    overlaps = compute_overlaps(placements, tw, th)
    width, height = canvas_dims(placements, tw, th)
    depth = _band_schedule([p.y for p in placements], th, height)[1]
    (roi,) = run_cfg.rois
    areas = [ov.rect.width * ov.rect.height for ov in overlaps]
    largest = max(areas)
    assert tw * th >= halves.SPLIT_MIN
    band = width * depth * 8
    pending = 2 * (sum(a for a, ov in zip(areas, overlaps) if ov.tile_a[0] == 0) + max(areas))
    block = min(halves.BLOCK_ROWS, th)
    per_worker = max(2 * min(largest, halves.LEAF), block * tw + 3 * 64 * roi.width) * 8
    workspace = 2 * largest * 8 + 2 * per_worker
    fits = 2 * roi.width * roi.height * 8 + (roi.width + roi.height) * 8
    tile = tw * th * 2
    scratch = 2 * (block * tw * 8 + 64 * roi.width)
    emit = min(halves.BLOCK_ROWS, depth) * width * (8 + 1 + 2)
    # The run's own Python objects: manifest, placements, fits, sidecar text.
    objects = 512 * 1024
    args = ("stitch", "--dataset", dataset, "--out", tmp_path / "run", "--mode", "processed")
    assert run(*args) == 0  # imports and caches are in place before tracing
    tracemalloc.start()
    try:
        code = run(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, band + pending + workspace + fits + tile + scratch + emit + objects


def test_processed_stitch_holds_no_float_tile(tmp_path):
    # Processed stitch decodes, corrects and feathers each tile block by
    # block (PROCESSED_CFG: its float64 tile would be 1.28 MB).
    peak, bound = _processed_peak_and_bound(tmp_path, PROCESSED_CFG)
    assert peak < bound, (peak, bound)


# 400 px tiles on 100 px steps: each overlap is 300 x 400 or 400 x 300
# px, so one float64 row of MAE samples (0.96 MB) outweighs the slack of
# the bound.
WIDE_OVERLAP_CFG = """\
n_rows = 2
n_cols = 3
dv_x = 1
dv_y = 1
s_x = 100
s_y = 100
tile_width = 400
tile_height = 400
rois = 0,250,120,150
band_px = 20
vignette_min = 0.9
gain_jitter = 0.05
noise_sigma = 0.002
seed = 9
"""


def test_processed_stitch_holds_two_rows_of_mae_samples(tmp_path):
    # The left pair's later samples are copied as the tile is composed,
    # and every other window is decoded into the same two rows.
    peak, bound = _processed_peak_and_bound(tmp_path, WIDE_OVERLAP_CFG)
    assert peak < bound, (peak, bound)


def test_failed_stitch_keeps_earlier_outputs(tmp_path, capsys):
    dataset = simulate(tmp_path, "quick", QUICK_CFG)
    out = tmp_path / "run"
    assert run("stitch", "--dataset", dataset, "--out", out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"mosaic.pgm", "sidecar.json"}

    manifest = load_manifest(dataset)
    last_row = max(t.row for t in manifest.tiles)
    victim = dataset / next(t.path for t in manifest.tiles if t.row == last_row)
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
