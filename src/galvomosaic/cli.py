"""Command-line pipeline: simulate a dataset, stitch it, evaluate it.

    galvomosaic simulate --config scan.cfg --out dataset/
    galvomosaic stitch   --dataset dataset/ --out run/ --mode processed
    galvomosaic evaluate --mosaic run/mosaic.pgm --sidecar run/sidecar.json --out run/

``--mode raw`` turns correction and feathering off, ``--mode processed``
turns both on; ``--correction`` and ``--feather`` override the mode's
defaults independently so every raw/processed combination is reachable.
All outputs are deterministic functions of the config and seed.

``stitch`` reads each tile once, as 16-bit counts, and composes it in
one pass of row blocks that the calling thread and a helper thread
claim in turn (:mod:`galvomosaic.halves`): each block is decoded,
corrected, copied into the samples of the left overlap that the tile
closes and added to the row band, so no float64 copy of a whole tile
is made.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import halves, pgm
from .compose import (
    BLOCK_ROWS,
    Axis,
    OverlapRegion,
    SeamLine,
    TileBlocks,
    canvas_dims,
    compose_feathered,
    compose_raw,
    compute_overlaps,
    derive_seams,
    overlaps_by_tile,
)
from .config import load_run_config, regions_from_file
from .correction import (
    ReferencePair,
    _blend,
    fit_bright_only,
    fit_two_point,
    linear_weight_field,
)
from .errors import ConfigError, GalvoMosaicError, UndefinedCnrError
from .geometry import TilePlacement, placement_table
from .metrics import (
    MaeWorkspace,
    MetricsReport,
    RegionKind,
    RegionSpec,
    cnr,
    mean_seam_jump,
    normalized_mae,
    region_std,
)
from .records import dumps_indented, fields_dict, read
from .simulate import DatasetManifest, load_manifest, write_dataset


def cmd_simulate(args: argparse.Namespace) -> int:
    rc = load_run_config(args.config, strategy_override=args.strategy, seed_override=args.seed)
    manifest = write_dataset(args.out, rc)
    print(
        f"wrote {len(manifest.tiles)} tiles + 2 references + manifest to {args.out} "
        f"(total acquisition {manifest.total_s:.3g} s)"
    )
    return 0


def _resolve_mode(args: argparse.Namespace) -> tuple[str, bool]:
    """(correction, feather) after applying --mode defaults and overrides."""
    if args.mode == "raw":
        correction, feather = "off", False
    else:
        correction, feather = "two-point", True
    if args.correction is not None:
        correction = args.correction
    if args.feather is not None:
        feather = args.feather == "on"
    return correction, feather


def _check_shape(path, what: str, shape: tuple[int, int], expected: tuple[int, int]) -> None:
    """Raise :class:`~galvomosaic.pgm.ImageFormatError` naming ``path`` and
    ``what`` unless the image's (height, width) ``shape`` is ``expected``."""
    if shape != expected:
        raise pgm.ImageFormatError(
            f"{path}: {what} is {shape[1]}x{shape[0]}, expected {expected[1]}x{expected[0]}"
        )


def _read_frame(path: Path, shape: tuple[int, int], what: str) -> np.ndarray:
    """The counts of a tile or reference frame, checked to be of (height, width) ``shape``."""
    counts = pgm.read_counts(path)
    _check_shape(path, what, counts.shape, shape)
    return counts


def _build_fits(manifest: DatasetManifest, dataset: Path, correction: str):
    """(model, ROI, weights) per ROI, from both references or, for
    bright-only correction, the bright one alone.  An ROI whose gain plus
    epsilon is 0 at some pixel raises :class:`GalvoMosaicError`."""
    if correction == "off":
        return []
    run = manifest.run
    shape = (run.scan.tile_height, run.scan.tile_width)
    bright = pgm.to_unit(_read_frame(dataset / manifest.ref_bright_path, shape, "reference frame"))
    files = manifest.ref_bright_path
    if correction == "two-point":
        dark = pgm.to_unit(_read_frame(dataset / manifest.ref_dark_path, shape, "reference frame"))
        refs = ReferencePair(bright, run.bright_level, dark, run.dark_level)
        models = [fit_two_point(refs, roi, eps=run.epsilon) for roi in run.rois]
        files += f" and {manifest.ref_dark_path}"
    else:
        models = [fit_bright_only(bright, run.bright_level, roi, eps=run.epsilon)
                  for roi in run.rois]
    for k, (model, roi) in enumerate(zip(models, run.rois)):
        if not np.all(model.gain + model.epsilon):
            raise GalvoMosaicError(
                f"rois[{k}] = {roi.x0},{roi.y0},{roi.width},{roi.height}: gain + epsilon is 0 "
                f"at some pixel of the fit to {files} with epsilon = {run.epsilon}, so the "
                "correction would divide by 0"
            )
    return [(model, roi, linear_weight_field(roi, run.band_px))
            for model, roi in zip(models, run.rois)]


# The block passes of stitch (galvomosaic.halves.blocks) run on two
# threads.  The helper thread may not call a public function such as
# pgm.to_unit or correction.apply_roi_corrections, so these call the
# private pgm._decode and correction._blend.


def _unit(counts: np.ndarray, out: np.ndarray, fits: list,
          origin: tuple[int, int]) -> np.ndarray:
    """``out`` holding ``counts`` decoded and corrected: a window of a
    frame whose top-left pixel is frame pixel ``origin``.  Every step is
    elementwise, so a window comes out bit-equal to the same window of
    the whole corrected frame."""
    pgm._decode(counts, out)
    if fits:
        _blend(out, fits, origin)
    return out


class _Frame(TileBlocks):
    """A tile's float64 intensities, decoded from its counts block by
    block into the ``scratch`` row of the worker that composes the block
    and corrected there; the ROI correction's temporaries hold at most a
    block's part of an ROI.  Each block also copies its rows of the
    ``windows`` it is given into their MAE samples.  A tile of
    ``halves.SPLIT_MIN`` pixels or more is worked in blocks of at most
    ``halves.BLOCK_ROWS`` rows, by both workers; a smaller tile is one
    block on the calling thread.
    """

    def __init__(self, counts: np.ndarray, fits: list, scratch: np.ndarray, windows: list):
        super().__init__(counts.shape, np.dtype(np.float64))
        self.counts = counts
        self.fits = fits
        self.scratch = scratch
        # (first row, end row, columns, samples) of each window to copy.
        self.windows = windows

    def block(self, worker: int, lo: int, hi: int) -> np.ndarray:
        rows = self.scratch[worker, :(hi - lo) * self.shape[1]].reshape(hi - lo, -1)
        out = _unit(self.counts[lo:hi], rows, self.fits, (lo, 0))
        for top, bottom, cols, samples in self.windows:
            a, b = max(lo, top), min(hi, bottom)
            if a < b:
                samples[a - top:b - top] = out[a - lo:b - lo, cols]
        return out


def _samples(worker: int, lo: int, hi: int, fits: list, counts: np.ndarray,
             origin: tuple[int, int], out: np.ndarray) -> None:
    """Rows ``lo..hi`` of an overlap's samples of one tile: the ``counts``
    of its window, whose top-left pixel is tile pixel ``origin``, decoded
    and corrected into ``out``."""
    _unit(counts[lo:hi], out[lo:hi], fits, (origin[0] + lo, origin[1]))


def _encode(worker: int, lo: int, hi: int, counts: np.ndarray, rows: np.ndarray) -> None:
    counts[lo:hi] = pgm.scale_to_counts(rows[lo:hi])


def _corrected_tiles(
    dataset: Path,
    manifest: DatasetManifest,
    fits,
    decoded: bool,
    placements: list[TilePlacement],
    overlaps: list[OverlapRegion],
    mae: list,
):
    """Read each tile once, in placement order, and yield it for composing.

    A tile is read as its uint16 counts.  Unless it is ``decoded`` (to be
    corrected or feathered) the counts themselves are yielded, and raw
    composition keeps them as counts.  Otherwise a :class:`_Frame` is
    yielded, which the band asks for one block of rows at a time, so no
    float64 copy of the whole tile is made.

    ``mae[k]`` is filled for every overlap k that a tile closes (its left
    and top pairs) once the tile is composed, when the next tile is asked
    for, so the caller must ask once more after the last.  Until then
    the earlier tile keeps only its overlap samples, as uint16 counts
    (2 B/px).  The MAE samples lie in one workspace of two rows sized to
    the largest overlap.  A :class:`_Frame` copies its rows of the left
    pair's window into the later row as it is composed; that pair is
    closed first.  Every other window, the earlier tile's and the later
    tile's window of the top pair or of raw counts, is decoded from its
    counts and, in corrected modes, corrected again where an ROI reaches
    into it.  Decoding and correcting are elementwise, so the MAE sees
    the same float64 values as on whole corrected tiles.  A tile whose
    dimensions differ from the manifest's raises
    :class:`~galvomosaic.pgm.ImageFormatError`.
    """
    paths = {(t.row, t.col): dataset / t.path for t in manifest.tiles}
    height, width = expected = (manifest.run.scan.tile_height, manifest.run.scan.tile_width)
    by_tile = overlaps_by_tile(overlaps)
    # Each worker's scratch holds the rows of one block of a tile.
    work = MaeWorkspace(max((ov.rect.width * ov.rect.height for ov in overlaps), default=0),
                        scratch=halves.step(height, height * width) * width if decoded else 0)
    # overlap index -> (counts, window origin in the earlier tile)
    pending: dict[int, tuple[np.ndarray, tuple[int, int]]] = {}
    for p in placements:
        key = (p.row, p.col)
        counts = _read_frame(paths[key], expected, f"tile ({p.row}, {p.col})")
        closing, windows, opening = [], [], []
        for k in by_tile.get(key, ()):
            rect = overlaps[k].rect
            top, left = rect.y0 - p.y, rect.x0 - p.x
            window = np.s_[top:top + rect.height, left:left + rect.width]
            shape = (rect.height, rect.width)
            if key == overlaps[k].tile_a:
                opening.append((k, window, (top, left)))
            elif decoded and overlaps[k].axis is Axis.HORIZONTAL:
                # The frame fills the left pair's later samples as it is
                # composed, so that pair is closed before the top one.
                windows.append((top, top + rect.height, window[1], work.samples(shape)[1]))
                closing.insert(0, (k, shape, None))
            else:
                closing.append((k, shape, (counts[window], (top, left))))
        yield _Frame(counts, fits, work.scratch(), windows) if decoded else counts
        for k, shape, later in closing:
            x, y = work.samples(shape)
            if later is not None:
                halves.blocks(_samples, len(y), y.size, fits, *later, y)
            # The earlier window is held by the pass alone, and let go with it.
            halves.blocks(_samples, len(x), x.size, fits, *pending.pop(k), x)
            mae[k] = normalized_mae(x, y, work)
        # Taken once the earlier windows are let go, so that the two are
        # not held at once.
        for k, window, origin in opening:
            pending[k] = counts[window].copy(), origin
        # Hold no tile counts while the next tile is read.
        counts = later = closing = None


@dataclass(frozen=True)
class _Size:
    """The ``canvas`` and ``tile`` keys of ``sidecar.json``, in pixels."""

    width: int = field(metadata={"least": 1})
    height: int = field(metadata={"least": 1})


def cmd_stitch(args: argparse.Namespace) -> int:
    dataset = Path(args.dataset)
    manifest = load_manifest(dataset)
    missing = sorted(
        (t.row, t.col) for t in manifest.tiles if not (dataset / t.path).exists()
    )
    if missing:
        raise GalvoMosaicError(
            "missing tile files for (row, col): "
            + ", ".join(f"({i}, {j})" for i, j in missing)
        )
    correction, feather = _resolve_mode(args)

    scan = manifest.run.scan
    placements = placement_table(scan)
    overlaps = compute_overlaps(placements, scan.tile_width, scan.tile_height)
    seams = derive_seams(placements, overlaps)
    width, height = canvas_dims(placements, scan.tile_width, scan.tile_height)
    fits = _build_fits(manifest, dataset, correction)

    # One pass: each tile is read and corrected once, its overlap MAE
    # (on corrected-but-unblended tiles) is taken as it arrives, and the
    # finished mosaic rows are encoded and appended to the PGM.  Raw
    # counts are composed as they are; other tiles are decoded to float64.
    decoded = bool(fits) or feather
    mae: list = [None] * len(overlaps)
    tiles = _corrected_tiles(dataset, manifest, fits, decoded, placements, overlaps, mae)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with pgm.replacing(out / "mosaic.pgm") as f:
        f.write(pgm.pgm_header(width, height))

        # The counts of one block of float rows, reused for every block.
        encoded = np.empty((min(BLOCK_ROWS, height), width), ">u2") if decoded else None

        def write_rows(row: int, rows: np.ndarray) -> None:
            # Raw counts are written as they are; float rows are encoded
            # in place, block by block, and the band zeroes them next.
            if decoded:
                counts = encoded[:len(rows)]
                halves.blocks(_encode, len(rows), rows.size, counts, rows)
                rows = counts
            f.write(rows.astype(">u2", copy=False))

        if feather:
            compose_feathered(
                tiles, placements, overlaps, scan.tile_width, scan.tile_height, sink=write_rows
            )
        else:
            compose_raw(tiles, placements, scan.tile_width, scan.tile_height, sink=write_rows)

    # One consistency value per grid-adjacent overlapping pair.
    pairs = [f"({ov.tile_a[0]},{ov.tile_a[1]})-({ov.tile_b[0]},{ov.tile_b[1]})" for ov in overlaps]
    mae_entries = [(pair, value) for pair, (value, _, _) in zip(pairs, mae)]
    mae_mean = float(np.mean([v for _, v in mae_entries])) if mae_entries else math.nan

    sidecar = {
        "canvas": fields_dict(_Size(width, height)),
        "tile": fields_dict(_Size(scan.tile_width, scan.tile_height)),
        "mode": {
            "compose": "feathered" if feather else "raw",
            "correction": correction,
        },
        "placements": [fields_dict(p) for p in placements],
        "seams": [fields_dict(s) for s in seams],
        "mae_per_overlap": mae_entries,
        "mae_mean": None if math.isnan(mae_mean) else mae_mean,
        "mae_degenerate_pairs": [p for p, (_, _, degenerate) in zip(pairs, mae) if degenerate],
        "regions": [fields_dict(r) for r in manifest.run.regions],
    }
    with pgm.replacing(out / "sidecar.json") as f:
        f.write((dumps_indented(sidecar) + "\n").encode("ascii"))
    print(
        f"wrote {out / 'mosaic.pgm'} ({width}x{height}, "
        f"correction={correction}, feather={'on' if feather else 'off'})"
    )
    return 0


@dataclass(frozen=True)
class _SidecarInputs:
    """The keys of ``sidecar.json`` that ``evaluate`` reads; it skips the others."""

    canvas: _Size
    seams: list[SeamLine]
    mae_per_overlap: list[tuple[str, float]]
    mae_mean: float | None
    regions: list[RegionSpec]


def cmd_evaluate(args: argparse.Namespace) -> int:
    # The metrics convert only the region rows and seam lines they index.
    mosaic = pgm.UnitView(args.mosaic)
    try:
        sidecar = read(_SidecarInputs, json.loads(Path(args.sidecar).read_text(encoding="ascii")),
                       extra_keys=True)
    except (ValueError, GalvoMosaicError) as exc:
        raise GalvoMosaicError(f"malformed sidecar {args.sidecar}: {exc}") from exc
    canvas = sidecar.canvas
    _check_shape(args.mosaic, "mosaic", mosaic.shape, (canvas.height, canvas.width))

    regions = regions_from_file(args.regions) if args.regions else sidecar.regions
    by_kind = {r.kind: r for r in regions}
    signal = by_kind.get(RegionKind.SIGNAL)
    bright = by_kind.get(RegionKind.BRIGHT_BACKGROUND)
    dark = by_kind.get(RegionKind.DARK_BACKGROUND)
    if signal is None or bright is None or dark is None:
        raise ConfigError(
            "need signal, bright, and dark regions (from --regions or the sidecar)"
        )

    cnr_value = math.nan
    try:
        cnr_value = cnr(mosaic, signal, bright)
    except UndefinedCnrError as exc:
        print(f"warning: CNR degenerate: {exc}", file=sys.stderr)

    report = MetricsReport(
        mae_per_overlap=sidecar.mae_per_overlap,
        mae_mean=math.nan if sidecar.mae_mean is None else float(sidecar.mae_mean),
        cnr=cnr_value,
        bright_std=region_std(mosaic, bright),
        dark_std=region_std(mosaic, dark),
        mean_seam_jump=mean_seam_jump(mosaic, sidecar.seams) if sidecar.seams else 0.0,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with pgm.replacing(out / "report.json") as f:
        f.write(report.to_json().encode("ascii"))
    with pgm.replacing(out / "report.txt") as f:
        f.write(report.to_text().encode("ascii"))
    print(
        f"cnr={report.cnr:.6g} bright_std={report.bright_std:.6g} "
        f"dark_std={report.dark_std:.6g} mean_seam_jump={report.mean_seam_jump:.6g} "
        f"mae_mean={report.mae_mean:.6g}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galvomosaic",
        description="Simulate, stitch, and evaluate galvo-scanned image mosaics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic tile dataset")
    p_sim.add_argument("--config", required=True, help="key-value config file")
    p_sim.add_argument("--out", required=True, help="dataset output directory")
    p_sim.add_argument(
        "--strategy", choices=["linear", "sinusoidal"], help="override the config strategy"
    )
    p_sim.add_argument("--seed", type=int, help="override the config RNG seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_st = sub.add_parser("stitch", help="compose a dataset into a mosaic")
    p_st.add_argument("--dataset", required=True, help="dataset directory with manifest.json")
    p_st.add_argument("--out", required=True, help="output directory for mosaic + sidecar")
    p_st.add_argument(
        "--mode",
        choices=["raw", "processed"],
        default="processed",
        help="raw = no correction, overwrite; processed = correction + feathering",
    )
    p_st.add_argument(
        "--correction",
        choices=["two-point", "bright-only", "off"],
        help="override the mode's correction choice",
    )
    p_st.add_argument(
        "--feather", choices=["on", "off"], help="override the mode's feathering choice"
    )
    p_st.set_defaults(func=cmd_stitch)

    p_ev = sub.add_parser("evaluate", help="compute metrics for a stitched mosaic")
    p_ev.add_argument("--mosaic", required=True, help="mosaic image (16-bit PGM)")
    p_ev.add_argument("--sidecar", required=True, help="sidecar JSON written by stitch")
    p_ev.add_argument(
        "--regions", help="key-value file with region_signal/region_bright/region_dark"
    )
    p_ev.add_argument("--out", required=True, help="output directory for report files")
    p_ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GalvoMosaicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
