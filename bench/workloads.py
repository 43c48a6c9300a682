"""The benchmark's workloads: scan configs, repeat counts and truth-error references.

Each workload is a complete key-value config for ``galvomosaic simulate``;
the benchmark's ``--seed`` is passed as ``simulate --seed`` and overrides
the config's own seed, so the program only ever sees the generated config
and the dataset it simulates.  The configs are copied here, not read from
``configs/``, so that editing the repository's example configs cannot
change what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass

# Same text as configs/full_scan.cfg: 10x10 frames of 1000 px, 4980x5633 canvas.
FULL_SCAN = """\
n_rows = 10
n_cols = 10
dv_x = 1.1
dv_y = 1.1
s_x = 402
s_y = 468
tile_width = 1000
tile_height = 1000
settle_ms = 30
per_frame_ms = 60.5
vignette_min = 0.85
corner_offset = 0.05
gain_jitter = 0.05
noise_sigma = 0.002
seed = 1
"""

# configs/quick.cfg geometry (80 px frames on 35 px steps) on a 40x40 grid.
SMALL_TILES = """\
n_rows = 40
n_cols = 40
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
gain_jitter = 0.05
seed = 42
"""

# full_scan frames on a sinusoidal X drive, with tilt and bilinear
# sub-pixel sampling; the grid is shrunk to 6x6 to fit the run budget.
SINUSOIDAL_TILT = (
    FULL_SCAN.replace("n_rows = 10", "n_rows = 6").replace("n_cols = 10", "n_cols = 6")
    + "strategy = sinusoidal\nalpha_x = 23.5\nalpha_y = 17.25\nsubpixel = true\n"
)

# A seconds-long pipeline for the benchmark's own tests; not listed in BENCHMARK.json.
TINY = """\
n_rows = 3
n_cols = 3
dv_x = 0.1
dv_y = 0.1
s_x = 350
s_y = 352
tile_width = 64
tile_height = 64
settle_ms = 30
per_frame_ms = 60.5
rois = 0,40,20,20
band_px = 4
vignette_min = 0.9
corner_offset = 0.05
noise_sigma = 0.002
seed = 7
"""


@dataclass(frozen=True)
class Workload:
    """One benchmark input.

    ``repeats`` is how often each command runs per iteration; sub-second
    commands repeat so each run reports a median over several samples.
    ``truth_mae`` holds the reference mean |mosaic - truth| (raw,
    processed) at the commit that defined the benchmark: for the workloads
    in BENCHMARK.json the median over 26 seeds (1-12, 42, 1000, 123456,
    2147483647, 1001-1010), for ``tiny`` over 12.  The seed
    moves the per-tile gain jitter, so the error moves with it;
    ``truth_tolerance`` is the relative distance from the reference that
    still passes the output check, six standard deviations of the error
    over those seeds, per mode.
    """

    name: str
    why: str
    config: str
    repeats: dict[str, int]
    truth_mae: tuple[float, float]
    truth_tolerance: tuple[float, float]

    def settings(self) -> dict[str, str]:
        return dict(
            (key.strip(), value.strip())
            for key, value in (line.split("=", 1) for line in self.config.splitlines())
        )

    @property
    def n_tiles(self) -> int:
        settings = self.settings()
        return int(settings["n_rows"]) * int(settings["n_cols"])

    @property
    def warmup_config(self) -> str:
        """The same config on a 2x2 grid."""
        settings = {**self.settings(), "n_rows": "2", "n_cols": "2"}
        return "".join(f"{key} = {value}\n" for key, value in settings.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="full_scan_linear",
            why="paper-scale 10x10 grid of 1000 px frames: bulk pixel work, PGM I/O and "
            "a 28 Mpx float64 canvas dominate; per-tile Python overhead is under 5%",
            config=FULL_SCAN,
            repeats={"simulate": 1, "stitch_raw": 1, "stitch_processed": 1, "evaluate": 5},
            truth_mae=(0.0459605, 0.0226874),
            truth_tolerance=(0.14, 0.29),
        ),
        Workload(
            name="small_tiles_40x40",
            why="1600 80 px tiles and 3120 overlaps: per-tile and per-overlap Python work "
            "dominates, pixel bulk is small, so per-tile overhead shows",
            config=SMALL_TILES,
            repeats={"simulate": 2, "stitch_raw": 3, "stitch_processed": 2, "evaluate": 8},
            truth_mae=(0.0198305, 0.0113453),
            truth_tolerance=(0.09, 0.11),
        ),
        Workload(
            name="sinusoidal_tilt_subpixel",
            why="sinusoidal drive with tilt and bilinear sub-pixel tiles: uneven column "
            "spacing, overlaps and ramps defeat uniform-geometry shortcuts",
            config=SINUSOIDAL_TILT,
            repeats={"simulate": 1, "stitch_raw": 1, "stitch_processed": 1, "evaluate": 5},
            truth_mae=(0.0899935, 0.0721182),
            truth_tolerance=(0.19, 0.24),
        ),
        Workload(
            name="tiny",
            why="3x3 grid of 64 px frames for the benchmark's own tests",
            config=TINY,
            repeats={"simulate": 1, "stitch_raw": 1, "stitch_processed": 1, "evaluate": 2},
            truth_mae=(0.0254120, 0.0192832),
            truth_tolerance=(0.02, 0.02),
        ),
    )
}
