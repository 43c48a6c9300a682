"""Canvas composition: dims, overlaps, raw/feathered modes, seams."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galvomosaic.compose import (
    BLOCK_ROWS,
    Axis,
    canvas_dims,
    compose_feathered,
    compose_raw,
    compute_overlaps,
    derive_seams,
    tile_weight_map,
)
from galvomosaic.errors import CompositionError, DimensionMismatchError
from galvomosaic.pgm import to_u16, to_unit
from galvomosaic.geometry import (
    ScanConfig,
    ScanStrategy,
    TilePlacement,
    placement_table,
    round_half_away,
)


def grid_cfg(**overrides) -> ScanConfig:
    base = dict(
        n_rows=10, n_cols=10, dv_x=1.1, dv_y=1.1, s_x=402.0, s_y=468.0,
        tile_width=1000, tile_height=1000,
    )
    base.update(overrides)
    return ScanConfig(**base)


def place(row, col, dx, dy):
    return TilePlacement(row=row, col=col, dx=dx, dy=dy)


class TestRounding:
    def test_round_half_away(self):
        cases = [(0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3),
                 (-0.5, -1), (-1.5, -2), (-0.4, 0), (3979.8, 3980), (442.2, 442)]
        for value, expected in cases:
            assert round_half_away(value) == expected


class TestCanvasDims:
    def test_single_tile(self):
        assert canvas_dims([place(0, 0, 0.0, 0.0)], 1000, 1000) == (1000, 1000)

    def test_full_grid_canvas_width(self):
        table = placement_table(grid_cfg())
        width, height = canvas_dims(table, 1000, 1000)
        assert width == 4980  # round(3979.8) + 1000
        assert height == round_half_away(9 * 1.1 * 468) + 1000

    def test_two_tile_overlap(self):
        dims = canvas_dims([place(0, 0, 0, 0), place(0, 1, 500, 0)], 1000, 1000)
        assert dims == (1500, 1000)

    def test_empty_placements_rejected(self):
        with pytest.raises(CompositionError):
            canvas_dims([], 100, 100)

    def test_negative_offsets_rejected(self):
        with pytest.raises(CompositionError):
            canvas_dims([place(0, 0, -5.0, 0.0)], 100, 100)


class TestComputeOverlaps:
    def test_two_tile_overlap_width_after_rounding(self):
        placements = [place(0, 0, 0.0, 0.0), place(0, 1, 442.2, 0.0)]
        (overlap,) = compute_overlaps(placements, 1000, 1000)
        assert overlap.rect.width == 1000 - 442

    def test_full_grid_overlap_widths(self):
        # round(442.2 * j) steps alternate between 442 and 443 px, so the
        # overlap widths sit within one pixel of 558.
        table = placement_table(grid_cfg())
        overlaps = compute_overlaps(table, 1000, 1000)
        horizontal = [o for o in overlaps if o.axis is Axis.HORIZONTAL]
        assert len(horizontal) == 90
        assert {o.rect.width for o in horizontal} == {557, 558}

    def test_disjoint_tiles_produce_no_overlap(self):
        placements = [place(0, 0, 0, 0), place(0, 1, 1200, 0)]
        assert compute_overlaps(placements, 1000, 1000) == []

    def test_sinusoidal_center_overlaps_are_narrowest(self):
        table = placement_table(grid_cfg(strategy=ScanStrategy.SINUSOIDAL))
        overlaps = compute_overlaps(table, 1000, 1000)
        row0 = sorted(
            (o for o in overlaps if o.axis is Axis.HORIZONTAL and o.tile_a[0] == 0),
            key=lambda o: o.tile_a[1],
        )
        widths = [o.rect.width for o in row0]
        assert min(widths) == widths[4]  # center pair has the widest spacing
        assert widths[0] > widths[4] and widths[-1] > widths[4]

    def test_vertical_adjacency_axis(self):
        placements = [place(0, 0, 0, 0), place(1, 0, 0, 600)]
        (overlap,) = compute_overlaps(placements, 1000, 1000)
        assert overlap.axis is Axis.VERTICAL
        assert overlap.rect.height == 400


class TestComposeRaw:
    def test_disjoint_union(self):
        a = np.full((10, 10), 0.25)
        b = np.full((10, 10), 0.75)
        placements = [place(0, 0, 0, 0), place(0, 1, 10, 0)]
        canvas = compose_raw([a, b], placements, 10, 10)
        final = canvas.finalize()
        assert np.all(final[:, :10] == 0.25)
        assert np.all(final[:, 10:] == 0.75)
        assert canvas.covered().all()

    def test_later_tile_overwrites(self):
        a = np.full((10, 10), 10 / 65535)
        b = np.full((10, 10), 20 / 65535)
        placements = [place(0, 0, 0, 0), place(0, 1, 5, 0)]
        final = compose_raw([a, b], placements, 10, 10).finalize()
        assert np.all(final[:, 5:15] == 20 / 65535)
        assert np.all(final[:, :5] == 10 / 65535)

    def test_count_mismatch_rejected(self):
        a = np.zeros((10, 10))
        with pytest.raises(CompositionError):
            compose_raw([a], [place(0, 0, 0, 0), place(0, 1, 5, 0)], 10, 10)
        with pytest.raises(CompositionError):
            compose_raw([a, a], [place(0, 0, 0, 0)], 10, 10)

    def test_wrong_tile_shape_rejected(self):
        with pytest.raises(DimensionMismatchError):
            compose_raw([np.zeros((5, 5))], [place(0, 0, 0, 0)], 10, 10)

    @pytest.mark.parametrize("dtype", ["<u2", ">u2"])
    def test_counts_stay_counts_in_a_two_byte_band(self, dtype):
        rng = np.random.default_rng(8)
        counts = [rng.integers(0, 65536, size=(20, 30)).astype(dtype) for _ in range(6)]
        placements = [place(i, j, 19.6 * j, 13 * i + 3.5 * j) for i in range(2) for j in range(3)]
        floats = compose_raw([to_unit(c) for c in counts], placements, 30, 20).finalize()
        blocks = []
        canvas = compose_raw(iter(counts), placements, 30, 20,
                             sink=lambda row, rows: blocks.append(rows.copy()))
        assert {b.dtype for b in blocks} == {np.dtype(dtype)}
        gathered = np.concatenate(blocks)
        assert gathered.shape == (canvas.height, canvas.width)
        assert np.array_equal(gathered, to_u16(floats))
        # Feathering converts counts to float64 values, as any other dtype.
        feathered = compose_feathered(counts, placements, [], 30, 20).finalize()
        assert feathered.dtype == np.float64

    def test_tiles_of_two_band_dtypes_rejected(self):
        counts = np.zeros((10, 10), dtype=np.uint16)
        with pytest.raises(CompositionError, match="tile 1 holds float64"):
            compose_raw([counts, np.zeros((10, 10))], [place(0, 0, 0, 0), place(0, 1, 5, 0)], 10, 10)


class TestComposeFeathered:
    def test_identical_constant_tiles_blend_exactly(self):
        tile = np.full((20, 20), 10 / 65535)
        placements = [place(0, 0, 0, 0), place(0, 1, 12, 0)]
        overlaps = compute_overlaps(placements, 20, 20)
        final = compose_feathered([tile, tile], placements, overlaps, 20, 20).finalize()
        assert np.all(final == 10 / 65535)

    def test_linear_ramp_between_constant_tiles(self):
        # Overlap width 11 (odd) puts one pixel column exactly at the ramp
        # midpoint, where complementary weights are 0.5 each.
        low = np.zeros((8, 16))
        high = np.full((8, 16), 100 / 65535)
        placements = [place(0, 0, 0, 0), place(0, 1, 5, 0)]
        overlaps = compute_overlaps(placements, 16, 8)
        assert overlaps[0].rect.width == 11
        final = compose_feathered([low, high], placements, overlaps, 16, 8).finalize()
        profile = final[4, :]
        assert np.all(profile[:5] == 0.0)
        assert np.all(profile[16:] == 100 / 65535)
        ramp = profile[5:16]
        assert np.all(np.diff(ramp) > 0)
        mid = ramp[5]
        assert mid == pytest.approx(50 / 65535, rel=1e-12)

    def test_blend_identity_matches_raw_on_agreeing_tiles(self):
        rng = np.random.default_rng(23)
        truth = rng.uniform(0.1, 0.9, size=(40, 70))
        placements = [place(0, 0, 0, 0), place(0, 1, 30, 0)]
        tiles = [truth[:, 0:40], truth[:, 30:70]]
        overlaps = compute_overlaps(placements, 40, 40)
        raw = compose_raw(tiles, placements, 40, 40).finalize()
        feathered = compose_feathered(tiles, placements, overlaps, 40, 40).finalize()
        assert np.allclose(feathered, raw, atol=1e-15)

    def test_two_tile_weights_partition_unity(self):
        placements = [place(0, 0, 0, 0), place(0, 1, 12, 0)]
        overlaps = compute_overlaps(placements, 20, 20)
        w_left = np.outer(*tile_weight_map((0, 0), 20, 20, overlaps))
        w_right = np.outer(*tile_weight_map((0, 1), 20, 20, overlaps))
        # overlap spans canvas columns 12..19: left tile cols 12..19,
        # right tile cols 0..7
        total = w_left[:, 12:20] + w_right[:, 0:8]
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_convexity_of_finalized_values(self):
        rng = np.random.default_rng(31)
        a = rng.uniform(0.0, 1.0, size=(20, 20))
        b = rng.uniform(0.0, 1.0, size=(20, 20))
        placements = [place(0, 0, 0, 0), place(0, 1, 12, 0)]
        overlaps = compute_overlaps(placements, 20, 20)
        final = compose_feathered([a, b], placements, overlaps, 20, 20).finalize()
        region = final[:, 12:20]
        lo = np.minimum(a[:, 12:20], b[:, 0:8])
        hi = np.maximum(a[:, 12:20], b[:, 0:8])
        assert np.all(region >= lo - 1e-12)
        assert np.all(region <= hi + 1e-12)

    def test_full_grid_coverage(self):
        cfg = grid_cfg(n_rows=3, n_cols=3, tile_width=60, tile_height=60,
                       dv_x=0.1, dv_y=0.1, s_x=400.0, s_y=420.0)
        table = placement_table(cfg)
        overlaps = compute_overlaps(table, 60, 60)
        tiles = [np.full((60, 60), 0.5)] * 9
        canvas = compose_feathered(tiles, table, overlaps, 60, 60)
        covered = canvas.covered()
        # every placed pixel carries weight, so it finalizes to the tile value
        for p in table:
            x, y = p.x, p.y
            assert covered[y:y + 60, x:x + 60].all()
        final = canvas.finalize()
        assert np.allclose(final[covered], 0.5, rtol=0, atol=1e-15)
        assert np.all(final[~covered] == 0.0)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(5)
        tiles = [rng.uniform(0, 1, size=(30, 30)) for _ in range(4)]
        placements = [
            place(0, 0, 0, 0), place(0, 1, 18, 0),
            place(1, 0, 0, 21), place(1, 1, 18, 21),
        ]
        overlaps = compute_overlaps(placements, 30, 30)
        one = compose_feathered(tiles, placements, overlaps, 30, 30)
        two = compose_feathered(tiles, placements, overlaps, 30, 30)
        assert np.array_equal(one.finalize(), two.finalize())


class TestRowSink:
    def grid(self):
        # 3x3 grid of 30 px tiles with a Y tilt: each grid row climbs
        # 4 px per column, so row bands overlap across grid rows.
        placements = [place(i, j, 18.0 * j, 8.0 + 21.0 * i - 4.0 * j)
                      for i in range(3) for j in range(3)]
        rng = np.random.default_rng(17)
        tiles = [rng.uniform(0.0, 1.0, size=(30, 30)) for _ in placements]
        return tiles, placements, compute_overlaps(placements, 30, 30)

    @pytest.mark.parametrize("feathered", [False, True])
    def test_sink_rows_arrive_in_raster_order_and_match_finalize(self, feathered):
        tiles, placements, overlaps = self.grid()
        blocks = []

        def sink(row, rows):
            blocks.append((row, rows.copy()))

        if feathered:
            gathered = compose_feathered(tiles, placements, overlaps, 30, 30)
            streamed = compose_feathered(tiles, placements, overlaps, 30, 30, sink=sink)
        else:
            gathered = compose_raw(tiles, placements, 30, 30)
            streamed = compose_raw(tiles, placements, 30, 30, sink=sink)
        starts = [row for row, _ in blocks]
        assert starts[0] == 0
        assert all(b[0] + len(b[1]) == a for a, b in zip(starts[1:], blocks))
        assert np.array_equal(np.concatenate([rows for _, rows in blocks]), gathered.finalize())
        assert (streamed.width, streamed.height) == (gathered.width, gathered.height)
        assert np.array_equal(streamed.covered(), gathered.covered())
        with pytest.raises(CompositionError):
            streamed.finalize()

    def test_rows_above_every_tile_are_zero(self):
        tile = np.full((10, 10), 0.5)
        final = compose_raw([tile], [place(0, 0, 0, 7)], 10, 10).finalize()
        assert final.shape == (17, 10)
        assert np.all(final[:7] == 0.0) and np.all(final[7:] == 0.5)


def full_canvas_feathered(tiles, placements, overlaps, tile_width, tile_height):
    """Reference feathering: whole-canvas value and weight sums, then one division."""
    width, height = canvas_dims(placements, tile_width, tile_height)
    value = np.zeros((height, width))
    weight = np.zeros((height, width))
    for tile, p in zip(tiles, placements):
        w = np.outer(*tile_weight_map((p.row, p.col), tile_width, tile_height, overlaps))
        box = np.s_[p.y:p.y + tile_height, p.x:p.x + tile_width]
        weight[box] += w
        value[box] += w * tile
    final = np.zeros((height, width))
    np.divide(value, weight, out=final, where=weight > 0.0)
    return final


@st.composite
def feathered_grids(draw):
    """Grid placements: untilted, tilted or sinusoidal columns, with
    sub-pixel offsets, steps up to past the tile (gaps), 1xN and Nx1."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    th = draw(st.sampled_from([1, 5, 23, BLOCK_ROWS - 1, BLOCK_ROWS + 9, 2 * BLOCK_ROWS + 3]))
    tw = draw(st.integers(1, 24))
    step_x = draw(st.floats(0.3, 1.3)) * tw
    step_y = draw(st.floats(0.3, 1.3)) * th
    tilted = draw(st.booleans())
    alpha_x = draw(st.floats(-0.4, 0.4)) * tw if tilted else 0.0
    alpha_y = draw(st.floats(-0.4, 0.4)) * th if tilted else 0.0
    sinusoidal = draw(st.booleans()) and n_cols > 2
    xs = []
    for j in range(n_cols):
        if sinusoidal:
            half = (n_cols - 1) * step_x / 2
            xs.append(half + half * math.sin(j * math.pi / (n_cols - 1) - math.pi / 2))
        else:
            xs.append(j * step_x)
    raw = [(i, j, xs[j] + alpha_x * i, i * step_y + alpha_y * j)
           for i in range(n_rows) for j in range(n_cols)]
    # Shift so the lowest rounded offset is 0 on both axes.
    x0 = min(dx for _, _, dx, _ in raw)
    y0 = min(dy for _, _, _, dy in raw)
    placements = [place(i, j, dx - x0, dy - y0) for i, j, dx, dy in raw]
    shift_x = min(p.x for p in placements)
    shift_y = min(p.y for p in placements)
    placements = [place(p.row, p.col, p.dx - shift_x, p.dy - shift_y) for p in placements]
    seed = draw(st.integers(0, 2**32 - 1))
    return placements, tw, th, seed


class TestOneValueBand:
    @settings(max_examples=80, deadline=None)
    @given(feathered_grids())
    def test_feathered_is_bit_equal_to_full_canvas_weights(self, grid):
        placements, tw, th, seed = grid
        rng = np.random.default_rng(seed)
        tiles = [rng.uniform(0.0, 1.0, size=(th, tw)) for _ in placements]
        overlaps = compute_overlaps(placements, tw, th)
        expected = full_canvas_feathered(tiles, placements, overlaps, tw, th)
        gathered = compose_feathered(tiles, placements, overlaps, tw, th).finalize()
        assert np.array_equal(gathered, expected)
        blocks = []

        def sink(row, rows):
            assert rows.shape[0] <= BLOCK_ROWS
            blocks.append(rows.copy())
            rows[...] = -1.0  # a sink may overwrite what it gets

        originals = [t.copy() for t in tiles]
        compose_feathered(iter(tiles), placements, overlaps, tw, th, sink=sink)
        assert np.array_equal(np.concatenate(blocks), expected)
        assert all(np.array_equal(t, u) for t, u in zip(tiles, originals))

    @pytest.mark.parametrize(
        "n_rows, n_cols, step_x, step_y, tw, th",
        [(6, 1, 0, 12, 9, 70), (1, 6, 4, 0, 7, 5), (5, 5, 6, 50, 8, 90), (7, 3, 5, 20, 9, 64)],
    )
    def test_tiles_sharing_ramps_reuse_products_exactly(self, n_rows, n_cols, step_x, step_y, tw, th):
        # Integer steps give every interior tile the same ramps: tiles
        # share one ramp pair, and each product of it is formed afresh
        # for every tile, run and block.
        placements = [place(i, j, step_x * j, step_y * i) for i in range(n_rows) for j in range(n_cols)]
        rng = np.random.default_rng(n_rows * n_cols)
        tiles = [rng.uniform(0.0, 1.0, size=(th, tw)) for _ in placements]
        overlaps = compute_overlaps(placements, tw, th)
        expected = full_canvas_feathered(tiles, placements, overlaps, tw, th)
        assert np.array_equal(compose_feathered(tiles, placements, overlaps, tw, th).finalize(), expected)

    @staticmethod
    def _peak(n_rows: int, tile: int, n_cols: int = 6):
        placements = [place(i, j, 0.75 * tile * j, 0.7 * tile * i)
                      for i in range(n_rows) for j in range(n_cols)]
        overlaps = compute_overlaps(placements, tile, tile)
        rng = np.random.default_rng(2)
        tiles = (rng.uniform(0.0, 1.0, size=(tile, tile)) for _ in placements)
        tracemalloc.start()
        try:
            canvas = compose_feathered(tiles, placements, overlaps, tile, tile,
                                       sink=lambda row, rows: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, canvas.width

    def test_peak_is_one_value_band_not_two(self):
        tile = 256
        peaks = {}
        for n_rows in (6, 12):
            peaks[n_rows], width = self._peak(n_rows, tile)
        # An untilted grid's band is one tile high.
        band = width * tile * 8
        scratch = width * min(BLOCK_ROWS, tile) * 8
        assert peaks[12] <= 1.25 * peaks[6], peaks
        assert band < peaks[6] < band + 2 * tile * tile * 8 + scratch, (peaks, band)


class TestDeriveSeams:
    def test_single_tile_has_no_seams(self):
        placements = [place(0, 0, 0, 0)]
        assert derive_seams(placements, compute_overlaps(placements, 100, 100)) == []

    def test_two_tiles_one_vertical_seam(self):
        placements = [place(0, 0, 0, 0), place(0, 1, 442.2, 0)]
        (seam,) = derive_seams(placements, compute_overlaps(placements, 1000, 1000))
        assert seam.orientation is Axis.VERTICAL
        assert seam.position == 442
        assert (seam.start, seam.stop) == (0, 1000)

    def test_full_grid_seam_count(self):
        table = placement_table(grid_cfg())
        seams = derive_seams(table, compute_overlaps(table, 1000, 1000))
        vertical = [s for s in seams if s.orientation is Axis.VERTICAL]
        horizontal = [s for s in seams if s.orientation is Axis.HORIZONTAL]
        assert len(vertical) == 90
        assert len(horizontal) == 90

    def test_seam_extent_clipped_to_overlap(self):
        placements = [place(0, 0, 0, 0), place(0, 1, 30, 7)]
        (seam,) = derive_seams(placements, compute_overlaps(placements, 50, 50))
        assert seam.position == 30
        assert (seam.start, seam.stop) == (7, 50)
