"""Scan geometry: offsets, sinusoidal voltages, placement tables."""

import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galvomosaic.errors import ConfigError, DegenerateGridError, IndexRangeError
from galvomosaic.compose import _band_schedule, canvas_dims
from galvomosaic.config import load_run_config
from galvomosaic.geometry import (
    MAX_BAND_BYTES,
    MAX_CANVAS_PIXELS,
    MAX_TILES,
    ScanConfig,
    ScanStrategy,
    TilePlacement,
    linear_offset,
    placement_table,
    sinusoidal_offset,
    sinusoidal_voltage,
    tile_offset,
)
from galvomosaic.records import fields_dict

# Calibration constants used throughout: dv = 1.1 V, s_x = 402 px/V,
# s_y = 468 px/V, alpha = (16, -16) px, 10x10 grid of 1000x1000 tiles.


def calib_cfg(**overrides) -> ScanConfig:
    base = dict(
        n_rows=10, n_cols=10, dv_x=1.1, dv_y=1.1, s_x=402.0, s_y=468.0,
        alpha_x=0.0, alpha_y=0.0, strategy=ScanStrategy.LINEAR,
        tile_width=1000, tile_height=1000,
    )
    base.update(overrides)
    return ScanConfig(**base)


class TestLinearOffset:
    def test_origin_tile(self):
        p = linear_offset(calib_cfg(), 0, 0)
        assert (p.dx, p.dy) == (0.0, 0.0)

    def test_first_column_step(self):
        p = linear_offset(calib_cfg(), 0, 1)
        assert p.dx == pytest.approx(442.2, abs=1e-12)
        assert p.dy == 0.0

    def test_tilt_terms(self):
        p = linear_offset(calib_cfg(alpha_x=16.0, alpha_y=-16.0), 1, 0)
        assert p.dx == pytest.approx(16.0, abs=1e-12)
        assert p.dy == pytest.approx(514.8, abs=1e-12)

    def test_out_of_range_indices(self):
        with pytest.raises(IndexRangeError):
            linear_offset(calib_cfg(), 10, 0)
        with pytest.raises(IndexRangeError):
            linear_offset(calib_cfg(), 0, -1)


class TestSinusoidalVoltage:
    def test_first_column_is_zero_with_defaults(self):
        cfg = calib_cfg(strategy=ScanStrategy.SINUSOIDAL, v0=4.95, amplitude=4.95)
        assert sinusoidal_voltage(cfg, 0) == 0.0

    def test_last_column_is_full_span(self):
        cfg = calib_cfg(strategy=ScanStrategy.SINUSOIDAL, v0=4.95, amplitude=4.95)
        assert sinusoidal_voltage(cfg, 9) == pytest.approx(9.9, abs=1e-12)

    def test_interior_column_against_scalar_math(self):
        cfg = calib_cfg(strategy=ScanStrategy.SINUSOIDAL, v0=4.95, amplitude=4.95)
        expected = 4.95 + 4.95 * math.sin(4 * math.pi / 9 - math.pi / 2)
        assert sinusoidal_voltage(cfg, 4) == pytest.approx(expected, abs=1e-15)
        # same thing written via the phase symmetry: V0 - A*sin(pi/18)
        assert expected == pytest.approx(4.95 - 4.95 * math.sin(math.pi / 18), abs=1e-12)

    def test_single_column_grid_is_degenerate(self):
        cfg = calib_cfg(n_cols=1, strategy=ScanStrategy.SINUSOIDAL)
        with pytest.raises(DegenerateGridError):
            sinusoidal_voltage(cfg, 0)

    def test_default_sine_params_match_linear_span(self):
        cfg = calib_cfg(strategy=ScanStrategy.SINUSOIDAL)
        v0, amp = cfg.sine_params()
        assert v0 == amp == pytest.approx(9 * 1.1 / 2)


class TestSinusoidalOffset:
    def test_zero_voltage_maps_to_zero_pixels(self):
        cfg = calib_cfg(strategy=ScanStrategy.SINUSOIDAL, v0=4.95, amplitude=4.95)
        p = sinusoidal_offset(cfg, 0, 0)
        assert (p.dx, p.dy) == (0.0, 0.0)

    def test_last_column_matches_linear_end(self):
        cfg = calib_cfg(strategy=ScanStrategy.SINUSOIDAL, v0=4.95, amplitude=4.95)
        assert sinusoidal_offset(cfg, 0, 9).dx == pytest.approx(3979.8, abs=1e-9)

    def test_with_tilt_terms(self):
        cfg = calib_cfg(
            strategy=ScanStrategy.SINUSOIDAL, v0=4.95, amplitude=4.95,
            alpha_x=16.0, alpha_y=-16.0,
        )
        p = sinusoidal_offset(cfg, 2, 0)
        assert p.dx == pytest.approx(32.0, abs=1e-12)
        assert p.dy == pytest.approx(2 * 1.1 * 468, abs=1e-12)


class TestPlacementTable:
    def test_single_tile_grid(self):
        table = placement_table(calib_cfg(n_rows=1, n_cols=1))
        assert len(table) == 1
        assert (table[0].dx, table[0].dy) == (0.0, 0.0)

    def test_linear_grid_spacing_and_extent(self):
        table = placement_table(calib_cfg())
        by_index = {(p.row, p.col): p for p in table}
        for i in range(10):
            for j in range(9):
                step = by_index[(i, j + 1)].dx - by_index[(i, j)].dx
                assert step == pytest.approx(442.2, abs=1e-9)
        # canvas width at 5 um/px lands within 1% of a 25 mm field
        width_px = max(p.dx for p in table) + 1000
        assert width_px == pytest.approx(4979.8, abs=1e-9)
        assert abs(width_px * 0.005 - 25.0) / 25.0 < 0.01

    def test_sinusoidal_end_columns_match_linear(self):
        lin = placement_table(calib_cfg())
        sin = placement_table(calib_cfg(strategy=ScanStrategy.SINUSOIDAL))
        lin_by = {(p.row, p.col): p for p in lin}
        sin_by = {(p.row, p.col): p for p in sin}
        for i in range(10):
            for j in (0, 9):
                assert sin_by[(i, j)].dx == pytest.approx(lin_by[(i, j)].dx, abs=1e-9)
        # interior spacing is nonuniform
        steps = [sin_by[(0, j + 1)].dx - sin_by[(0, j)].dx for j in range(9)]
        assert max(steps) - min(steps) > 1.0

    def test_origin_shift_normalizes_negative_tilt(self):
        table = placement_table(calib_cfg(alpha_x=16.0, alpha_y=-16.0))
        assert min(p.dx for p in table) == 0.0
        assert min(p.dy for p in table) == 0.0

    def test_row_major_order(self):
        table = placement_table(calib_cfg(n_rows=2, n_cols=3))
        assert [(p.row, p.col) for p in table] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_placement_carries_its_rounded_pixel_offset(self):
        p = TilePlacement(row=1, col=2, dx=442.5, dy=-0.5)
        assert (p.x, p.y) == (443, -1)
        # The sidecar's placement record, in its key order.
        assert fields_dict(p) == {"row": 1, "col": 2, "dx": 442.5, "dy": -0.5, "x": 443, "y": -1}
        assert list(fields_dict(p)) == ["row", "col", "dx", "dy", "x", "y"]
        table = placement_table(calib_cfg())
        assert {(p.x, p.y) for p in table if p.row == 0 and p.col == 9} == {(3980, 0)}


class TestValidation:
    def test_rejects_zero_rows(self):
        with pytest.raises(ConfigError):
            calib_cfg(n_rows=0).validate()

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ConfigError):
            calib_cfg(s_x=0.0).validate()

    def test_rejects_negative_amplitude(self):
        cfg = calib_cfg(strategy=ScanStrategy.SINUSOIDAL, amplitude=-1.0)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(dv_x=0.0), "dv_x must be > 0 over 2 or more columns, got 0.0"),
            (dict(dv_x=-0.1), "dv_x must be > 0 over 2 or more columns, got -0.1"),
            (dict(dv_y=0.0), "dv_y must be > 0 over 2 or more rows, got 0.0"),
            (dict(dv_y=-0.1), "dv_y must be > 0 over 2 or more rows, got -0.1"),
            (dict(strategy=ScanStrategy.SINUSOIDAL, amplitude=0.0),
             "amplitude must be > 0 over 2 or more columns, got 0.0"),
            # The default amplitude follows dv_x.
            (dict(strategy=ScanStrategy.SINUSOIDAL, dv_x=0.0),
             "amplitude must be > 0 over 2 or more columns, got 0.0"),
        ],
        ids=["dv_x_zero", "dv_x_negative", "dv_y_zero", "dv_y_negative", "amplitude_zero",
             "default_amplitude_zero"],
    )
    def test_rejects_a_step_that_does_not_advance(self, overrides, message):
        # Seams and feather ramps take each later column to lie right of
        # the one before, and each later row below.
        with pytest.raises(ConfigError, match=re.escape(message)):
            calib_cfg(**overrides).validate()

    def test_step_of_a_single_column_or_row_is_not_checked(self):
        calib_cfg(n_cols=1, dv_x=0.0).validate()
        calib_cfg(n_rows=1, dv_y=-1.0).validate()

    def test_sinusoidal_scan_takes_its_column_step_from_the_amplitude(self):
        calib_cfg(strategy=ScanStrategy.SINUSOIDAL, dv_x=-1.0, amplitude=2.0).validate()

    def test_tile_count_over_the_limit_is_named_before_any_placement(self):
        # Only the check runs: 10**10 placements must never be built.
        with pytest.raises(ConfigError, match="'n_rows' and 'n_cols': 100000 x 100000 tiles"):
            calib_cfg(n_rows=100000, n_cols=100000).validate()

    @pytest.mark.parametrize(
        "overrides, keys",
        [
            (dict(dv_x=1e9), "'dv_x'"),
            (dict(dv_x=1e300), "'dv_x'"),
            (dict(alpha_y=1e9), "'alpha_y'"),
            (dict(strategy=ScanStrategy.SINUSOIDAL, amplitude=1e9), "'amplitude'"),
            (dict(n_rows=1, n_cols=1, tile_width=2**15, tile_height=2**15 + 1), "'tile_height'"),
        ],
    )
    def test_canvas_over_the_limit_names_its_axis_keys(self, overrides, keys):
        with pytest.raises(ConfigError, match=f"{keys}.*over the limit of {MAX_CANVAS_PIXELS} px"):
            calib_cfg(**overrides).validate()

    def test_canvas_at_the_limit_is_accepted(self):
        # 4 x 4 tiles of 2^13 px side by side: a 2^15 x 2^15 px canvas, and a
        # band one tile deep that is also at its limit.
        calib_cfg(n_rows=4, n_cols=4, dv_x=1.0, dv_y=1.0, s_x=2.0**13, s_y=2.0**13,
                  tile_width=2**13, tile_height=2**13).validate()
        assert MAX_CANVAS_PIXELS == 2**30 and MAX_TILES == 2**20
        # One tile of the same canvas is a band as deep as the canvas: 8 GiB.
        with pytest.raises(ConfigError, match="band of 32768 x 32768 px"):
            calib_cfg(n_rows=1, n_cols=1, tile_width=2**15, tile_height=2**15).validate()

    def test_band_over_the_limit_names_the_step_and_tilt_keys(self):
        # An 18010 x 20100 px canvas, within the area limit, whose stitch
        # band is 19,900 rows deep: 2.67 GiB of float64.
        cfg = calib_cfg(n_rows=2, n_cols=200, dv_x=1.0, dv_y=1.0, s_x=90.0, s_y=100.0,
                        alpha_y=100.0, tile_width=100, tile_height=100)
        assert cfg._band_depth() == 19900
        with pytest.raises(ConfigError, match=(
                r"keys 'dv_x', 'dv_y', 's_x', 's_y', 'alpha_x', 'alpha_y': stitch would hold a "
                r"band of 18010 x 19900 px of float64 \(2.67 GiB\), over the limit of 2 GiB")):
            cfg.validate()
        assert MAX_BAND_BYTES == 2**31
        calib_cfg(n_rows=2, n_cols=200, dv_x=1.0, dv_y=1.0, s_x=90.0, s_y=100.0,
                  alpha_y=70.0, tile_width=100, tile_height=100).validate()

    @pytest.mark.parametrize("strategy", list(ScanStrategy))
    def test_corner_tiles_span_the_placements(self, strategy):
        # The size check reads the four corners; every other tile lies
        # between them.
        cfg = calib_cfg(strategy=strategy, alpha_x=23.5, alpha_y=-17.25)
        table = placement_table(cfg)
        corners = [p for p in table if p.row in (0, 9) and p.col in (0, 9)]
        for attr in ("dx", "dy"):
            values = [getattr(p, attr) for p in table]
            ends = [getattr(p, attr) for p in corners]
            assert (min(values), max(values)) == (min(ends), max(ends))

    def test_tile_offset_dispatches_on_strategy(self):
        lin = tile_offset(calib_cfg(), 0, 3)
        sin = tile_offset(calib_cfg(strategy=ScanStrategy.SINUSOIDAL), 0, 3)
        assert lin.dx != sin.dx


# ---------------------------------------------------------------------------
# Invariants


@given(
    n_cols=st.integers(min_value=2, max_value=24),
    dv_x=st.floats(min_value=0.05, max_value=5.0),
    s_x=st.floats(min_value=10.0, max_value=1000.0),
)
@settings(max_examples=60)
def test_linear_spacing_is_uniform(n_cols, dv_x, s_x):
    cfg = ScanConfig(
        n_rows=3, n_cols=n_cols, dv_x=dv_x, dv_y=1.0, s_x=s_x, s_y=100.0,
        alpha_x=4.0, alpha_y=0.0,
    )
    table = placement_table(cfg)
    by_index = {(p.row, p.col): p for p in table}
    steps = {
        by_index[(i, j + 1)].dx - by_index[(i, j)].dx
        for i in range(3)
        for j in range(n_cols - 1)
    }
    assert max(steps) - min(steps) < 1e-9 * max(abs(s) for s in steps)


@given(n_cols=st.integers(min_value=3, max_value=25))
@settings(max_examples=40)
def test_sinusoidal_spacing_positive_symmetric_unimodal(n_cols):
    cfg = ScanConfig(
        n_rows=1, n_cols=n_cols, dv_x=1.1, dv_y=1.1, s_x=402.0, s_y=468.0,
        strategy=ScanStrategy.SINUSOIDAL,
    )
    volts = [sinusoidal_voltage(cfg, j) for j in range(n_cols)]
    steps = [volts[j + 1] - volts[j] for j in range(n_cols - 1)]
    assert all(s > 0 for s in steps)
    for j in range(len(steps)):
        assert steps[j] == pytest.approx(steps[len(steps) - 1 - j], abs=1e-9)
    center = (len(steps) - 1) / 2
    for j in range(len(steps) - 1):
        if j + 0.5 < center:
            assert steps[j + 1] > steps[j] - 1e-12
        else:
            assert steps[j + 1] < steps[j] + 1e-12
    assert max(steps) == pytest.approx(steps[len(steps) // 2], abs=1e-9)


@given(
    alpha_x=st.floats(min_value=-40, max_value=40),
    alpha_y=st.floats(min_value=-40, max_value=40),
    sinusoidal=st.booleans(),
)
@settings(max_examples=40)
def test_tilt_is_an_exact_linear_addition(alpha_x, alpha_y, sinusoidal):
    strategy = ScanStrategy.SINUSOIDAL if sinusoidal else ScanStrategy.LINEAR
    base = ScanConfig(
        n_rows=4, n_cols=5, dv_x=1.1, dv_y=1.1, s_x=402.0, s_y=468.0,
        strategy=strategy,
    )
    tilted = ScanConfig(
        n_rows=4, n_cols=5, dv_x=1.1, dv_y=1.1, s_x=402.0, s_y=468.0,
        alpha_x=alpha_x, alpha_y=alpha_y, strategy=strategy,
    )
    for i in range(4):
        for j in range(5):
            p0 = tile_offset(base, i, j)
            p1 = tile_offset(tilted, i, j)
            assert p1.dx == p0.dx + alpha_x * i
            assert p1.dy == p0.dy + alpha_y * j


@given(
    alpha_x=st.integers(min_value=-32, max_value=32),
    alpha_y=st.integers(min_value=-32, max_value=32),
    step=st.integers(min_value=100, max_value=600),
)
@settings(max_examples=40)
def test_origin_shift_preserves_pairwise_differences(alpha_x, alpha_y, step):
    # Integer-valued geometry makes the shift arithmetic exact, so pairwise
    # differences must survive bit-for-bit.
    cfg = ScanConfig(
        n_rows=3, n_cols=4, dv_x=1.0, dv_y=1.0, s_x=float(step), s_y=float(step),
        alpha_x=float(alpha_x), alpha_y=float(alpha_y),
    )
    shifted = placement_table(cfg)
    unshifted = [tile_offset(cfg, p.row, p.col) for p in shifted]
    for a, b in zip(shifted, unshifted):
        for c, d in zip(shifted, unshifted):
            assert a.dx - c.dx == b.dx - d.dx
            assert a.dy - c.dy == b.dy - d.dy


def test_endpoint_equivalence_under_default_sine_params():
    for n_cols in (2, 5, 10, 17):
        lin = ScanConfig(n_rows=1, n_cols=n_cols, dv_x=1.1, dv_y=1.1, s_x=402.0, s_y=468.0)
        sin = ScanConfig(
            n_rows=1, n_cols=n_cols, dv_x=1.1, dv_y=1.1, s_x=402.0, s_y=468.0,
            strategy=ScanStrategy.SINUSOIDAL,
        )
        assert sinusoidal_voltage(sin, 0) * sin.s_x == 0.0
        last_lin = linear_offset(lin, 0, n_cols - 1).dx
        last_sin = sinusoidal_offset(sin, 0, n_cols - 1).dx
        assert last_sin == pytest.approx(last_lin, abs=1e-9)


# ---------------------------------------------------------------------------
# The band depth that the config check reads


def _schedule_depth(cfg: ScanConfig) -> int:
    table = placement_table(cfg)
    _, height = canvas_dims(table, cfg.tile_width, cfg.tile_height)
    return _band_schedule([p.y for p in table], cfg.tile_height, height)[1]


@pytest.mark.parametrize("workload", ["full_scan_linear", "small_tiles_40x40",
                                      "sinusoidal_tilt_subpixel", "tiny"])
def test_config_band_depth_covers_the_stitch_schedule_on_the_workloads(tmp_path, workload):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(WORKLOADS[workload].config)
    scan = load_run_config(cfg).scan
    assert scan._band_depth() >= _schedule_depth(scan)


@given(
    n_rows=st.integers(1, 6),
    n_cols=st.integers(1, 7),
    step_x=st.floats(0.2, 1.5),
    step_y=st.floats(0.2, 1.5),
    alpha_x=st.floats(-1.0, 1.0),
    alpha_y=st.floats(-1.0, 1.0),
    sinusoidal=st.booleans(),
    tile_width=st.integers(1, 40),
    tile_height=st.integers(1, 40),
)
@settings(max_examples=300, deadline=None)
def test_config_band_depth_is_never_below_the_stitch_schedule(
        n_rows, n_cols, step_x, step_y, alpha_x, alpha_y, sinusoidal, tile_width, tile_height):
    # Steps and tilts are drawn in tiles, so grids overlap, leave gaps,
    # climb or fall along a row, and rows cross one another.
    cfg = ScanConfig(
        n_rows=n_rows, n_cols=n_cols, dv_x=1.0, dv_y=1.0, s_x=step_x * tile_width,
        s_y=step_y * tile_height, alpha_x=alpha_x * tile_width, alpha_y=alpha_y * tile_height,
        strategy=ScanStrategy.SINUSOIDAL if sinusoidal and n_cols > 1 else ScanStrategy.LINEAR,
        tile_width=tile_width, tile_height=tile_height,
    )
    assert cfg._band_depth() >= _schedule_depth(cfg)
