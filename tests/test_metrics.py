"""Consistency and quality metrics against independent brute-force oracles."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galvomosaic import halves, pgm
from galvomosaic.compose import Axis, SeamLine, canvas_dims, compute_overlaps, derive_seams
from galvomosaic.correction import RectROI
from galvomosaic.errors import (
    DegenerateFitError,
    IndexRangeError,
    NoOverlapError,
    UndefinedCnrError,
)
from galvomosaic.geometry import ScanConfig, ScanStrategy, placement_table
from galvomosaic.metrics import (
    MaeWorkspace,
    RegionKind,
    RegionSpec,
    cnr,
    fit_affine,
    mean_seam_jump,
    normalized_mae,
    overlap_mae,
    region_std,
)
from galvomosaic.metrics import _Region

# ---------------------------------------------------------------------------
# Brute-force oracles: plain-Python reimplementations on lists, using fsum,
# kept deliberately separate from the numpy code paths they check.


def ols_oracle(xs, ys):
    """Normal equations solved by Cramer's rule over fsum accumulators."""
    n = len(xs)
    sx = math.fsum(xs)
    sy = math.fsum(ys)
    sxx = math.fsum(x * x for x in xs)
    sxy = math.fsum(x * y for x, y in zip(xs, ys))
    det = n * sxx - sx * sx
    a = (n * sxy - sx * sy) / det
    b = (sxx * sy - sx * sxy) / det
    return a, b


def std_oracle(values):
    n = len(values)
    mean = math.fsum(values) / n
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n)


def cnr_oracle(sig_values, bg_values):
    mu_sig = math.fsum(sig_values) / len(sig_values)
    mu_bg = math.fsum(bg_values) / len(bg_values)
    return abs(mu_sig - mu_bg) / std_oracle(bg_values)


def region(name, x0, y0, w, h, kind=RegionKind.BRIGHT_BACKGROUND):
    return RegionSpec(name=name, rect=RectROI(x0=x0, y0=y0, width=w, height=h), kind=kind)


class TestFitAffine:
    def test_identity_relation(self):
        x = np.array([0.1, 0.4, 0.7, 0.9])
        fit = fit_affine(x, x)
        assert fit.a == pytest.approx(1.0, abs=1e-15)
        assert fit.b == pytest.approx(0.0, abs=1e-15)

    def test_exact_affine_relation(self):
        x = np.linspace(0.0, 1.0, 50)
        fit = fit_affine(x, 2.0 * x + 5.0)
        assert fit.a == pytest.approx(2.0, rel=1e-12)
        assert fit.b == pytest.approx(5.0, rel=1e-12)

    def test_noisy_fit_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(101)
        x = rng.uniform(0.0, 1.0, 500)
        y = 1.7 * x - 0.3 + rng.normal(0, 0.05, 500)
        fit = fit_affine(x, y)
        a_ref, b_ref = ols_oracle(x.tolist(), y.tolist())
        assert fit.a == pytest.approx(a_ref, rel=1e-9)
        assert fit.b == pytest.approx(b_ref, rel=1e-9)

    def test_constant_predictor_is_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_affine(np.full(10, 0.5), np.linspace(0, 1, 10))

    def test_too_few_samples(self):
        with pytest.raises(DegenerateFitError):
            fit_affine(np.array([1.0]), np.array([2.0]))


class TestOverlapMae:
    def test_identical_content_is_zero(self):
        x = np.random.default_rng(1).uniform(0, 1, 200)
        assert overlap_mae(x, x) == 0.0

    def test_exact_affine_relation_is_zero(self):
        x = np.random.default_rng(2).uniform(0, 1, 200)
        assert overlap_mae(x, 3.0 * x - 7.0) < 1e-12

    def test_uniform_noise_gives_half_width(self):
        # Monte-Carlo oracle: y = x + U(-h, h) leaves MAE ~ h/2 after the
        # affine fit strips the (near-identity) linear part.
        rng = np.random.default_rng(3)
        h = 0.1
        x = rng.uniform(0.1, 0.9, 200_000)
        y = x + rng.uniform(-h, h, 200_000)
        assert overlap_mae(x, y) == pytest.approx(h / 2, rel=0.01)

    def test_degenerate_fallback_uses_mean_difference(self):
        x = np.full(50, 0.5)
        y = np.full(50, 0.8)
        mae, fit, degenerate = normalized_mae(x, y)
        assert degenerate
        assert fit.a == 1.0
        assert fit.b == pytest.approx(0.3)
        assert mae == pytest.approx(0.0, abs=1e-15)

    def test_empty_overlap_rejected(self):
        with pytest.raises(NoOverlapError):
            overlap_mae(np.array([]), np.array([]))


def mae_with_fresh_temporaries(samples_i, samples_j):
    """The normalized MAE written with fresh numpy temporaries, ``np.mean``
    and ``np.add.reduce`` of whole product arrays, the reference whose bits
    the workspace version must keep."""
    x = np.asarray(samples_i, dtype=np.float64).ravel()
    y = np.asarray(samples_j, dtype=np.float64).ravel()
    dx = x - x.mean()
    sxx = float(np.add.reduce(dx * dx))
    if sxx == 0.0 or x.size < 2:
        a, b = 1.0, float(y.mean() - x.mean())
    else:
        a = float(np.add.reduce(dx * (y - y.mean()))) / sxx
        b = float(y.mean() - a * x.mean())
    return float(np.mean(np.abs(y - (a * x + b)))), a, b


class TestMaeWorkspace:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**32 - 1), st.booleans())
    def test_reused_workspace_keeps_every_bit(self, h, w, seed, flat):
        # One workspace sized for the largest overlap serves every smaller
        # one; strided windows and samples filled in place give the same bits.
        rng = np.random.default_rng(seed)
        frame_i = rng.uniform(0.0, 1.0, (h + 3, w + 5))
        frame_j = 0.8 * frame_i + rng.normal(0.0, 0.01, frame_i.shape)
        if flat:
            frame_i[...] = 0.25
        window_i, window_j = frame_i[1:h + 1, 2:w + 2], frame_j[2:h + 2, 3:w + 3]
        expected = mae_with_fresh_temporaries(window_i, window_j)
        work = MaeWorkspace(80 * 80)
        x, y = work.samples((h, w))
        x[...], y[...] = window_i, window_j
        for got in (normalized_mae(window_i, window_j), normalized_mae(x, y, work),
                    normalized_mae(window_i, window_j, work)):
            mae, fit, degenerate = got
            assert (mae, fit.a, fit.b) == expected
            assert degenerate == (flat or h * w < 2)
        # The handed-out samples the other way round are copied in whole
        # before either row is overwritten.
        mae, fit, _ = normalized_mae(y, x, work)
        assert (mae, fit.a, fit.b) == mae_with_fresh_temporaries(window_j, window_i)


    @pytest.mark.parametrize("split_min", [halves.SPLIT_MIN, 1 << 62], ids=["split", "serial"])
    @pytest.mark.parametrize("size", [2**16 + 1, 2**17 + 9, 775_587])
    def test_leaf_by_leaf_keeps_every_bit(self, monkeypatch, size, split_min):
        # Overlaps of more than one leaf, summed in halves on two threads
        # or serially, in a workspace sized for them or for a larger one.
        monkeypatch.setattr(halves, "SPLIT_MIN", split_min)
        rng = np.random.default_rng(size)
        shape = (1, size)
        frame_i = rng.uniform(0.0, 1.0, shape)
        frame_j = 0.8 * frame_i + rng.normal(0.0, 0.01, shape)
        expected = mae_with_fresh_temporaries(frame_i, frame_j)
        for work in (MaeWorkspace(size), MaeWorkspace(size + 1000)):
            x, y = work.samples(shape)
            x[...], y[...] = frame_i, frame_j
            mae, fit, degenerate = normalized_mae(x, y, work)
            assert (mae, fit.a, fit.b) == expected
            assert not degenerate


class TestCnr:
    def test_constructed_values(self):
        # background alternates 90 and 130 (mu 110, sigma 20); signal flat 10
        canvas = np.zeros((20, 40))
        canvas[:10, :] = 10.0
        bg = np.tile([90.0, 130.0], (10, 20))
        canvas[10:, :] = bg
        value = cnr(
            canvas,
            region("sig", 0, 0, 40, 10, RegionKind.SIGNAL),
            region("bg", 0, 10, 40, 10),
        )
        assert value == pytest.approx(5.0, rel=1e-12)

    def test_signal_equal_to_background_is_zero(self):
        rng = np.random.default_rng(7)
        canvas = rng.uniform(0, 1, size=(30, 30))
        r = region("both", 5, 5, 20, 20)
        assert cnr(canvas, r, r) == 0.0

    def test_zero_background_std_rejected(self):
        canvas = np.full((10, 10), 0.5)
        with pytest.raises(UndefinedCnrError):
            cnr(canvas, region("sig", 0, 0, 5, 5), region("bg", 5, 5, 5, 5))


class TestRegionStd:
    def test_constant_region_is_zero(self):
        assert region_std(np.full((10, 10), 0.7), region("r", 2, 2, 6, 6)) == 0.0

    def test_alternating_zero_two_is_one(self):
        canvas = np.tile([0.0, 2.0], (8, 4))
        assert region_std(canvas, region("r", 0, 0, 8, 8)) == pytest.approx(1.0)

    def test_too_small_region_rejected(self):
        with pytest.raises(Exception):
            region_std(np.zeros((5, 5)), region("r", 0, 0, 1, 1))


class TestMeanSeamJump:
    def test_continuous_canvas_is_zero(self):
        canvas = np.tile(np.linspace(0, 1, 50), (50, 1))
        seams = [SeamLine(orientation=Axis.VERTICAL, position=25, start=0, stop=50)]
        assert mean_seam_jump(canvas, seams) == pytest.approx(0.02040816, rel=1e-5)
        flat = np.full((50, 50), 0.5)
        assert mean_seam_jump(flat, seams) == 0.0

    def test_uniform_step_across_vertical_seam(self):
        canvas = np.zeros((10, 20))
        canvas[:, :8] = 100.0
        canvas[:, 8:] = 130.0
        seams = [SeamLine(orientation=Axis.VERTICAL, position=8, start=0, stop=10)]
        assert mean_seam_jump(canvas, seams) == pytest.approx(30.0)

    def test_horizontal_seam_and_pooled_mean(self):
        canvas = np.zeros((20, 10))
        canvas[10:, :] = 4.0
        seams = [
            SeamLine(orientation=Axis.HORIZONTAL, position=10, start=0, stop=10),
            SeamLine(orientation=Axis.HORIZONTAL, position=5, start=0, stop=10),
        ]
        # one seam jumps 4.0 over 10 pairs, the other 0.0 over 10 pairs
        assert mean_seam_jump(canvas, seams) == pytest.approx(2.0)

    def test_empty_seam_list_rejected(self):
        with pytest.raises(NoOverlapError):
            mean_seam_jump(np.zeros((5, 5)), [])

    def test_seam_outside_canvas_rejected(self):
        canvas = np.zeros((10, 10))
        with pytest.raises(IndexRangeError):
            mean_seam_jump(
                canvas, [SeamLine(orientation=Axis.VERTICAL, position=10, start=0, stop=10)]
            )
        with pytest.raises(IndexRangeError):
            mean_seam_jump(
                canvas, [SeamLine(orientation=Axis.VERTICAL, position=5, start=0, stop=11)]
            )


# ---------------------------------------------------------------------------
# Invariance properties


@given(
    a=st.floats(min_value=0.2, max_value=4.0),
    b=st.floats(min_value=-0.5, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60)
def test_overlap_mae_affine_invariance(a, b, seed):
    x = np.random.default_rng(seed).uniform(0.0, 1.0, 300)
    if np.ptp(x) == 0.0:
        return
    assert overlap_mae(x, a * x + b) < 1e-9 * np.ptp(x)


def test_cnr_is_exactly_scale_invariant_for_dyadic_transforms():
    # Values on a dyadic grid with power-of-two region sizes keep every
    # intermediate exact, so scaling by powers of two and shifting by a
    # dyadic constant must leave CNR bit-identical.
    rng = np.random.default_rng(55)
    canvas = rng.integers(0, 256, size=(64, 64)).astype(np.float64) / 256.0
    sig = region("sig", 0, 0, 32, 32, RegionKind.SIGNAL)
    bg = region("bg", 32, 32, 32, 32)
    base = cnr(canvas, sig, bg)
    for scale, shift in [(2.0, 0.0), (0.5, 0.25), (4.0, 1.5)]:
        assert cnr(scale * canvas + shift, sig, bg) == base


@given(
    scale=st.floats(min_value=0.1, max_value=8.0),
    shift=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=40)
def test_region_std_shift_invariant_and_scale_homogeneous(scale, shift):
    rng = np.random.default_rng(77)
    canvas = rng.uniform(0, 1, size=(32, 32))
    r = region("r", 4, 4, 24, 24)
    base = region_std(canvas, r)
    assert region_std(canvas + shift, r) == pytest.approx(base, rel=1e-9)
    assert region_std(canvas * scale, r) == pytest.approx(abs(scale) * base, rel=1e-9)


def test_randomized_canvases_match_bruteforce_oracles():
    rng = np.random.default_rng(909)
    for _ in range(20):
        h, w = rng.integers(12, 40, size=2)
        canvas = rng.uniform(0.0, 1.0, size=(int(h), int(w)))
        sw = int(rng.integers(3, min(8, w)))
        sh = int(rng.integers(3, min(8, h)))
        sig = region("sig", 0, 0, sw, sh, RegionKind.SIGNAL)
        bg = region("bg", int(w) - sw, int(h) - sh, sw, sh)
        rows, cols = bg.rect.slices()
        bg_list = canvas[rows, cols].ravel().tolist()
        rows, cols = sig.rect.slices()
        sig_list = canvas[rows, cols].ravel().tolist()

        assert region_std(canvas, bg) == pytest.approx(std_oracle(bg_list), rel=1e-9)
        assert cnr(canvas, sig, bg) == pytest.approx(cnr_oracle(sig_list, bg_list), rel=1e-9)

        x = rng.uniform(0, 1, 64)
        y = rng.uniform(0.5, 1.5) * x + rng.normal(0, 0.02, 64)
        fit = fit_affine(x, y)
        a_ref, b_ref = ols_oracle(x.tolist(), y.tolist())
        assert fit.a == pytest.approx(a_ref, rel=1e-9)
        assert fit.b == pytest.approx(b_ref, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# The memory-mapped mosaic view against the whole float canvas


def per_seam_jump(canvas, seams):
    """The whole-canvas computation: one difference array per seam."""
    total, count = 0.0, 0
    for s in seams:
        span = slice(s.start, s.stop)
        if s.orientation is Axis.VERTICAL:
            diffs = np.abs(canvas[span, s.position] - canvas[span, s.position - 1])
        else:
            diffs = np.abs(canvas[s.position, span] - canvas[s.position - 1, span])
        total += float(diffs.sum())
        count += diffs.size
    return total / count


def mapped_and_whole(tmp_path, height, width, seed):
    counts = np.random.default_rng(seed).integers(0, 65536, size=(height, width), dtype=np.uint16)
    path = tmp_path / "mosaic.pgm"
    pgm.write_pgm(path, counts)
    return pgm.UnitView(path), pgm.to_unit(pgm.read_pgm(path))


class TestMappedView:
    def test_regions_full_width_and_partial(self, tmp_path):
        view, whole = mapped_and_whole(tmp_path, 150, 397, seed=3)
        full = region("full", 0, 20, 397, 33)
        part = region("part", 101, 60, 173, 77)
        sig = region("sig", 5, 140, 40, 10, RegionKind.SIGNAL)
        for r in (full, part, sig):
            assert region_std(view, r) == region_std(whole, r)
        for bg in (full, part):
            assert cnr(view, sig, bg) == cnr(whole, sig, bg)
        # Summing a region as one contiguous run instead of row by row
        # changes the last bits of a good share of random regions.
        rng = np.random.default_rng(8)
        for _ in range(40):
            x0, y0 = (int(v) for v in rng.integers(0, 100, size=2))
            w, h = int(rng.integers(20, 290)), int(rng.integers(10, 50))
            r = region("r", x0, y0, w, h)
            assert region_std(view, r) == region_std(whole, r)
            assert cnr(view, sig, r) == cnr(whole, sig, r)

    def test_seams_sharing_a_line(self, tmp_path):
        view, whole = mapped_and_whole(tmp_path, 300, 260, seed=4)
        V, H = Axis.VERTICAL, Axis.HORIZONTAL
        seams = [
            SeamLine(orientation=V, position=80, start=0, stop=90),
            SeamLine(orientation=H, position=120, start=7, stop=200),
            SeamLine(orientation=V, position=80, start=150, stop=300),  # gap on the line
            SeamLine(orientation=V, position=80, start=60, stop=170),  # overlaps both
            SeamLine(orientation=H, position=120, start=3, stop=150),
            SeamLine(orientation=V, position=1, start=13, stop=14),
            SeamLine(orientation=H, position=299, start=0, stop=260),
        ]
        expected = per_seam_jump(whole, seams)
        assert mean_seam_jump(whole, seams) == expected
        assert mean_seam_jump(view, seams) == expected

    def test_sinusoidal_tilted_grid(self, tmp_path):
        scan = ScanConfig(
            n_rows=4, n_cols=5, dv_x=0.1, dv_y=0.1, s_x=350, s_y=352,
            alpha_x=3.5, alpha_y=-12.25, strategy=ScanStrategy.SINUSOIDAL,
            tile_width=64, tile_height=64,
        )
        placements = placement_table(scan)
        seams = derive_seams(placements, compute_overlaps(placements, 64, 64))
        width, height = canvas_dims(placements, 64, 64)
        view, whole = mapped_and_whole(tmp_path, height, width, seed=5)
        assert mean_seam_jump(view, seams) == per_seam_jump(whole, seams)
        sig = region("sig", 30, 40, 60, 50, RegionKind.SIGNAL)
        bg = region("bg", 0, 100, width, 45)
        assert cnr(view, sig, bg) == cnr(whole, sig, bg)
        assert region_std(view, sig) == region_std(whole, sig)

    def test_bad_seam_raises_the_same_first_error(self, tmp_path):
        view, whole = mapped_and_whole(tmp_path, 20, 30, seed=6)
        seams = [
            SeamLine(orientation=Axis.VERTICAL, position=5, start=0, stop=10),
            SeamLine(orientation=Axis.HORIZONTAL, position=25, start=0, stop=10),
            SeamLine(orientation=Axis.VERTICAL, position=40, start=0, stop=10),
        ]
        for canvas in (view, whole):
            with pytest.raises(IndexRangeError, match="horizontal seam at y=25"):
                mean_seam_jump(canvas, seams)


# ---------------------------------------------------------------------------
# Streamed region statistics against numpy's on a view of the float canvas


def stat_bits(values):
    stats = (values.mean(), values.std(), values.min(), values.max())
    return [np.float64(v).tobytes() for v in stats]


def streamed_bits(canvas, r):
    stats = _Region(canvas, r)
    return [np.float64(v).tobytes() for v in (stats.mean, stats.std(), stats.low, stats.high)]


def view_of(canvas, r):
    rows, cols = r.rect.slices()
    return canvas[rows, cols]


@st.composite
def canvas_regions(draw):
    # Widths past numpy's 8192-value buffer, regions of every kind of
    # extent, and canvases of up to three 2**16-value leaves.
    width = draw(st.one_of(st.integers(1, 300), st.integers(300, 12_000),
                           st.integers(8150, 8250)))
    height = draw(st.integers(1, max(1, 200_000 // width)))
    kind = draw(st.sampled_from(["any", "full_width", "one_row", "one_column", "constant"]))
    x0 = 0 if kind == "full_width" else draw(st.integers(0, width - 1))
    y0 = draw(st.integers(0, height - 1))
    w = {"full_width": width, "one_column": 1}.get(kind) or draw(st.integers(1, width - x0))
    h = 1 if kind == "one_row" else draw(st.integers(1, height - y0))
    return height, width, region("r", x0, y0, w, h), kind == "constant", draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(canvas_regions(), st.integers(0, 2**32 - 1))
def test_streamed_region_stats_match_numpy_on_the_float_canvas(case, seed):
    height, width, r, constant, mapped = case
    counts = np.random.default_rng(seed).integers(0, 65536, size=(height, width), dtype=np.uint16)
    if constant:
        counts[r.rect.slices()] = counts[r.rect.y0, r.rect.x0]
    whole = pgm.to_unit(counts)
    expected = stat_bits(view_of(whole, r))
    if constant:
        # The mean's rounding may leave numpy a std of ~1e-17; the metrics read 0.
        expected[1] = np.float64(0.0).tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        if mapped:
            pgm.write_pgm(Path(tmp) / "mosaic.pgm", counts)
            canvas = pgm.UnitView(Path(tmp) / "mosaic.pgm")
        else:
            canvas = whole
        assert streamed_bits(canvas, r) == expected
        if constant:
            with pytest.raises(UndefinedCnrError, match="background standard deviation is zero"):
                cnr(canvas, r, r)


def test_streamed_regions_of_many_leaves_match_numpy():
    # Regions of several 2**16-value leaves, most of them cut inside a row,
    # and reads that start inside a row.
    rng = np.random.default_rng(12)
    canvas = pgm.to_unit(rng.integers(0, 65536, size=(600, 700), dtype=np.uint16))
    for _ in range(30):
        w, h = int(rng.integers(40, 700)), int(rng.integers(210, 600))
        x0, y0 = int(rng.integers(0, 700 - w + 1)), int(rng.integers(0, 600 - h + 1))
        r = region("r", x0, y0, w, h)
        assert streamed_bits(canvas, r) == stat_bits(view_of(canvas, r))


def test_streamed_tall_columns_match_numpy():
    # numpy sums a column as one strided run, not in buffer-sized groups;
    # groups of 8192 rows change the mean of 4 of these 16 columns.
    canvas = pgm.to_unit(np.random.default_rng(13).integers(0, 65536, size=(30000, 4),
                                                            dtype=np.uint16))
    for x0 in range(4):
        for y0, h in ((0, 30000), (5, 20001), (100, 9000), (7, 12345)):
            r = region("column", x0, y0, 1, h)
            assert streamed_bits(canvas, r) == stat_bits(view_of(canvas, r)), (x0, y0, h)


def test_mapped_regions_match_numpy_on_the_float_canvas(tmp_path):
    view, whole = mapped_and_whole(tmp_path, 700, 331, seed=9)
    for r in (region("tall", 17, 3, 120, 690), region("full", 0, 200, 331, 300),
              region("row", 5, 699, 300, 1), region("column", 330, 0, 1, 700)):
        assert streamed_bits(view, r) == stat_bits(view_of(whole, r)), r.name


def numpy_rule_sum(view):
    """numpy's sum of a 2D view of a wider array: one pairwise sum if the
    view is one run of evenly spaced values (one row, one column or whole
    rows); else its rows in groups of ``max(1, np.getbufsize() // width)``,
    each group one contiguous pairwise sum, the group sums added in order
    to 0.0."""
    height, width = view.shape
    run = height == 1 or width == 1 or view.flags.c_contiguous
    group = height if run else max(1, np.getbufsize() // width)
    total = 0.0
    for top in range(0, height, group):
        total += np.add.reduce(np.ascontiguousarray(view[top:top + group]).ravel())
    return total


@pytest.mark.parametrize("width, pad", [
    (1, 1), (1, 0), (3, 1), (700, 1), (700, 0), (2730, 1), (4095, 1), (4096, 1), (4097, 1),
    (8191, 1), (8192, 1), (8193, 1), (9000, 1),
])
def test_numpy_sums_a_view_by_the_rule_the_region_mean_follows(width, pad):
    # The region mean relies on this rule of numpy's buffered reduction; a
    # numpy that sums otherwise changes the report's bits, and fails here.
    rng = np.random.default_rng(width)
    height = max(3, 60_000 // width)
    values = rng.standard_normal((height, width + pad)) * 10.0 ** rng.integers(-8, 9, (height, 1))
    view = values[:, :width]
    got, expected = np.add.reduce(view, axis=None), numpy_rule_sum(view)
    assert got.tobytes() == np.float64(expected).tobytes(), (
        f"numpy {np.__version__} with getbufsize() {np.getbufsize()} sums a "
        f"{height} x {width} view of {width + pad} columns otherwise: {got!r} != {expected!r}"
    )
