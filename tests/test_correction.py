"""Response-model fitting, ROI correction, and feathered re-blending."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galvomosaic.correction import (
    RectROI,
    ReferencePair,
    ResponseModel,
    _blend,
    apply_roi_corrections,
    correct_roi,
    fit_bright_only,
    fit_two_point,
    linear_weight_field,
)
from galvomosaic.errors import DimensionMismatchError, InvalidReferenceError

TILE = (100, 120)  # (height, width)
ROI = RectROI(x0=10, y0=20, width=60, height=50)


def constant_frame(value, shape=TILE):
    return np.full(shape, float(value))


def constant_model(gain, offset=0.0, eps=0.0, roi=ROI):
    shape = (roi.height, roi.width)
    return ResponseModel(gain=np.full(shape, gain), offset=np.full(shape, offset), epsilon=eps)


def weight_field(weights):
    """The ROI-shaped weights of the ramps ``(wy, wx)``."""
    wy, wx = weights
    return np.minimum(wy[:, None], wx[None, :])


def distance_field(roi, band_px):
    """Oracle: min(d / band_px, 1) for d the distance to the nearest ROI edge."""
    x = np.arange(roi.width, dtype=np.float64)
    y = np.arange(roi.height, dtype=np.float64)
    dist = np.minimum(np.minimum(y, roi.height - 1 - y)[:, None],
                      np.minimum(x, roi.width - 1 - x)[None, :])
    return np.minimum(dist / float(band_px), 1.0)


def feather_roi(tile, corrected, weights, roi):
    """Oracle: a copy of ``tile`` whose ROI holds I + W * (I_corr - I), or
    I_corr where W = 1, clamped to [0, 1]; ``weights`` are ramps."""
    weights = weight_field(weights)
    out = np.array(tile, dtype=np.float64)
    patch = out[roi.slices()]
    blended = np.where(weights == 1.0, corrected, patch + weights * (corrected - patch))
    out[roi.slices()] = np.clip(blended, 0.0, 1.0)
    return out


class TestFitTwoPoint:
    def test_direct_substitution(self):
        refs = ReferencePair(
            bright_frame=constant_frame(150.0),
            l_bright=100.0,
            dark_frame=constant_frame(50.0),
            l_dark=0.0,
        )
        model = fit_two_point(refs, ROI, eps=0.0)
        assert np.allclose(model.gain, 1.0)
        assert np.allclose(model.offset, 50.0)

    def test_equal_references_give_zero_gain(self):
        refs = ReferencePair(
            bright_frame=constant_frame(80.0),
            l_bright=1.0,
            dark_frame=constant_frame(80.0),
            l_dark=0.0,
        )
        model = fit_two_point(refs, ROI, eps=0.0)
        assert np.all(model.gain == 0.0)  # degenerate: gain positivity lost

    def test_synthetic_vignette_against_per_pixel_oracle(self):
        # I_b = V(x, y) * L_b, I_d = constant offset; the fitted gain and
        # offset must match a plain per-pixel recomputation.
        h, w = TILE
        yy, xx = np.mgrid[0:h, 0:w]
        vignette = 1.0 - 0.3 * ((xx - w / 2) ** 2 + (yy - h / 2) ** 2) / (w / 2) ** 2
        l_bright, offset0, eps = 0.8, 0.05, 1e-6
        bright = vignette * l_bright + offset0
        dark = constant_frame(offset0)
        refs = ReferencePair(
            bright_frame=bright, l_bright=l_bright, dark_frame=dark, l_dark=0.0
        )
        model = fit_two_point(refs, ROI, eps=eps)
        rows, cols = ROI.slices()
        for yi, xi in [(0, 0), (13, 41), (49, 59), (25, 0)]:
            ib = bright[rows, cols][yi, xi]
            gain_expected = (ib - offset0) / (l_bright - 0.0 + eps)
            offset_expected = offset0 - gain_expected * 0.0
            assert model.gain[yi, xi] == pytest.approx(gain_expected, rel=1e-15)
            assert model.offset[yi, xi] == pytest.approx(offset_expected, rel=1e-15)

    def test_rejects_inverted_levels(self):
        with pytest.raises(InvalidReferenceError):
            ReferencePair(
                bright_frame=constant_frame(1.0),
                l_bright=0.1,
                dark_frame=constant_frame(0.0),
                l_dark=0.5,
            )

    def test_rejects_mismatched_frames(self):
        with pytest.raises(DimensionMismatchError):
            ReferencePair(
                bright_frame=constant_frame(1.0),
                l_bright=1.0,
                dark_frame=constant_frame(0.0, shape=(10, 10)),
                l_dark=0.0,
            )


class TestFitBrightOnly:
    def test_uniform_frame_gain_near_one(self):
        model = fit_bright_only(constant_frame(0.75), 0.75, ROI, eps=1e-6)
        assert np.allclose(model.gain, 1.0, atol=2e-6)
        assert np.all(model.offset == 0.0)

    def test_half_level_pixel(self):
        model = fit_bright_only(constant_frame(0.4), 0.8, ROI, eps=0.0)
        assert np.allclose(model.gain, 0.5)

    def test_round_trip_restores_reference_level(self):
        rng = np.random.default_rng(42)
        l_bright = 0.8
        bright = l_bright * rng.uniform(0.7, 1.0, size=TILE)
        model = fit_bright_only(bright, l_bright, ROI, eps=1e-6)
        corrected = correct_roi(bright, model, ROI)
        assert np.allclose(corrected, l_bright, atol=1e-4)

    def test_zero_level_is_invalid(self):
        with pytest.raises(InvalidReferenceError):
            fit_bright_only(constant_frame(0.0), 0.0, ROI, eps=0.0)

    @pytest.mark.parametrize("eps", [1e-6, 0.0, 0.3])
    def test_is_the_two_point_fit_with_a_zero_dark_frame(self, eps):
        # Gain-only means g = I_b / (L_b + eps) and o = +0.0 exactly; the
        # two-point fit with an all-zero dark frame at level 0 gives the
        # same bytes.
        rng = np.random.default_rng(8)
        bright = rng.uniform(0.0, 1.0, size=TILE)
        l_bright = 0.9
        gain_only = bright[ROI.slices()] / (l_bright + eps)
        refs = ReferencePair(bright, l_bright, np.zeros_like(bright), 0.0)
        for model in (fit_two_point(refs, ROI, eps=eps), fit_bright_only(bright, l_bright, ROI, eps)):
            assert model.gain.tobytes() == gain_only.tobytes()
            assert model.offset.tobytes() == np.zeros_like(gain_only).tobytes()
            assert model.epsilon == eps


class TestCorrectRoi:
    def test_identity_model_is_bit_exact(self):
        rng = np.random.default_rng(3)
        tile = rng.uniform(0.0, 1.0, size=TILE)
        model = ResponseModel(
            gain=np.ones((ROI.height, ROI.width)),
            offset=np.zeros((ROI.height, ROI.width)),
            epsilon=0.0,
        )
        rows, cols = ROI.slices()
        assert np.array_equal(correct_roi(tile, model, ROI), tile[rows, cols])

    def test_inverts_the_two_point_example(self):
        tile = constant_frame(150.0)
        model = ResponseModel(
            gain=np.ones((ROI.height, ROI.width)),
            offset=np.full((ROI.height, ROI.width), 50.0),
            epsilon=0.0,
        )
        assert np.allclose(correct_roi(tile, model, ROI), 100.0)

    def test_flattens_a_vignetted_tile(self):
        h, w = TILE
        yy, xx = np.mgrid[0:h, 0:w]
        vignette = 1.0 - 0.25 * ((xx / w) ** 2 + (yy / h) ** 2)
        level = 0.9
        tile = vignette * level
        refs = ReferencePair(
            bright_frame=vignette * 0.8,
            l_bright=0.8,
            dark_frame=np.zeros(TILE),
            l_dark=0.0,
        )
        model = fit_two_point(refs, ROI, eps=1e-6)
        corrected = correct_roi(tile, model, ROI)
        assert corrected.std() < 1e-6
        assert np.allclose(corrected, level, atol=1e-3)


class TestWeightField:
    def test_values_bounded_and_boundary_zero(self):
        wy, wx = linear_weight_field(ROI, band_px=10)
        assert wy.shape == (ROI.height,) and wx.shape == (ROI.width,)
        w = weight_field((wy, wx))
        assert w.min() == 0.0 and w.max() == 1.0
        assert np.all(w[0, :] == 0.0) and np.all(w[-1, :] == 0.0)
        assert np.all(w[:, 0] == 0.0) and np.all(w[:, -1] == 0.0)

    def test_interior_beyond_band_is_one(self):
        w = weight_field(linear_weight_field(ROI, band_px=10))
        assert np.all(w[10:-10, 10:-10] == 1.0)

    @pytest.mark.parametrize("roi, band_px", [
        (ROI, 10), (ROI, 7), (RectROI(0, 0, 1, 1), 1), (RectROI(3, 4, 1, 9), 2),
        (RectROI(0, 0, 580, 600), 50), (RectROI(0, 0, 200, 400), 50),
        (RectROI(5, 5, 30, 30), 8), (RectROI(0, 0, 17, 64), 3),
    ])
    def test_min_of_ramps_is_the_distance_field_bit_for_bit(self, roi, band_px):
        # min(a, b) / c == min(a / c, b / c) for c > 0, and likewise for the
        # clamp at 1, so the two ramps give the whole field's every bit.
        expected = distance_field(roi, band_px)
        assert weight_field(linear_weight_field(roi, band_px)).tobytes() == expected.tobytes()

    def test_adjacent_difference_bounded_by_band_slope(self):
        w = weight_field(linear_weight_field(ROI, band_px=7))
        bound = 1.0 / 7 + 1e-12
        assert np.abs(np.diff(w, axis=0)).max() <= bound
        assert np.abs(np.diff(w, axis=1)).max() <= bound


class TestFeatherRoi:
    """The blend of :func:`apply_roi_corrections`, one ROI at a time."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.tile = rng.uniform(0.1, 0.9, size=TILE)
        shape = (ROI.height, ROI.width)
        self.model = ResponseModel(
            gain=rng.uniform(0.5, 2.0, size=shape),
            offset=rng.uniform(-0.1, 0.1, size=shape),
            epsilon=1e-6,
        )

    def _apply(self, model, weights):
        """(corrected tile, the ROI's inverted values) for one fit."""
        if not isinstance(weights, tuple):
            weights = np.full(ROI.height, float(weights)), np.full(ROI.width, float(weights))
        corrected = correct_roi(self.tile, model, ROI)
        out = apply_roi_corrections(self.tile.copy(), [(model, ROI, weights)])
        assert np.array_equal(out, feather_roi(self.tile, corrected, weights, ROI))
        return out, corrected

    def test_full_weight_returns_corrected(self):
        out, corrected = self._apply(constant_model(1.25, 0.05), 1.0)
        assert np.array_equal(out[ROI.slices()], corrected)

    def test_zero_weight_returns_original(self):
        out, _ = self._apply(self.model, 0.0)
        assert np.array_equal(out, self.tile)

    def test_midpoint_blend(self):
        self.tile = constant_frame(100.0 / 65535)
        out, _ = self._apply(constant_model(0.5), 0.5)
        assert np.allclose(out[ROI.slices()], 150.0 / 65535)

    def test_outside_roi_untouched(self):
        out, _ = self._apply(self.model, 0.7)
        mask = np.ones(TILE, dtype=bool)
        mask[ROI.slices()] = False
        assert np.array_equal(out[mask], self.tile[mask])

    def test_output_between_original_and_corrected(self):
        out, corrected = self._apply(constant_model(1.3, -0.05), linear_weight_field(ROI, 9))
        patch = self.tile[ROI.slices()]
        lo = np.minimum(patch, corrected)
        hi = np.maximum(patch, corrected)
        assert np.all(out[ROI.slices()] >= lo - 1e-15)
        assert np.all(out[ROI.slices()] <= hi + 1e-15)

    def test_clamps_overshoot(self):
        # Gain 0.5 doubles every value, so the brighter pixels pass 1.
        out, corrected = self._apply(constant_model(0.5), 1.0)
        assert corrected.max() > 1.0
        assert out[ROI.slices()].max() == 1.0

    def test_identity_correction_is_bit_exact_through_both_stages(self):
        out, _ = self._apply(constant_model(1.0), linear_weight_field(ROI, 13))
        assert np.array_equal(out, self.tile)


@given(
    gain=st.floats(min_value=0.3, max_value=2.5),
    offset=st.floats(min_value=-0.2, max_value=0.2),
    level=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=60)
def test_forward_model_round_trip(gain, offset, level):
    # Apply I = g*T + o forward, then invert with the fitted model; the
    # eps guard bounds the residual by ~eps*|T|/g.
    roi = RectROI(x0=0, y0=0, width=16, height=12)
    truth = np.full((12, 16), level)
    eps = 1e-6
    degraded = gain * truth + offset
    recovered = correct_roi(degraded, constant_model(gain, offset, eps, roi), roi)
    tol = abs(eps * level / gain) + 1e-12
    assert np.all(np.abs(recovered - truth) <= tol)


def test_apply_roi_corrections_handles_multiple_rois():
    rng = np.random.default_rng(9)
    tile = rng.uniform(0.2, 0.8, size=TILE)
    rois = [RectROI(0, 60, 30, 40), RectROI(90, 60, 30, 40)]
    fits = [(constant_model(2.0, roi=roi), roi, linear_weight_field(roi, band_px=5)) for roi in rois]
    out = apply_roi_corrections(tile.copy(), fits)
    mask = np.ones(TILE, dtype=bool)
    for roi in rois:
        rows, cols = roi.slices()
        mask[rows, cols] = False
        # deep interior got the full halving
        assert np.allclose(out[rows, cols][10:-10, 10:-10], tile[rows, cols][10:-10, 10:-10] / 2)
    assert np.array_equal(out[mask], tile[mask])


def test_apply_roi_corrections_corrects_in_place_like_feather_roi():
    rng = np.random.default_rng(21)
    tile = rng.uniform(0.0, 1.0, size=TILE)
    # Overlapping ROIs: the second corrects what the first blended.
    rois = [RectROI(5, 10, 60, 50), RectROI(40, 30, 70, 60)]
    fits = []
    for k, roi in enumerate(rois):
        shape = (roi.height, roi.width)
        model = ResponseModel(
            gain=rng.uniform(0.5, 2.0, size=shape),
            offset=rng.uniform(-0.1, 0.1, size=shape),
            epsilon=1e-6,
        )
        fits.append((model, roi, linear_weight_field(roi, band_px=4 + k)))
    expected = tile.copy()
    for model, roi, weights in fits:
        patch = expected[roi.slices()]
        expected = feather_roi(expected, (patch - model.offset) / (model.gain + 1e-6), weights, roi)
    before = tile.copy()
    out = apply_roi_corrections(tile, fits)
    assert out is tile
    assert np.array_equal(tile, expected)
    outside = np.ones(TILE, dtype=bool)
    for roi in rois:
        outside[roi.slices()] = False
    assert np.array_equal(tile[outside], before[outside])
    # Input of another dtype is converted, never written.
    counts = np.full(TILE, 3, dtype=np.uint16)
    converted = apply_roi_corrections(counts, fits)
    assert converted.dtype == np.float64 and np.all(counts == 3)


def test_tall_roi_is_corrected_whole():
    # 300 rows of a 40 px ROI come out with the same bits as the oracle
    # on the whole ROI.
    rng = np.random.default_rng(12)
    frame = rng.uniform(0.0, 1.0, (320, 50))
    roi = RectROI(5, 10, 40, 300)
    shape = (roi.height, roi.width)
    model = ResponseModel(gain=rng.uniform(0.5, 2.0, shape), offset=rng.uniform(-0.1, 0.1, shape),
                          epsilon=1e-6)
    weights = linear_weight_field(roi, band_px=30)
    patch = frame[roi.slices()]
    expected = feather_roi(frame, (patch - model.offset) / (model.gain + 1e-6), weights, roi)
    assert np.array_equal(apply_roi_corrections(frame.copy(), [(model, roi, weights)]), expected)


# numpy's ufunc buffers and array headers, beyond the temporaries.
BLEND_SLACK = 64 * 1024


def test_block_correction_holds_only_temporaries_of_the_roi_part():
    # Stitch corrects a 64-row block of a 1000 px wide frame through a
    # 580 x 600 ROI: the kernel may hold three float64 arrays and a mask
    # of the block's 64 x 580 part of the ROI, never more of the ROI.
    roi = RectROI(200, 100, 580, 600)
    shape = (roi.height, roi.width)
    rng = np.random.default_rng(5)
    model = ResponseModel(gain=rng.uniform(0.5, 2.0, shape), offset=rng.uniform(-0.1, 0.1, shape),
                          epsilon=1e-6)
    fits = [(model, roi, linear_weight_field(roi))]
    block = rng.uniform(0.0, 1.0, (64, 1000))
    _blend(block.copy(), fits, (300, 0))  # numpy's first-call caches are in place before tracing
    tracemalloc.start()
    try:
        _blend(block, fits, (300, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * roi.width * (3 * 8 + 1) + BLEND_SLACK, peak


@st.composite
def windowed_corrections(draw):
    """A frame, ROIs with random models and weight fields (some weights
    exactly 1), and a window whose ROIs lie inside, across or outside it."""
    h, w = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fits = []
    for _ in range(draw(st.integers(1, 3))):
        x0, y0 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        roi = RectROI(x0, y0, draw(st.integers(1, w - x0)), draw(st.integers(1, h - y0)))
        shape = (roi.height, roi.width)
        model = ResponseModel(gain=rng.uniform(0.3, 2.0, shape),
                              offset=rng.uniform(-0.2, 0.2, shape), epsilon=1e-6)
        fits.append((model, roi, linear_weight_field(roi, draw(st.integers(1, 6)))))
    top, left = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    bottom, right = draw(st.integers(top + 1, h)), draw(st.integers(left + 1, w))
    frame = rng.uniform(-0.1, 1.1, (h, w))
    return frame, fits, (top, bottom, left, right)


@settings(max_examples=200, deadline=None)
@given(windowed_corrections())
def test_window_correction_is_bit_equal_to_the_frame_slice(case):
    frame, fits, (top, bottom, left, right) = case
    # Stitch corrects each block of a tile's rows, or an overlap window,
    # through the private window kernel.
    expected = apply_roi_corrections(frame.copy(), fits)[top:bottom, left:right]
    window = frame[top:bottom, left:right].copy()
    _blend(window, fits, (top, left))
    assert np.array_equal(window, expected)


def test_window_correction_covers_inside_partial_and_outside_rois():
    frame = np.random.default_rng(4).uniform(0.0, 1.0, TILE)
    rois = [RectROI(30, 30, 10, 10), RectROI(0, 0, 40, 40), RectROI(100, 80, 20, 20)]
    fits = [(constant_model(2.0, roi=roi), roi, linear_weight_field(roi, band_px=3)) for roi in rois]
    top, left = 25, 20
    window = frame[top:top + 30, left:left + 40].copy()
    _blend(window, fits, (top, left))
    whole = apply_roi_corrections(frame.copy(), fits)
    assert np.array_equal(window, whole[top:top + 30, left:left + 40])
    # The third ROI lies outside the window and leaves it untouched.
    assert not np.array_equal(whole[80:, 100:], frame[80:, 100:])
