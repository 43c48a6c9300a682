"""Per-frame brightness correction inside fixed rectangular ROIs.

A limited aperture leaves each frame with corner regions whose response
differs from the rest of the field.  Inside a fixed ROI the detector is
modeled linearly per pixel,

    I(x, y) = g(x, y) * L + o(x, y),

where L is the global brightness level of a reference frame.  Bright and
dark reference frames (levels L_b > L_d) determine gain and offset:

    g = (I_b - I_d) / (L_b - L_d + eps)
    o = I_d - g * L_d

and a frame is corrected by inverting the model, I_corr = (I - o) /
(g + eps).  When only a bright-field deviation exists the model is
gain-only, g = I_b / (L_b + eps), o = 0: the same two-point fit with an
all-zero dark frame at level 0.  Corrected values are blended back into
the frame with a weight field that ramps linearly from 0 at the ROI
boundary to 1 past a transition band, which hides the ROI outline.  The
field is kept as two 1-D ramps, one per axis, whose minimum is the
weight of a pixel; only the rows being blended form it.

Every step of the correction is elementwise, so any window of a frame
can be corrected on its own, bit-equal to the same window of the whole
corrected frame.  :func:`apply_roi_corrections` corrects a whole frame;
stitch corrects each block of rows of a tile as it decodes it, through
the same private window kernel, whose temporaries are the size of each
ROI's part of the window.

All intensities here are floats in [0, 1]; eps defaults to 1e-6 in
those units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidReferenceError

EPSILON_DEFAULT = 1e-6
BAND_PX_DEFAULT = 50


@dataclass(frozen=True)
class RectROI:
    """Axis-aligned pixel rectangle: top-left corner plus size.

    The field metadata holds the bounds, which :func:`~galvomosaic.records.check_fields`
    and the JSON reader apply.
    """

    x0: int = field(metadata={"least": 0})
    y0: int = field(metadata={"least": 0})
    width: int = field(metadata={"least": 1})
    height: int = field(metadata={"least": 1})

    @property
    def x1(self) -> int:
        """Exclusive right edge."""
        return self.x0 + self.width

    @property
    def y1(self) -> int:
        """Exclusive bottom edge."""
        return self.y0 + self.height

    def slices(self) -> tuple[slice, slice]:
        """(row, col) slices for indexing a 2D array."""
        return slice(self.y0, self.y1), slice(self.x0, self.x1)

    def check_within(self, shape: tuple[int, int]) -> None:
        h, w = shape
        if self.x1 > w or self.y1 > h:
            raise DimensionMismatchError(
                f"rectangle {self.x0},{self.y0},{self.width},{self.height} "
                f"exceeds array bounds {w}x{h}"
            )


@dataclass(frozen=True)
class ReferencePair:
    """Bright/dark reference frames and their global brightness levels,
    with ``l_bright > l_dark``.  A gain-only fit passes an all-zero dark
    frame at level 0.
    """

    bright_frame: np.ndarray
    l_bright: float
    dark_frame: np.ndarray
    l_dark: float

    def __post_init__(self) -> None:
        if self.dark_frame.shape != self.bright_frame.shape:
            raise DimensionMismatchError(
                f"reference frames differ in shape: "
                f"{self.bright_frame.shape} vs {self.dark_frame.shape}"
            )
        if not self.l_bright > self.l_dark:
            raise InvalidReferenceError(
                f"need l_bright > l_dark, got {self.l_bright} <= {self.l_dark}"
            )


@dataclass(frozen=True)
class ResponseModel:
    """Fitted per-pixel gain and offset over one ROI."""

    gain: np.ndarray
    offset: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        if self.gain.shape != self.offset.shape:
            raise DimensionMismatchError(
                f"gain/offset shapes differ: {self.gain.shape} vs {self.offset.shape}"
            )
        if not (np.all(np.isfinite(self.gain)) and np.all(np.isfinite(self.offset))):
            raise InvalidReferenceError("response model contains non-finite entries")


def fit_two_point(
    refs: ReferencePair, roi: RectROI, eps: float = EPSILON_DEFAULT
) -> ResponseModel:
    """Solve per-pixel gain/offset from a bright and a dark reference."""
    roi.check_within(refs.bright_frame.shape)
    rows, cols = roi.slices()
    bright = np.asarray(refs.bright_frame, dtype=np.float64)[rows, cols]
    dark = np.asarray(refs.dark_frame, dtype=np.float64)[rows, cols]
    gain = (bright - dark) / (refs.l_bright - refs.l_dark + eps)
    offset = dark - gain * refs.l_dark
    return ResponseModel(gain=gain, offset=offset, epsilon=eps)


def fit_bright_only(
    bright: np.ndarray, l_bright: float, roi: RectROI, eps: float = EPSILON_DEFAULT
) -> ResponseModel:
    """Gain-only fit: the two-point fit with an all-zero dark frame at level 0."""
    refs = ReferencePair(bright, l_bright, np.zeros_like(bright, dtype=np.float64), 0.0)
    return fit_two_point(refs, roi, eps)


def correct_roi(tile: np.ndarray, model: ResponseModel, roi: RectROI) -> np.ndarray:
    """Invert the response model over the ROI, (I - o) / (g + eps); returns
    the ROI-sized result."""
    roi.check_within(np.asarray(tile).shape)
    if model.gain.shape != (roi.height, roi.width):
        raise DimensionMismatchError(
            f"model shape {model.gain.shape} does not match ROI {roi.height}x{roi.width}"
        )
    patch = np.asarray(tile, dtype=np.float64)[roi.slices()]
    return (patch - model.offset) / (model.gain + model.epsilon)


def linear_weight_field(roi: RectROI, band_px: int = BAND_PX_DEFAULT
                        ) -> tuple[np.ndarray, np.ndarray]:
    """ROI weights that rise linearly from the ROI boundary over ``band_px``,
    as two ramps ``(wy, wx)``: pixel (r, c) of the ROI weighs
    ``min(wy[r], wx[c])``.

    A pixel at L-inf-style distance d from the nearest ROI edge (the min
    over the four per-edge distances) gets min(d / band_px, 1), so the
    boundary ring is 0, the interior past the band is 1, and adjacent
    pixels never differ by more than 1/band_px.  Each ramp is
    min(dist / band_px, 1) along its axis; division by band_px > 0 and
    rounding keep order, so the min of the two ramps is that weight bit
    for bit.
    """
    def ramp(length: int) -> np.ndarray:
        d = np.arange(length, dtype=np.float64)
        return np.minimum(np.minimum(d, length - 1 - d) / float(band_px), 1.0)

    return ramp(roi.height), ramp(roi.width)


# (model, ROI, (wy, wx)) of one ROI, as :func:`apply_roi_corrections` takes them.
Fit = tuple[ResponseModel, RectROI, tuple[np.ndarray, np.ndarray]]


def apply_roi_corrections(tile: np.ndarray, fits: Sequence[Fit]) -> np.ndarray:
    """Correct and feather each (model, ROI, weights) triple in turn, in place.

    Inside each ROI the model is inverted and blended back as
    I + W * (I_corr - I), the convex combination W*I_corr + (1-W)*I
    written so W = 0 leaves I bit-exact; W = 1 gives I_corr exactly.
    The result is clamped to [0, 1].  A float64 ``tile`` is overwritten
    inside its ROIs and returned; any other input is converted to a new
    float64 array first.  The fits are taken as built: each model has
    the ROI's shape, and the weights are the ramps of
    :func:`linear_weight_field` (or any ramps of the ROI's height and
    width).  The correction makes temporaries the size of each ROI.
    """
    out = np.asarray(tile, dtype=np.float64)
    _blend(out, fits, (0, 0))
    return out


def _blend(rows: np.ndarray, fits: Sequence[Fit], origin: tuple[int, int]) -> None:
    """Correct and feather ``rows`` in place, each fit in turn: a float64
    window of a frame whose top-left pixel is frame pixel ``origin``.  Each
    ROI's part of the window is corrected in one go, in three float64
    temporaries and a mask of that part's shape."""
    top, left = origin
    bottom, right = top + rows.shape[0], left + rows.shape[1]
    for model, roi, (wy, wx) in fits:
        y0, y1 = max(roi.y0, top), min(roi.y1, bottom)
        x0, x1 = max(roi.x0, left), min(roi.x1, right)
        if y0 >= y1 or x0 >= x1:
            continue
        patch = rows[y0 - top:y1 - top, x0 - left:x1 - left]
        part = np.s_[y0 - roi.y0:y1 - roi.y0, x0 - roi.x0:x1 - roi.x0]
        # c = (I - o) / (g + eps), as correct_roi forms it; the
        # denominator's array then holds the weights.
        c = np.subtract(patch, model.offset[part])
        w = np.add(model.gain[part], model.epsilon)
        c /= w
        np.minimum(wy[part[0], None], wx[part[1]], out=w)
        b = np.subtract(c, patch)
        b *= w
        b += patch
        # Pin the W = 1 endpoint: a + 1*(b - a) can round away from b.
        np.copyto(b, c, where=np.equal(w, 1.0))
        b.clip(0.0, 1.0, out=patch)
