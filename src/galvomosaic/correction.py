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
(g + eps).  When only a bright-field deviation exists the model
degenerates to gain-only: g = I_b / (L_b + eps), o = 0.  Corrected
values are blended back into the frame with a weight field that ramps
linearly from 0 at the ROI boundary to 1 past a transition band, which
hides the ROI outline.

All intensities here are floats in [0, 1]; eps defaults to 1e-6 in
those units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidReferenceError, WeightInvariantError

EPSILON_DEFAULT = 1e-6
BAND_PX_DEFAULT = 50


@dataclass(frozen=True)
class RectROI:
    """Axis-aligned pixel rectangle: top-left corner plus size."""

    x0: int = field(metadata={"least": 0})
    y0: int = field(metadata={"least": 0})
    width: int = field(metadata={"least": 1})
    height: int = field(metadata={"least": 1})

    def __post_init__(self) -> None:
        if self.x0 < 0 or self.y0 < 0:
            raise DimensionMismatchError(f"ROI corner must be nonnegative: {self}")
        if self.width < 1 or self.height < 1:
            raise DimensionMismatchError(f"ROI size must be positive: {self}")

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
                f"ROI {self} exceeds array bounds {w}x{h}"
            )


@dataclass(frozen=True)
class ReferencePair:
    """Bright/dark reference frames and their global brightness levels.

    The dark frame is optional; when present both levels are required and
    must satisfy ``l_bright > l_dark``.
    """

    bright_frame: np.ndarray
    l_bright: float
    dark_frame: np.ndarray | None = None
    l_dark: float | None = None

    def __post_init__(self) -> None:
        if self.dark_frame is not None:
            if self.dark_frame.shape != self.bright_frame.shape:
                raise DimensionMismatchError(
                    f"reference frames differ in shape: "
                    f"{self.bright_frame.shape} vs {self.dark_frame.shape}"
                )
            if self.l_dark is None:
                raise InvalidReferenceError("l_dark required when dark_frame is given")
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


@dataclass(frozen=True)
class WeightField:
    """ROI-shaped blending weights in [0, 1] with a linear edge band."""

    weights: np.ndarray
    band_px: int

    def __post_init__(self) -> None:
        w = self.weights
        if w.size and (w.min() < 0.0 or w.max() > 1.0):
            raise WeightInvariantError(
                f"weights outside [0, 1]: min={w.min()}, max={w.max()}"
            )
        if self.band_px < 1:
            raise WeightInvariantError(f"band_px must be >= 1, got {self.band_px}")


def fit_two_point(
    refs: ReferencePair, roi: RectROI, eps: float = EPSILON_DEFAULT
) -> ResponseModel:
    """Solve per-pixel gain/offset from a bright and a dark reference."""
    if refs.dark_frame is None:
        raise InvalidReferenceError("two-point fit needs a dark reference frame")
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
    """Gain-only fit from a bright reference; offset is identically zero."""
    if l_bright + eps == 0.0:
        raise InvalidReferenceError(f"l_bright + eps must be nonzero, got {l_bright} + {eps}")
    roi.check_within(np.asarray(bright).shape)
    rows, cols = roi.slices()
    gain = np.asarray(bright, dtype=np.float64)[rows, cols] / (l_bright + eps)
    return ResponseModel(gain=gain, offset=np.zeros_like(gain), epsilon=eps)


def correct_roi(tile: np.ndarray, model: ResponseModel, roi: RectROI) -> np.ndarray:
    """Invert the response model over the ROI; returns the ROI-sized result."""
    roi.check_within(np.asarray(tile).shape)
    if model.gain.shape != (roi.height, roi.width):
        raise DimensionMismatchError(
            f"model shape {model.gain.shape} does not match ROI {roi.height}x{roi.width}"
        )
    rows, cols = roi.slices()
    patch = np.asarray(tile, dtype=np.float64)[rows, cols]
    return (patch - model.offset) / (model.gain + model.epsilon)


def linear_weight_field(roi: RectROI, band_px: int = BAND_PX_DEFAULT) -> WeightField:
    """Weights that rise linearly from the ROI boundary over ``band_px``.

    A pixel at L-inf-style distance d from the nearest ROI edge (the min
    over the four per-edge distances) gets min(d / band_px, 1), so the
    boundary ring is 0, the interior past the band is 1, and adjacent
    pixels never differ by more than 1/band_px.
    """
    x = np.arange(roi.width, dtype=np.float64)
    y = np.arange(roi.height, dtype=np.float64)
    dist_x = np.minimum(x, roi.width - 1 - x)
    dist_y = np.minimum(y, roi.height - 1 - y)
    dist = np.minimum(dist_y[:, None], dist_x[None, :])
    weights = np.minimum(dist / float(band_px), 1.0)
    return WeightField(weights=weights, band_px=band_px)


def _blend_into(
    tile: np.ndarray, corrected: np.ndarray, w: WeightField, roi: RectROI
) -> None:
    """Write the feathered blend into the ROI of the float64 ``tile``."""
    roi.check_within(tile.shape)
    if corrected.shape != (roi.height, roi.width):
        raise DimensionMismatchError(
            f"corrected shape {corrected.shape} does not match ROI {roi.height}x{roi.width}"
        )
    if w.weights.shape != corrected.shape:
        raise DimensionMismatchError(
            f"weight shape {w.weights.shape} does not match ROI {roi.height}x{roi.width}"
        )
    patch = tile[roi.slices()]
    blended = patch + w.weights * (corrected - patch)
    # Pin the W = 1 endpoint: a + 1*(b - a) can round away from b.
    full = w.weights == 1.0
    if full.any():
        blended = np.where(full, corrected, blended)
    np.clip(blended, 0.0, 1.0, out=patch)


def feather_roi(
    tile: np.ndarray, corrected: np.ndarray, w: WeightField, roi: RectROI
) -> np.ndarray:
    """Blend corrected ROI values back into a copy of the tile.

    Output pixel = I + W * (I_corr - I), i.e. the convex combination
    W*I_corr + (1-W)*I written so W*0 residuals stay bit-exact; the ROI
    result is clamped to [0, 1] before storage.  Pixels outside the ROI
    are returned untouched, and ``tile`` itself is never written.
    """
    out = np.array(tile, dtype=np.float64)
    _blend_into(out, corrected, w, roi)
    return out


def apply_roi_corrections(
    tile: np.ndarray,
    fits: Sequence[tuple[ResponseModel, RectROI, WeightField]],
) -> np.ndarray:
    """Correct and feather each (model, ROI, weights) triple in turn, in place.

    A float64 ``tile`` is overwritten inside its ROIs and returned; any
    other input is converted to a new float64 array first.  Only ROI-sized
    temporaries are made, the same values :func:`feather_roi` gives.
    """
    out = np.asarray(tile, dtype=np.float64)
    for model, roi, weights in fits:
        _blend_into(out, correct_roi(out, model, roi), weights, roi)
    return out
