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
boundary to 1 past a transition band, which hides the ROI outline.

All intensities here are floats in [0, 1]; eps defaults to 1e-6 in
those units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import halves
from .errors import DimensionMismatchError, InvalidReferenceError

EPSILON_DEFAULT = 1e-6
BAND_PX_DEFAULT = 50
# ROI rows that apply_roi_corrections corrects at once.
_BLOCK_ROWS = 64


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

    def invert(self, values: np.ndarray, part=np.s_[:, :], out: np.ndarray | None = None
               ) -> np.ndarray:
        """``values`` with the model inverted: (I - o) / (g + eps), into ``out``
        or a new array.

        ``values`` has the shape of ``gain[part]``, the ROI's own pixels
        by default.
        """
        out = np.subtract(values, self.offset[part], out=out)
        out /= self.gain[part] + self.epsilon
        return out


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
    """Invert the response model over the ROI; returns the ROI-sized result."""
    roi.check_within(np.asarray(tile).shape)
    if model.gain.shape != (roi.height, roi.width):
        raise DimensionMismatchError(
            f"model shape {model.gain.shape} does not match ROI {roi.height}x{roi.width}"
        )
    return model.invert(np.asarray(tile, dtype=np.float64)[roi.slices()])


def linear_weight_field(roi: RectROI, band_px: int = BAND_PX_DEFAULT) -> np.ndarray:
    """ROI-shaped weights that rise linearly from the ROI boundary over ``band_px``.

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
    return np.minimum(dist / float(band_px), 1.0)


def apply_roi_corrections(
    tile: np.ndarray,
    fits: Sequence[tuple[ResponseModel, RectROI, np.ndarray]],
    origin: tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Correct and feather each (model, ROI, weights) triple in turn, in place.

    Inside each ROI the model is inverted and blended back as
    I + W * (I_corr - I), the convex combination W*I_corr + (1-W)*I
    written so W = 0 leaves I bit-exact; W = 1 gives I_corr exactly.
    The result is clamped to [0, 1].  A float64 ``tile`` is overwritten
    inside its ROIs and returned; any other input is converted to a new
    float64 array first.  The fits are taken as built: each model and
    weight array has the ROI's shape.

    ``tile`` may be a window of a frame whose top-left pixel is frame
    pixel ``origin`` (row, col); each ROI, in frame pixels, is then
    corrected where it lies inside the window.  Every step is
    elementwise, so a window comes out bit-equal to the same window of
    the corrected frame.
    """
    out = np.asarray(tile, dtype=np.float64)
    top, left = origin
    bottom, right = top + out.shape[0], left + out.shape[1]
    for model, roi, weights in fits:
        y0, y1 = max(roi.y0, top), min(roi.y1, bottom)
        x0, x1 = max(roi.x0, left), min(roi.x1, right)
        if y0 >= y1 or x0 >= x1:
            continue
        # The ROI's pixels in this window, in row halves when they are many.
        patch = out[y0 - top:y1 - top, x0 - left:x1 - left]
        halves.run(_blend, (patch,), model, weights, (y0 - roi.y0, x0 - roi.x0))
    return out


def _blend(start: int, patch: np.ndarray, model: ResponseModel, weights: np.ndarray,
           origin: tuple[int, int]) -> None:
    """Correct and feather ``patch`` in place: pixels of one ROI, its
    top-left pixel being ROI pixel ``(origin[0] + start, origin[1])``."""
    # Blocks of rows, so that each step's temporaries stay in cache.
    height, width = patch.shape
    shape = (min(_BLOCK_ROWS, height), width)
    corrected, blended = np.empty((2, *shape))
    full = np.empty(shape, dtype=bool)
    cols = slice(origin[1], origin[1] + width)
    for r in range(0, height, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, height - r)
        rows = patch[r:r + n]
        y = origin[0] + start + r
        part_of_roi = (slice(y, y + n), cols)
        c = model.invert(rows, part_of_roi, out=corrected[:n])
        w = weights[part_of_roi]
        b = np.subtract(c, rows, out=blended[:n])
        b *= w
        b += rows
        # Pin the W = 1 endpoint: a + 1*(b - a) can round away from b.
        np.copyto(b, c, where=np.equal(w, 1.0, out=full[:n]))
        b.clip(0.0, 1.0, out=rows)
