"""Mosaicking-consistency and image-quality metrics.

Consistency is the mean absolute error between neighboring tiles over
their overlap after a least-squares affine brightness normalization
I_j ~ a*I_i + b, which discounts global gain/offset differences.
Quality metrics run on the finalized canvas: contrast-to-noise ratio
|mu_sig - mu_bg| / sigma_bg, per-region intensity standard deviation,
and the mean absolute intensity difference between the pixel pairs
straddling each geometric seam line.

The canvas of a quality metric is a 2D array or any object with a
``shape`` whose indexing returns the indexed block as an array, such as
:class:`~galvomosaic.pgm.UnitView` over a memory-mapped mosaic.  The
metrics index only the pixels of each region and the two pixel lines of
each seam, and convert only those to float64, a region in reads of at
most ``halves.LEAF`` values (:class:`_Region`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from . import halves
from .compose import Axis, SeamLine
from .correction import RectROI
from .errors import (
    DegenerateFitError,
    DimensionMismatchError,
    IndexRangeError,
    NoOverlapError,
    UndefinedCnrError,
)
from .records import INLINE, dumps_indented, fields_dict

# Canvas rows per read of the vertical seam lines.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class AffineFit:
    """Least-squares brightness map I_j ~ a*I_i + b."""

    a: float
    b: float


class RegionKind(Enum):
    SIGNAL = "signal"
    BRIGHT_BACKGROUND = "bright_background"
    DARK_BACKGROUND = "dark_background"


@dataclass(frozen=True)
class RegionSpec:
    """Named measurement rectangle in global mosaic coordinates."""

    name: str
    rect: RectROI = field(metadata=INLINE)
    kind: RegionKind


@dataclass
class MetricsReport:
    """All Table-style metrics for one mosaic."""

    mae_per_overlap: list[tuple[str, float]]
    mae_mean: float
    cnr: float
    bright_std: float
    dark_std: float
    mean_seam_jump: float

    def to_json(self) -> str:
        # JSON has no NaN literal; a degenerate metric (v != v) is written as null.
        payload = {k: None if v != v else v for k, v in fields_dict(self).items()}
        return dumps_indented(payload) + "\n"

    def to_text(self) -> str:
        lines = [f"{k} = {v!r}" for k, v in fields_dict(self).items() if k != "mae_per_overlap"]
        lines += [f"mae_per_overlap[{pair}] = {value!r}" for pair, value in self.mae_per_overlap]
        return "\n".join(lines) + "\n"


class MaeWorkspace:
    """Float64 buffers that :func:`normalized_mae` reuses for every
    overlap of at most ``size`` samples.

    :meth:`samples` hands out the two sample arrays of one overlap, the
    two rows of one array, to be filled in place.

    The fit and the residuals take at most ``halves.LEAF`` samples at a
    time, into :meth:`scratch`: one for each worker of a shared sum, one
    if no sum is shared.  A scratch holds at least ``scratch`` elements;
    with ``scratch > 0`` there is one for each worker, and a caller may
    use them for work of its own between MAEs.  A stitch makes one
    workspace for its largest overlap, so no overlap faults in fresh
    pages for its temporaries, and decodes the blocks of its tiles into
    the scratch that the sums leave free meanwhile.
    """

    def __init__(self, size: int, scratch: int = 0):
        self._rows = np.empty((2, size))
        workers = 2 if size > halves.LEAF or scratch else 1
        self._leaf = np.empty((workers, max(2 * min(size, halves.LEAF), scratch)))
        # The last samples handed out, and the rows that hold them.
        self._handed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def scratch(self) -> np.ndarray:
        """The float64 scratch of each worker, one row each, free between
        calls of :func:`normalized_mae`."""
        return self._leaf

    def samples(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Two contiguous float64 arrays of ``shape``, for samples i and j."""
        rows = self._rows[:, :shape[0] * shape[1]]
        x, y = rows[0].reshape(shape), rows[1].reshape(shape)
        self._handed = x, y, rows
        return x, y

    def _pair(self, samples_i, samples_j) -> np.ndarray:
        """Both samples, flattened, as the rows of one ``(2, n)`` array: where
        they lie if they are the last :meth:`samples`, else copied there."""
        if self._handed is not None:
            x, y, rows = self._handed
            if samples_i is x and samples_j is y:
                return rows
        x, y = _flat_samples(samples_i, samples_j)
        if np.may_share_memory(self._rows, x) or np.may_share_memory(self._rows, y):
            x, y = x.copy(), y.copy()
        pair = self._rows[:, :x.size]
        pair[0], pair[1] = x, y
        return pair


def _sums(worker: int, pair: np.ndarray) -> np.ndarray:
    return np.add.reduce(pair, axis=1, keepdims=True)


def _moments(worker: int, pair: np.ndarray, means: np.ndarray, leaf: np.ndarray) -> np.ndarray:
    """Σdx² and Σdx·dy over the columns of ``pair``, for dx and dy its
    rows less the column ``means``, formed in the scratch of ``worker``."""
    d = leaf[worker, :2 * pair.shape[1]].reshape(2, -1)
    np.subtract(pair, means, out=d)
    # Rows by index: unpacking iterates the array, which costs more than
    # a ufunc over a small overlap.
    dx, dy = d[0], d[1]
    np.multiply(dy, dx, out=dy)
    np.multiply(dx, dx, out=dx)
    return np.add.reduce(d, axis=1)


def _absolute_residuals(worker: int, pair: np.ndarray, a: float, b: float,
                        leaf: np.ndarray) -> np.float64:
    """Σ|y - (a*x + b)| over the columns (x, y) of ``pair``."""
    x, y = pair[0], pair[1]
    residual = leaf[worker, :pair.shape[1]]
    np.multiply(x, a, out=residual)
    residual += b
    np.subtract(y, residual, out=residual)
    np.abs(residual, out=residual)
    return np.add.reduce(residual)


def _flat_samples(samples_i, samples_j) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as 1D float64 arrays; contiguous float64 input is not copied."""
    x = np.asarray(samples_i, dtype=np.float64).ravel()
    y = np.asarray(samples_j, dtype=np.float64).ravel()
    if x.size != y.size:
        raise DimensionMismatchError(
            f"sample lengths differ: {x.size} vs {y.size}"
        )
    return x, y


def _fit(pair: np.ndarray, leaf: np.ndarray) -> tuple[AffineFit, bool]:
    """Closed-form OLS of ``pair[1]`` against ``pair[0]``, and False; where
    the slope is undefined (fewer than 2 samples, or constant ``pair[0]``),
    a = 1 with b = mean(pair[1]) - mean(pair[0]), and True.

    The means are ``np.mean``'s: each row's pairwise sum over its length.
    Σdx² and Σdx·dy are ``np.add.reduce`` of the products, formed leaf by
    leaf in ``leaf``.  The leaves of a large sum are shared by two threads
    (:func:`galvomosaic.halves.sums`).
    """
    n = pair.shape[1]
    # The column of sums becomes the column of means in place: a Python
    # float division has np.mean's bits and costs no ufunc call.
    means = halves.sums(_sums, pair)
    (x_sum,), (y_sum,) = means.tolist()
    x_mean, y_mean = x_sum / n, y_sum / n
    means[0, 0], means[1, 0] = x_mean, y_mean
    if n >= 2:
        sxx, sxy = halves.sums(_moments, pair, means, leaf).tolist()
        if sxx != 0.0:
            a = sxy / sxx
            return AffineFit(a=a, b=y_mean - a * x_mean), False
    return AffineFit(a=1.0, b=y_mean - x_mean), True


def fit_affine(samples_i: np.ndarray, samples_j: np.ndarray) -> AffineFit:
    """Closed-form OLS of samples_j against samples_i, in a new workspace
    sized to the samples."""
    work = MaeWorkspace(np.size(samples_i))
    pair = work._pair(samples_i, samples_j)
    if pair.shape[1] < 2:
        raise DegenerateFitError(f"need at least 2 sample pairs, got {pair.shape[1]}")
    fit, degenerate = _fit(pair, work._leaf)
    if degenerate:
        raise DegenerateFitError("predictor samples are constant; slope undefined")
    return fit


def normalized_mae(
    samples_i: np.ndarray, samples_j: np.ndarray, work: MaeWorkspace | None = None
) -> tuple[float, AffineFit, bool]:
    """Affine-normalized MAE plus the fit used and a degeneracy flag.

    Constant predictor samples make the slope undefined; the fallback is
    a = 1 with b = mean(I_j) - mean(I_i) and the flag set.  Samples of
    any shape are flattened in row-major order; those filled into
    ``work.samples`` are used where they lie, others are copied into
    ``work``.  The temporaries go to ``work``, or to a new workspace
    sized to the samples.
    """
    work = work or MaeWorkspace(np.size(samples_i))
    pair = work._pair(samples_i, samples_j)
    n = pair.shape[1]
    if n == 0:
        raise NoOverlapError("empty overlap sample")
    fit, degenerate = _fit(pair, work._leaf)
    # The mean absolute residual, as np.mean of the residuals.
    mae = halves.sums(_absolute_residuals, pair, fit.a, fit.b, work._leaf) / n
    return float(mae), fit, degenerate


def overlap_mae(samples_i: np.ndarray, samples_j: np.ndarray) -> float:
    """Mean absolute residual over an overlap after affine normalization."""
    mae, _, _ = normalized_mae(samples_i, samples_j)
    return mae


class _Region:
    """A region of a canvas: the ``mean``, ``low``, ``high`` and :meth:`std`
    numpy gives its view on the whole float canvas, bit for bit, summed
    from reads of at most ``halves.LEAF`` values.

    numpy sums a view that is one evenly spaced run (as wide as the
    canvas, one row or one column) by one pairwise sum.  Other views go
    through its reduction buffer: rows in groups of
    ``max(1, np.getbufsize() // w)``, each group one pairwise sum, the
    group sums added in order to 0.0.  The squared deviations of ``std``
    are a new contiguous array: one pairwise sum.
    """

    def __init__(self, canvas, region: RegionSpec):
        try:
            region.rect.check_within(canvas.shape)
        except DimensionMismatchError as exc:
            raise DimensionMismatchError(
                f"region {region.name!r} lies outside the mosaic: {exc}"
            ) from None
        self._canvas = canvas
        self._rect = rect = region.rect
        self.size = rect.height * rect.width
        self._scratch = np.empty(min(self.size, halves.LEAF))
        self.low, self.high = math.inf, -math.inf
        if rect.width in (1, canvas.shape[1]) or rect.height == 1:
            group = self.size
        else:
            group = max(1, np.getbufsize() // rect.width) * rect.width
        total = 0.0
        for start in range(0, self.size, group):
            n = min(group, self.size - start)
            total += halves.pairwise(n, lambda bounds: self._sums(start, bounds))
        self.mean = total / self.size

    def _values(self, lo: int, hi: int) -> np.ndarray:
        """Values ``lo..hi`` of the region in row-major order, in the scratch:
        the end of a row, whole rows and the start of a row, one read each."""
        rect, w = self._rect, self._rect.width
        out = self._scratch[:hi - lo]
        at = lo
        while at < hi:
            row, col = divmod(at, w)
            y, rest = rect.y0 + row, out[at - lo:]
            if col == 0 and hi - at >= w:
                rows = (hi - at) // w
                rest[:rows * w].reshape(rows, w)[...] = self._canvas[y:y + rows, rect.x0:rect.x1]
                at += rows * w
            else:
                n = min(w - col, hi - at)
                rest[:n] = self._canvas[y, rect.x0 + col:rect.x0 + col + n]
                at += n
        return out

    def _sums(self, start: int, bounds: list[tuple[int, int]], mean: float | None = None):
        """For each leaf ``(lo, hi)``, the sum of values ``start + lo..start + hi``,
        keeping ``low`` and ``high``, or of their squared deviations from ``mean``."""
        for lo, hi in bounds:
            values = self._values(start + lo, start + hi)
            if mean is None:
                self.low = min(self.low, values.min())
                self.high = max(self.high, values.max())
            else:
                values -= mean
                values *= values
            yield np.add.reduce(values)

    def std(self) -> float:
        """The population standard deviation, as numpy's ``std``."""
        # Mean rounding leaves ~1e-17 residuals on constant input; force the
        # exact zero so degenerate backgrounds are detected reliably.
        if self.high == self.low:
            return 0.0
        squares = halves.pairwise(self.size, lambda bounds: self._sums(0, bounds, self.mean))
        return math.sqrt(squares / self.size)


def cnr(canvas, signal: RegionSpec, background: RegionSpec) -> float:
    """Contrast-to-noise ratio |mu_sig - mu_bg| / sigma_bg."""
    sig = _Region(canvas, signal)
    bg = _Region(canvas, background)
    sigma_bg = bg.std()
    if sigma_bg == 0.0:
        raise UndefinedCnrError("background standard deviation is zero")
    return float(abs(sig.mean - bg.mean)) / sigma_bg


def region_std(canvas, region: RegionSpec) -> float:
    """Population standard deviation of intensities inside a region."""
    stats = _Region(canvas, region)
    if stats.size < 2:
        raise DimensionMismatchError(
            f"region {region.name} has {stats.size} pixels; need at least 2"
        )
    return stats.std()


def mean_seam_jump(canvas, seams: Sequence[SeamLine]) -> float:
    """Mean |intensity difference| across all seam-straddling pixel pairs.

    A vertical seam at x contributes the pairs (x-1, y), (x, y) for every
    row y in its extent; horizontal seams are the transpose.  The mean is
    over all pairs of all seams pooled together.  Each seam line is read
    once: seams sharing an orientation and position take their slices
    of one difference array spanning all their extents.  Vertical lines
    are read in blocks of ``_BLOCK_ROWS`` rows, so a memory-mapped
    canvas is never touched over more than one block at a time.
    """
    if not seams:
        raise NoOverlapError("no seams to measure")
    height, width = canvas.shape
    lines: dict[tuple[Axis, int], tuple[int, int]] = {}
    for seam in seams:
        if seam.stop <= seam.start:
            raise IndexRangeError(f"seam extent empty: {seam}")
        if seam.orientation is Axis.VERTICAL:
            if not 1 <= seam.position < width:
                raise IndexRangeError(f"vertical seam at x={seam.position} outside canvas width {width}")
            if seam.start < 0 or seam.stop > height:
                raise IndexRangeError(f"seam extent outside canvas height {height}: {seam}")
        else:
            if not 1 <= seam.position < height:
                raise IndexRangeError(f"horizontal seam at y={seam.position} outside canvas height {height}")
            if seam.start < 0 or seam.stop > width:
                raise IndexRangeError(f"seam extent outside canvas width {width}: {seam}")
        key = (seam.orientation, seam.position)
        start, stop = lines.get(key, (seam.start, seam.stop))
        lines[key] = (min(start, seam.start), max(stop, seam.stop))

    diffs: dict[tuple[Axis, int], np.ndarray] = {}
    vertical: list[tuple[int, int, int]] = []
    for (orientation, position), (start, stop) in lines.items():
        if orientation is Axis.VERTICAL:
            diffs[orientation, position] = np.empty(stop - start)
            vertical.append((position, start, stop))
        else:
            pair = np.asarray(canvas[position - 1:position + 1, start:stop], dtype=np.float64)
            diffs[orientation, position] = np.abs(pair[1] - pair[0])
    # Vertical lines are read together, one block of rows at a time: one
    # index per block takes the column pair of every line crossing it.
    for top in range(0, height, _BLOCK_ROWS):
        bottom = min(top + _BLOCK_ROWS, height)
        crossing = [line for line in vertical if line[1] < bottom and line[2] > top]
        if not crossing:
            continue
        cols = [c for position, _, _ in crossing for c in (position - 1, position)]
        block = np.asarray(canvas[top:bottom, np.array(cols)], dtype=np.float64)
        for k, (position, start, stop) in enumerate(crossing):
            lo, hi = max(start, top), min(stop, bottom)
            pair = block[lo - top:hi - top, 2 * k:2 * k + 2]
            out = diffs[Axis.VERTICAL, position][lo - start:hi - start]
            np.abs(pair[:, 1] - pair[:, 0], out=out)

    total = 0.0
    count = 0
    for seam in seams:
        start = lines[seam.orientation, seam.position][0]
        part = diffs[seam.orientation, seam.position][seam.start - start:seam.stop - start]
        total += float(part.sum())
        count += part.size
    return total / count
