"""Global canvas composition from placed tiles.

Each tile is written at its placement's integer pixel offset ``(x, y)``
(rounded in :mod:`~galvomosaic.geometry`), in row-major acquisition
order.  Raw mode overwrites, so later tiles win inside overlaps and the
overwrite boundaries define the seam lines.  Feathered mode weights
each tile by a row ramp times a column ramp, 1 in its interior and
falling linearly to 0 across every tile edge that lies inside an
overlap with a grid neighbor, the ramp spanning that overlap's width;
the canvas accumulates weight*value and finalizes by division by the
weight sums.  For two tiles with complementary ramps the result is exactly
the classic two-image seam feather; corner regions where four tiles
meet fall out of the same normalization.

Composition is a single pass that holds only a row band: the canvas
rows that a later tile can still touch.  A row is finished once it lies
above the smallest ``y`` of every later tile; finished rows are
finalized and handed to a ``sink`` in raster order, so memory grows
with canvas width times band height, not with canvas area.  The band
height follows from the placements (one tile height for an untilted
grid).  Without a sink the finished rows are gathered into the returned
:class:`MosaicCanvas`.

Both modes hold one value band, width x depth, in the dtype of the
tiles: raw composition of uint16 counts keeps a uint16 band (2 B/px)
and hands the sink the counts as they are, every other composition a
float64 band (8 B/px).  Feathered mode keeps no weight band: a weight
sum is a function of the placements and ramps alone, so it is rebuilt
for each block of ``BLOCK_ROWS`` finished rows in one scratch array
(width x 64 x 8 B) just before the division.  Tiles whose overlaps
agree in axis, extent and side share one pair of ramps; each weight
product ``wy * wx`` is formed where it is used, at most ``BLOCK_ROWS``
rows at a time, in a scratch of each worker.  Rows reach the sink in
blocks of at most ``BLOCK_ROWS``.

A tile reaches the band block by block: it is an array, or a
:class:`TileBlocks` that makes each block of rows when it is asked for
it, so a stitch can decode and correct a tile a block at a time and
hold no float64 copy of it.  An array is its own trivial block source.
Adding a tile to the band, and building the weight sums of an emitted
block and dividing by them, are passes of blocks of at most
``BLOCK_ROWS`` rows that the calling thread and the helper thread of
:mod:`~galvomosaic.halves` claim in turn once a pass covers
``halves.SPLIT_MIN`` elements; a smaller tile is one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from . import halves
from .correction import RectROI
from .errors import CompositionError, DimensionMismatchError
from .geometry import TilePlacement


# Canvas rows handled at once by the band: the height of the feathered
# weight scratch, of each feathered add's product, of each block a sink
# gets and of the blocks of a shared pass.
BLOCK_ROWS = halves.BLOCK_ROWS


class Axis(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


# sink(row, rows): ``rows`` are finished canvas rows starting at canvas
# row ``row``, 0 where no tile lies: uint16 counts when uint16 tiles are
# composed raw, float64 intensities otherwise.  The array is a view of
# the band: the sink may overwrite it (e.g. encode it in place), and it
# is zeroed and reused once the call returns, so a sink must consume or
# copy it.
RowSink = Callable[[int, np.ndarray], None]


@dataclass
class MosaicCanvas:
    """Size and coverage of a composed canvas, plus its rows when gathered.

    ``rows`` holds the finished canvas when composition ran without a
    sink, and is ``None`` when the rows went to a sink instead.
    """

    width: int
    height: int
    tile_width: int
    tile_height: int
    boxes: list[tuple[int, int]] = field(repr=False)
    rows: np.ndarray | None = field(default=None, repr=False)

    def covered(self) -> np.ndarray:
        """Boolean mask of pixels any tile contributed to."""
        mask = np.zeros((self.height, self.width), dtype=bool)
        for x, y in self.boxes:
            mask[y:y + self.tile_height, x:x + self.tile_width] = True
        return mask

    def finalize(self) -> np.ndarray:
        """The gathered canvas in the band's dtype, 0 where uncovered."""
        if self.rows is None:
            raise CompositionError("canvas rows went to a sink and were not gathered")
        return self.rows.copy()


@dataclass(frozen=True)
class OverlapRegion:
    """Intersection of two grid-adjacent tiles' pixel boxes."""

    tile_a: tuple[int, int]
    tile_b: tuple[int, int]
    rect: RectROI
    axis: Axis


@dataclass(frozen=True)
class SeamLine:
    """Raw-mode overwrite boundary, derived purely from placement geometry.

    A vertical seam at ``position`` x separates pixel columns x-1 and x
    over rows ``start <= y < stop``; a horizontal seam is the transpose.
    """

    orientation: Axis
    position: int
    start: int
    stop: int


def canvas_dims(
    placements: Sequence[TilePlacement], tile_width: int, tile_height: int
) -> tuple[int, int]:
    """Canvas size enclosing every tile's pixel box."""
    if not placements:
        raise CompositionError("cannot size a canvas from zero placements")
    xs = [p.x for p in placements]
    ys = [p.y for p in placements]
    if min(xs) < 0 or min(ys) < 0:
        raise CompositionError(
            "placements must be origin-shifted (negative offsets found)"
        )
    return max(xs) + tile_width, max(ys) + tile_height


def _by_index(placements: Sequence[TilePlacement]) -> dict[tuple[int, int], TilePlacement]:
    table = {(p.row, p.col): p for p in placements}
    if len(table) != len(placements):
        raise CompositionError("duplicate (row, col) placement indices")
    return table


def _box_intersection(
    pa: TilePlacement, pb: TilePlacement, tile_width: int, tile_height: int
) -> RectROI | None:
    x0 = max(pa.x, pb.x)
    y0 = max(pa.y, pb.y)
    x1 = min(pa.x, pb.x) + tile_width
    y1 = min(pa.y, pb.y) + tile_height
    if x1 <= x0 or y1 <= y0:
        return None
    return RectROI(x0=x0, y0=y0, width=x1 - x0, height=y1 - y0)


def compute_overlaps(
    placements: Sequence[TilePlacement], tile_width: int, tile_height: int
) -> list[OverlapRegion]:
    """Overlap regions for every grid-adjacent pair whose boxes intersect.

    ``axis`` is the adjacency direction: HORIZONTAL for (i,j)-(i,j+1)
    pairs (the seam between them runs vertically), VERTICAL for
    (i,j)-(i+1,j) pairs.
    """
    table = _by_index(placements)
    overlaps: list[OverlapRegion] = []
    for p in placements:
        for axis, (di, dj) in ((Axis.HORIZONTAL, (0, 1)), (Axis.VERTICAL, (1, 0))):
            later = table.get((p.row + di, p.col + dj))
            rect = None if later is None else _box_intersection(p, later, tile_width, tile_height)
            if rect is not None:
                overlaps.append(OverlapRegion(
                    tile_a=(p.row, p.col), tile_b=(later.row, later.col), rect=rect, axis=axis
                ))
    return overlaps


def overlaps_by_tile(
    overlaps: Sequence[OverlapRegion],
) -> dict[tuple[int, int], list[int]]:
    """Indices into ``overlaps`` of the (at most four) overlaps of each tile."""
    by_tile: dict[tuple[int, int], list[int]] = {}
    for k, ov in enumerate(overlaps):
        by_tile.setdefault(ov.tile_a, []).append(k)
        by_tile.setdefault(ov.tile_b, []).append(k)
    return by_tile


def _edge_ramp(length: int, ramp_px: int, from_start: bool) -> np.ndarray:
    """Multiplicative 1D ramp over one tile axis.

    Depth d from the ramped edge gets (d + 0.5)/ramp_px, the pixel-center
    sampling of a line that is 0 at the tile's outer boundary and 1 where
    the overlap ends; complementary ramps from the two tiles then sum to
    1 at every overlap pixel.
    """
    ramp = np.ones(length, dtype=np.float64)
    d = np.arange(min(ramp_px, length), dtype=np.float64)
    values = (d + 0.5) / float(ramp_px)
    if from_start:
        ramp[: values.size] *= values
    else:
        ramp[length - values.size:] *= values[::-1]
    return ramp


def tile_weight_map(
    index: tuple[int, int],
    tile_width: int,
    tile_height: int,
    overlaps: Sequence[OverlapRegion],
) -> tuple[np.ndarray, np.ndarray]:
    """Separable feathering weights ``(wy, wx)`` of one tile: pixel (r, c)
    weighs ``wy[r] * wx[c]``.  Overlaps of other tiles are ignored."""
    wx = np.ones(tile_width, dtype=np.float64)
    wy = np.ones(tile_height, dtype=np.float64)
    for ov in overlaps:
        if index not in (ov.tile_a, ov.tile_b):
            continue
        # The pair's later tile ramps its left or top edge, the earlier
        # tile its right or bottom edge.
        later = index == ov.tile_b
        if ov.axis is Axis.HORIZONTAL:
            wx *= _edge_ramp(tile_width, ov.rect.width, from_start=later)
        else:
            wy *= _edge_ramp(tile_height, ov.rect.height, from_start=later)
    return wy, wx


class TileBlocks:
    """A tile handed to composition block by block.

    ``shape`` is its (height, width) and ``dtype`` the dtype of its rows.
    ``block(worker, lo, hi)`` returns its rows ``lo..hi``, an array the
    band reads before the same ``worker`` asks for another block.  The
    band asks for disjoint blocks from the calling thread (worker 0) and
    the helper (worker 1) of :mod:`~galvomosaic.halves`, in no fixed
    order, so a source may fill scratch of each worker, and may do more
    work per block than produce it (stitch decodes and corrects there).
    """

    def __init__(self, shape: tuple[int, int], dtype: np.dtype):
        self.shape = shape
        self.dtype = np.dtype(dtype)

    def block(self, worker: int, lo: int, hi: int) -> np.ndarray:
        raise NotImplementedError


class _ArrayBlocks(TileBlocks):
    """A tile array as its own block source, converted block by block."""

    def __init__(self, tile: np.ndarray, dtype: np.dtype):
        super().__init__(tile.shape, dtype)
        self.tile = tile

    def block(self, worker: int, lo: int, hi: int) -> np.ndarray:
        return np.asarray(self.tile[lo:hi], dtype=self.dtype)


def _next_tile(it, k: int, n: int, raw: bool) -> TileBlocks:
    """The next tile as a block source: as it is if it is one; else an
    array whose blocks keep uint16 counts (of either byte order) when
    composed raw, and are float64 otherwise."""
    try:
        tile = next(it)
    except StopIteration:
        raise CompositionError(f"{k} tiles supplied for {n} placements") from None
    if isinstance(tile, TileBlocks):
        return tile
    tile = np.asarray(tile)
    counts = raw and tile.dtype.kind == "u" and tile.dtype.itemsize == 2
    return _ArrayBlocks(tile, tile.dtype if counts else np.dtype(np.float64))


def _check_tile_shape(tile: TileBlocks, tile_width: int, tile_height: int) -> None:
    if tile.shape != (tile_height, tile_width):
        raise DimensionMismatchError(
            f"tile shape {tile.shape} does not match {tile_height}x{tile_width}"
        )


def _band_schedule(
    ys: Sequence[int], tile_height: int, height: int
) -> tuple[list[int], int]:
    """Rows finished after each tile, and the band depth.

    A row is finished once it lies above the smallest ``y`` of every
    later tile.  The depth is the widest span, over the pass, from the
    first unfinished row to the lowest row touched so far.
    """
    finished = [height] * len(ys)
    for k in range(len(ys) - 2, -1, -1):
        finished[k] = min(finished[k + 1], ys[k + 1])
    done, reach, depth = 0, 0, 1
    for y, stop in zip(ys, finished):
        reach = max(reach, y + tile_height)
        depth = max(depth, reach - done)
        done = stop
    return finished, depth


class _RowBand:
    """Accumulators for the canvas rows that tiles can still touch.

    A ring of ``depth`` buffer rows: canvas row r lives in buffer row
    r % depth.  Rows above ``done`` have been emitted and their buffer
    rows zeroed for reuse.  Both modes keep values only, in the band's
    dtype.  Feathered mode also keeps the placement and ramps of each
    ``live`` tile, one whose rows are not all emitted yet, and rebuilds
    the weight sums of each block of rows it emits from them.  Its
    scratch is made once: the weight sums and their mask for one emitted
    block, and for each worker one weight product of at most
    ``BLOCK_ROWS`` tile rows.
    """

    def __init__(self, width: int, depth: int, feathered: bool, dtype: np.dtype,
                 tile_width: int, tile_height: int):
        self.depth = depth
        self.value = np.zeros((depth, width), dtype=dtype)
        self.weight = self.mask = None
        if feathered:
            self.weight = np.empty((min(BLOCK_ROWS, depth), width))
            self.mask = np.empty(self.weight.shape, dtype=bool)
        # Made by each worker at its first product, and touched by its thread only.
        self.products: list[np.ndarray | None] = [None, None]
        self.product_shape = (min(BLOCK_ROWS, tile_height), tile_width)
        self.live: list[tuple[int, int, tuple[np.ndarray, np.ndarray]]] = []
        self.done = 0

    def _runs(self, start: int, stop: int, limit: int):
        """(canvas row, buffer slice) runs of at most ``limit`` rows
        covering canvas rows start..stop-1."""
        while start < stop:
            offset = start % self.depth
            n = min(stop - start, self.depth - offset, limit)
            yield start, slice(offset, offset + n)
            start += n

    def _product(self, worker: int, wy: np.ndarray, wx: np.ndarray) -> np.ndarray:
        """``wy[:, None] * wx`` in the product scratch of ``worker``; ``wx``
        spans the tile's width."""
        if self.products[worker] is None:
            self.products[worker] = np.empty(self.product_shape)
        return np.multiply(wy[:, None], wx, out=self.products[worker][:len(wy)])

    def add(self, tile: TileBlocks, weights: tuple[np.ndarray, np.ndarray] | None,
            x: int, y: int) -> None:
        """Overwrite with ``tile`` at (x, y), or accumulate it with weights
        ``(wy, wx)``, block by block (:func:`galvomosaic.halves.blocks`).
        The blocks of a tile touch disjoint buffer rows, since the band is
        at least a tile deep."""
        height, width = tile.shape
        halves.blocks(self._place, height, height * width, tile, x, y, weights)
        if weights is not None:
            self.live.append((x, y, weights))

    def _place(self, worker: int, lo: int, hi: int, tile: TileBlocks, x: int, y: int,
               weights: tuple[np.ndarray, np.ndarray] | None) -> None:
        """:meth:`add` for the tile's rows ``lo..hi``."""
        rows = tile.block(worker, lo, hi)
        cols = slice(x, x + rows.shape[1])
        top = y + lo
        if weights is None:
            for row, buf in self._runs(top, y + hi, self.depth):
                self.value[buf, cols] = rows[row - top:row - top + buf.stop - buf.start]
            return
        wy, wx = weights
        for row, buf in self._runs(top, y + hi, BLOCK_ROWS):
            r = row - y
            # Left to right: wy * wx is formed before it scales the tile,
            # the rounding of a whole-canvas weight array.
            product = self._product(worker, wy[r:r + buf.stop - buf.start], wx)
            product *= rows[r - lo:r - lo + len(product)]
            self.value[buf, cols] += product

    def _normalize(self, worker: int, lo: int, hi: int, value: np.ndarray, row: int) -> None:
        """Divide rows ``lo..hi`` of ``value``, the band rows of canvas rows
        from ``row`` on, by their weight sums, built in the same rows of
        the weight scratch.

        Every live tile adds ``wy * wx`` over its rows among them, in
        placement order: the same additions, in the same order, as a
        whole-canvas weight array built tile by tile.
        """
        start, stop = row + lo, row + hi
        weight = self.weight[lo:hi]
        weight[...] = 0.0
        for x, y, (wy, wx) in self.live:
            end = y + wy.size
            a = start if start > y else y
            b = stop if stop < end else end
            if a < b:
                weight[a - start:b - start, x:x + wx.size] += self._product(
                    worker, wy[a - y:b - y], wx)
        # In place: value is 0 wherever weight is, since every tile pixel
        # carries a weight > 0.
        np.divide(value[lo:hi], weight, out=value[lo:hi],
                  where=np.greater(weight, 0.0, out=self.mask[lo:hi]))

    def emit(self, stop: int, sink: RowSink) -> None:
        """Finalize canvas rows done..stop-1 and pass them to ``sink`` in order."""
        for row, buf in self._runs(self.done, stop, BLOCK_ROWS):
            value = self.value[buf]
            if self.weight is not None:
                halves.blocks(self._normalize, len(value), value.size, value, row)
            sink(row, value)
            value[...] = 0.0
        if stop > self.done:
            self.done = stop
            self.live = [t for t in self.live if t[1] + t[2][0].size > stop]


def _compose(
    tiles: Iterable[np.ndarray | TileBlocks],
    placements: Sequence[TilePlacement],
    tile_width: int,
    tile_height: int,
    weight_map: Callable[[TilePlacement], tuple[np.ndarray, np.ndarray]] | None,
    sink: RowSink | None,
) -> MosaicCanvas:
    width, height = canvas_dims(placements, tile_width, tile_height)
    finished, depth = _band_schedule([p.y for p in placements], tile_height, height)
    canvas = MosaicCanvas(width, height, tile_width, tile_height, [(p.x, p.y) for p in placements])
    raw = weight_map is None
    band = None
    it = iter(tiles)
    for k, (p, stop) in enumerate(zip(placements, finished)):
        tile = _next_tile(it, k, len(placements), raw)
        _check_tile_shape(tile, tile_width, tile_height)
        if band is None:
            # The first tile sets the band's dtype.
            band = _RowBand(width, depth, not raw, tile.dtype, tile_width, tile_height)
            if sink is None:
                gathered = canvas.rows = np.empty((height, width), dtype=tile.dtype)

                def sink(row: int, rows: np.ndarray) -> None:
                    gathered[row:row + rows.shape[0]] = rows
        elif tile.dtype != band.value.dtype:
            raise CompositionError(
                f"tile {k} holds {tile.dtype}, the band {band.value.dtype} of the first tile"
            )
        band.add(tile, None if raw else weight_map(p), p.x, p.y)
        band.emit(stop, sink)
        # Hold no tile while the next one is made.
        del tile
    if next(it, None) is not None:
        raise CompositionError(f"more tiles supplied than {len(placements)} placements")
    return canvas


def compose_raw(
    tiles: Iterable[np.ndarray | TileBlocks],
    placements: Sequence[TilePlacement],
    tile_width: int,
    tile_height: int,
    *,
    sink: RowSink | None = None,
) -> MosaicCanvas:
    """Overwrite composition in row-major acquisition order.

    Tiles, arrays or :class:`TileBlocks`, are consumed one at a time.
    With ``sink``, finished rows go to it in raster order, on the calling
    thread, in blocks it may overwrite (they are zeroed and reused after
    the call); without, they are gathered for ``finalize()``.  uint16
    tiles, native or big-endian, are placed as counts in a band of their
    dtype (canvas width x band depth x 2 B) and reach the sink as such
    rows; array tiles of any other dtype are converted to float64, block
    by block, and take a float64 band (x 8 B).  All tiles must give the
    first tile's band dtype.
    """
    return _compose(tiles, placements, tile_width, tile_height, None, sink)


def compose_feathered(
    tiles: Iterable[np.ndarray | TileBlocks],
    placements: Sequence[TilePlacement],
    overlaps: Sequence[OverlapRegion],
    tile_width: int,
    tile_height: int,
    *,
    sink: RowSink | None = None,
) -> MosaicCanvas:
    """Weighted composition with linear ramps across overlapped edges.

    Every pixel of every tile must carry positive weight, so every
    touched canvas pixel is covered.  ``tiles`` and ``sink`` work as in
    :func:`compose_raw`, with every tile taken as float64.  The rows in
    flight take one float64 value band (canvas width x band depth x 8 B)
    plus one weight block (canvas width x ``BLOCK_ROWS`` x 9 B, with its
    mask) and, for each worker, a product of at most ``BLOCK_ROWS`` rows
    of a tile.
    """
    by_tile = overlaps_by_tile(overlaps)

    # The ramps follow from the axis, extent and side of each own overlap,
    # so tiles alike in those share one checked (wy, wx).
    shared: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def weight_map(placement: TilePlacement) -> tuple[np.ndarray, np.ndarray]:
        index = (placement.row, placement.col)
        own = [overlaps[k] for k in by_tile.get(index, ())]
        key = tuple(
            (ov.rect.width, True, index == ov.tile_b) if ov.axis is Axis.HORIZONTAL
            else (ov.rect.height, False, index == ov.tile_b)
            for ov in own
        )
        if key not in shared:
            wy, wx = tile_weight_map(index, tile_width, tile_height, own)
            if not ((wy > 0.0).all() and (wx > 0.0).all()):
                raise CompositionError(f"tile {index} has pixels of zero weight")
            shared[key] = wy, wx
        return shared[key]

    return _compose(tiles, placements, tile_width, tile_height, weight_map, sink)


def derive_seams(
    placements: Sequence[TilePlacement], overlaps: Sequence[OverlapRegion]
) -> list[SeamLine]:
    """Raw-mode overwrite boundaries, one per overlapping adjacent pair.

    ``overlaps`` are the placements' :func:`compute_overlaps`.  For a
    horizontal pair the later (right) tile's left edge is the boundary,
    giving a vertical seam clipped to the overlap's row range; vertical
    pairs give horizontal seams at the later tile's top edge.
    """
    table = _by_index(placements)
    seams: list[SeamLine] = []
    for ov in overlaps:
        later = table[ov.tile_b]
        if ov.axis is Axis.HORIZONTAL:
            if ov.rect.x0 <= later.x < ov.rect.x1:
                seams.append(
                    SeamLine(
                        orientation=Axis.VERTICAL,
                        position=later.x,
                        start=ov.rect.y0,
                        stop=ov.rect.y1,
                    )
                )
        else:
            if ov.rect.y0 <= later.y < ov.rect.y1:
                seams.append(
                    SeamLine(
                        orientation=Axis.HORIZONTAL,
                        position=later.y,
                        start=ov.rect.x0,
                        stop=ov.rect.x1,
                    )
                )
    return seams
