"""Work for two cores: items claimed in turn by the calling thread and
one helper thread.

Stitch and simulate are array work that a second core can share.
:func:`each` is the one way they share it: it runs ``fn(worker, k)`` for
every item ``k`` of a pass, and when the pass covers at least
``SPLIT_MIN`` elements (1 MiB of float64) the calling thread (worker 0)
and the helper (worker 1) each claim the next unclaimed item and finish
it whole, until none is left.  A core taken by other work so stalls one
item, not the pass.  A smaller pass runs on the calling thread, in
order, as worker 0.  ``worker`` lets an item use scratch of its own
thread.  The helper is a one-worker thread pool, made by the first pass
that uses it, that then serves the process.

The items are of three kinds:

- a file of simulate's dataset;
- a block of rows of an elementwise pass (:func:`blocks`): at most
  ``BLOCK_ROWS`` rows, and at most half of the pass's rows, so that both
  threads get one.  A pass under ``SPLIT_MIN`` elements is one block, so
  a small frame costs one call;
- a leaf of a sum (:func:`sums`).

Sharing changes no bit of any result:

- An elementwise step gives the same value for each element however the
  rows are divided.
- numpy's pairwise summation (``np.add.reduce``) of a contiguous float64
  row of ``n > 128`` elements splits it at ``n // 2`` rounded down to a
  multiple of 8, and each part again the same way.  :func:`pairwise`
  follows these nodes down to leaves of at most ``LEAF`` elements: each
  leaf is reduced by one call, over temporaries no larger than the leaf,
  and the leaves' sums are added at the nodes in leaf order, whichever
  thread made them, so a sum is ``np.add.reduce`` of the whole row, bit
  for bit.  :func:`sums` shares the leaves of a row it holds.
- An item is made whole by one thread; only the order in which items
  finish varies.

Work on the helper thread calls numpy and the package's private helpers
only (and ``pgm.scale_to_counts`` and ``open``).  A public function
there could be wrapped by a caller's tracer, which keeps one span stack
for the main thread.  If either thread raises, neither claims another
item, and the error is raised once neither runs an item of that pass, so
no block still writes to an array when its caller unwinds.  Each pass
waits on its own future, so a pass whose wait was interrupted leaves
nothing that a later pass could mistake for its own result, and its
helper claims no further item.  A caller that finds the helper busy
(another thread's pass, or a pass started from inside an item) does all
the items itself, as worker 0.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# Elements a pass must cover to be shared with the helper; more than 128
# (see _cut).
SPLIT_MIN = 1 << 17
# Most elements :func:`sums` reduces in one call: a few float64 rows of a
# leaf stay in a 2 MB L2 cache.  More than 128 (see _cut).
LEAF = 1 << 16
# Most rows in a block of a shared elementwise pass.
BLOCK_ROWS = 64

T = TypeVar("T")

# Held by the caller whose shared pass is in flight.
_busy = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def _cut(n: int) -> int:
    """Where numpy's pairwise sum of ``n > 128`` elements splits them."""
    half = n // 2
    return half - half % 8


def _both(here: Callable[[], T], there: Callable[[], T]) -> tuple[T, T]:
    """``(here(), there())``, ``there`` run on the helper thread.

    The caller holds ``_busy``.
    """
    global _pool
    if _pool is None:
        # Imported here: concurrent.futures loads logging, a cost that a
        # command which shares no work (evaluate, small frames) need not pay.
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="galvomosaic-halves")
    future = _pool.submit(there)
    try:
        first = here()
    finally:
        future.exception()  # returns once the helper's claims have ended
    return first, future.result()


def each(fn: Callable[[int, int], object], n: int, size: int) -> None:
    """``fn(worker, 0)``, ..., ``fn(worker, n - 1)``, each called once, for a
    pass of ``n`` items that cover ``size`` elements as the caller counts
    them (a frame for simulate, the rows of a block pass, a sum's row).

    Below ``SPLIT_MIN`` elements, or for one item, the calling thread
    calls them in order, as worker 0.  From it on, the calling thread
    (worker 0) and the helper (worker 1) each claim the next unclaimed
    ``k`` and call ``fn(worker, k)``, until none is left; the calls finish
    in no fixed order.  An error in either thread, or an interrupted wait
    for the helper, stops both from claiming another ``k``.
    """
    if n < 2 or size < SPLIT_MIN or not _busy.acquire(blocking=False):
        for k in range(n):
            fn(0, k)
        return
    # next() of an itertools.count, and a read or write of ``stopped``,
    # are each one atomic step under the GIL.
    claims = itertools.count()
    stopped = False

    def claim(worker: int) -> None:
        nonlocal stopped
        try:
            for k in claims:
                if k >= n or stopped:
                    return
                fn(worker, k)
        except BaseException:
            stopped = True
            raise

    try:
        _both(lambda: claim(0), lambda: claim(1))
    except BaseException:
        stopped = True
        raise
    finally:
        _busy.release()


def step(n: int, size: int) -> int:
    """Rows in each block of :func:`blocks` over ``n`` rows that hold
    ``size`` elements: all ``n`` below ``SPLIT_MIN``, else at most
    ``BLOCK_ROWS`` and at most half of ``n``, rounded up."""
    if size < SPLIT_MIN:
        return max(n, 1)
    return max(min(BLOCK_ROWS, -(-n // 2)), 1)


def blocks(fn: Callable[..., object], n: int, size: int, *args) -> None:
    """``fn(worker, lo, hi, *args)`` for the blocks ``lo..hi`` of
    :func:`step` rows that cover rows ``0..n``, items of one :func:`each`
    pass of ``size`` elements.

    ``fn`` must give the same result however the rows are divided, and
    its blocks must write disjoint memory.
    """
    rows = step(n, size)
    if rows >= n:
        fn(0, 0, n, *args)
        return
    each(lambda worker, k: fn(worker, k * rows, min(k * rows + rows, n), *args),
         -(-n // rows), size)


def _leaves(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """The leaves ``(lo, hi)`` of numpy's pairwise sum of columns ``lo..hi``."""
    if hi - lo <= LEAF:
        yield lo, hi
        return
    cut = lo + _cut(hi - lo)
    yield from _leaves(lo, cut)
    yield from _leaves(cut, hi)


def _nodes(lo: int, hi: int, leaf_sums: Iterator[T]) -> T:
    """The sum over columns ``lo..hi``: the next leaf sum, or the left and
    right parts' sums added at their node."""
    if hi - lo <= LEAF:
        return next(leaf_sums)
    cut = lo + _cut(hi - lo)
    left = _nodes(lo, cut, leaf_sums)
    return np.add(left, _nodes(cut, hi, leaf_sums))


def pairwise(n: int, sum_leaves: Callable[[list[tuple[int, int]]], Iterable[T]]) -> T:
    """``np.add.reduce`` of a contiguous float64 row of ``n`` elements:
    ``sum_leaves`` takes the leaves ``(lo, hi)`` of at most ``LEAF``
    elements that numpy's pairwise nodes cut the row into, in order, and
    yields or returns the ``np.add.reduce`` of elements ``lo..hi`` of
    each, in that order; the sums are added node by node."""
    return _nodes(0, n, iter(sum_leaves(list(_leaves(0, n)))))


def sums(fn: Callable[..., T], array: np.ndarray, *args) -> T:
    """What ``fn(0, array, *args)`` returns, where ``fn`` returns the
    float64 sums (``np.add.reduce``) along the last axis of ``array``,
    whose rows are contiguous and of length ``n``: one sum for a row, an
    array of them for a ``(k, n)`` array; ``fn`` may fill temporaries first.

    Up to ``LEAF`` elements that is the one call.  Longer rows are summed
    by :func:`pairwise`, with ``fn(worker, leaf, *args)`` called on the
    columns of each leaf.  The leaves are the items of one :func:`each`
    pass of ``n`` elements, so from ``SPLIT_MIN`` on both threads claim
    them; ``worker`` tells them apart, so ``fn`` may keep one scratch for
    each.
    """
    n = array.shape[-1]
    if n <= LEAF:
        return fn(0, array, *args)

    def sum_leaves(bounds: list[tuple[int, int]]) -> list:
        leaf_sums: list = [None] * len(bounds)

        def leaf(worker: int, k: int) -> None:
            lo, hi = bounds[k]
            leaf_sums[k] = fn(worker, array[..., lo:hi], *args)

        each(leaf, len(bounds), n)
        return leaf_sums

    return pairwise(n, sum_leaves)
