"""Work for two cores: bulk array passes in two row halves, and whole
items claimed in turn, on the calling thread and one helper thread.

Stitch is array work that a second core can share.  :func:`run` takes a
pass ``fn`` over the rows of some arrays, all with the same number
``n`` of rows, and calls ``fn(start, *blocks, *args)`` with ``blocks``
the rows ``start..`` of each array.  A large pass, whose first array
holds at least ``SPLIT_MIN`` elements (1 MiB of float64), runs as two
calls: rows ``0..cut`` on the calling thread and rows ``cut..n`` on a
helper thread, and :func:`run` returns once both have finished.  A
smaller pass runs as one call, ``fn(0, *arrays, *args)``, on the
calling thread, so it costs one function call more than calling ``fn``
directly.  Simulate's frames are independent items: :func:`each` runs
``fn(k)`` for every item ``k``, and when an item covers at least
``SPLIT_MIN`` elements the calling thread and the helper each claim the
next unclaimed item and finish it whole, so a core taken by other work
stalls one item, not every item.  The helper is a one-worker thread
pool, made by the first call that uses it, that then serves the
process.

Splitting changes no bit of any result:

- An elementwise step gives the same value for each element however the
  rows are divided.
- ``cut`` is ``n // 2`` rounded down to a multiple of 8.  For a
  contiguous float64 row of more than 128 elements, that is where
  numpy's pairwise summation (``np.add.reduce``) makes its top split,
  and each part is split again the same way.  :func:`sums` follows
  these nodes down to leaves of at most ``LEAF`` elements: each leaf is
  reduced by one call, over temporaries no larger than the leaf, and
  the leaves' sums are added at the nodes, so a sum is ``np.add.reduce``
  of the whole row, bit for bit.  The top node is split over the two
  threads.
- An item of :func:`each` is made whole by one thread; only the order in
  which items finish varies.

Work on the helper thread calls numpy and the package's private helpers
only (and ``pgm.scale_to_counts`` and ``open``).  A public function
there could be wrapped by a caller's tracer, which keeps one span stack
for the main thread.  If either thread raises, the error is raised once
neither runs any more work of that call, so no half still writes to an
array when its caller unwinds, and no item is claimed after the error.
Each call waits on its own future, so a call whose wait was interrupted
leaves nothing that a later call could mistake for its own result.  A
caller that finds the helper busy (another thread's call, or a call
made from inside a half) does all the work itself, one piece after the
other.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# Elements a pass or an item must cover to be shared with the helper;
# more than 128 (see _cut).
SPLIT_MIN = 1 << 17
# Most elements :func:`sums` reduces in one call: a few float64 rows of a
# leaf stay in a 2 MB L2 cache.  More than 128 (see _cut).
LEAF = 1 << 16

T = TypeVar("T")

# Held by the caller whose split pass is in flight.
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
        future.exception()  # returns once the helper's half has run
    return first, future.result()


def run(fn: Callable[..., T], arrays: tuple[np.ndarray, ...], *args) -> list[T]:
    """``[fn(0, *arrays, *args)]``, or, when ``arrays[0]`` holds at least
    ``SPLIT_MIN`` elements, ``[fn(0, *tops, *args), fn(cut, *bottoms, *args)]``
    with the rows ``0..cut`` and ``cut..`` of each array, the second call
    made on the helper thread unless another pass holds it.

    ``fn`` must give the same result however the rows are divided, and
    the two calls must write disjoint memory.
    """
    cut = 0 if arrays[0].size < SPLIT_MIN else _cut(len(arrays[0]))
    if cut == 0:
        return [fn(0, *arrays, *args)]
    tops = [a[:cut] for a in arrays]
    bottoms = [a[cut:] for a in arrays]
    if not _busy.acquire(blocking=False):
        return [fn(0, *tops, *args), fn(cut, *bottoms, *args)]
    try:
        return list(_both(lambda: fn(0, *tops, *args), lambda: fn(cut, *bottoms, *args)))
    finally:
        _busy.release()


def _leaves(fn: Callable[..., T], start: int, arrays: list[np.ndarray], args: tuple) -> T:
    """``fn(start, *leaf, *args)`` for each leaf of ``arrays``' last axis,
    added at the pairwise nodes."""
    n = arrays[0].shape[-1]
    if n <= LEAF:
        return fn(start, *arrays, *args)
    cut = _cut(n)
    return np.add(_leaves(fn, start, [a[..., :cut] for a in arrays], args),
                  _leaves(fn, start, [a[..., cut:] for a in arrays], args))


def sums(fn: Callable[..., T], arrays: tuple[np.ndarray, ...], *args) -> T:
    """What ``fn(0, *arrays, *args)`` returns, where ``fn`` returns float64
    sums (``np.add.reduce``) along the last axis of ``arrays``, whose rows
    are contiguous and all of the same length ``n``: one sum, or an array
    or tuple of them; ``fn`` may fill temporaries first.

    Up to ``LEAF`` elements that is the one call.  Longer rows are cut at
    numpy's pairwise nodes into leaves of at most ``LEAF`` elements,
    ``fn`` is called on the columns of each leaf, and the sums are added
    node by node, giving the whole sums bit for bit (as an array, for a
    tuple).  From ``SPLIT_MIN`` elements on, the leaves past the top node
    are taken by the helper thread, unless another pass holds it.
    ``start`` tells the two halves apart: it is 0 for every leaf of the
    calling thread's half and the top node's cut for every leaf of the
    other half, so ``fn`` may keep one scratch for each.
    """
    n = arrays[0].shape[-1]
    if n <= LEAF:
        return fn(0, *arrays, *args)
    cut = _cut(n)

    def here() -> T:
        return _leaves(fn, 0, [a[..., :cut] for a in arrays], args)

    def there() -> T:
        return _leaves(fn, cut, [a[..., cut:] for a in arrays], args)

    if n < SPLIT_MIN or not _busy.acquire(blocking=False):
        return np.add(here(), there())
    try:
        return np.add(*_both(here, there))
    finally:
        _busy.release()


def each(fn: Callable[[int], object], n: int, size: int) -> None:
    """``fn(0)``, ..., ``fn(n - 1)``, each called once, for items that each
    cover ``size`` elements.

    Below ``SPLIT_MIN`` the calling thread calls them in order.  From it
    on, the calling thread and the helper each claim the next unclaimed
    ``k`` and call ``fn(k)``, until none is left; the calls finish in no
    fixed order.  An error in either thread stops both from claiming
    another ``k``.
    """
    # next() of an itertools.count is one atomic step under the GIL.
    claims = itertools.count()
    stop = threading.Event()

    def claim() -> None:
        try:
            for k in claims:
                if k >= n or stop.is_set():
                    return
                fn(k)
        except BaseException:
            stop.set()
            raise

    if size < SPLIT_MIN or not _busy.acquire(blocking=False):
        claim()
        return
    try:
        _both(claim, claim)
    finally:
        _busy.release()
