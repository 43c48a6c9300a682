"""Work claimed in turn by two threads: exact sums, the error and
interrupt rules, callers on several threads, a split stitch that matches
the serial stitch byte for byte whatever order the helper claims in, and
what the helper thread may call."""

import functools
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galvomosaic import halves, pgm
from galvomosaic.cli import main
from galvomosaic.errors import CompositionError

ROOT = Path(__file__).resolve().parents[1]

# 400 px tiles on 35 px steps: every tile (160,000 px) and every overlap
# (at least 141,255 px) reaches SPLIT_MIN; the canvas rows do not.
SPLIT_CFG = """\
n_rows = 2
n_cols = 3
dv_x = 0.1
dv_y = 0.1
s_x = 350
s_y = 352
tile_width = 400
tile_height = 400
vignette_min = 0.9
corner_offset = 0.05
gain_jitter = 0.05
noise_sigma = 0.002
seed = 5
"""
SINUSOIDAL = "strategy = sinusoidal\nsubpixel = true\nalpha_x = 3.5\nalpha_y = -12.25\n"
# A threshold that shares every pass of a SPLIT_CFG stitch, emit blocks and
# the encode included, and one that shares none.
EVERY_PASS = 4096
NO_PASS = 1 << 62


@settings(max_examples=150, deadline=None)
@given(
    size=st.one_of(
        st.integers(0, 300),
        st.integers(2**16 - 20, 2**16 + 20),
        st.integers(2**17 - 20, 2**17 + 20),
        st.just(558_000),
        st.just(775_587),
    ),
    seed=st.integers(0, 2**32 - 1),
    decades=st.integers(0, 15),
)
def test_split_sum_is_add_reduce_bit_for_bit(size, seed, decades):
    # Mixed signs and magnitudes make every rounding of the tree show.
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-decades, decades + 1, size)
    other = values[::-1].copy()
    rows = np.stack((values, other))
    leaves = []

    def leaf_sums(worker, block):
        # Each leaf sums a fresh temporary of its own length, as the MAE does.
        leaves.append((worker, block.shape[-1], threading.current_thread()))
        return np.add.reduce(np.multiply(block, 1.0), axis=-1)

    saved = halves.SPLIT_MIN
    halves.SPLIT_MIN = 129  # share every sum of more than one leaf between the threads
    try:
        whole = halves.sums(leaf_sums, values)
        # The (2, n) layout of the MAE's sample pair: one sum per row.
        by_row = halves.sums(leaf_sums, rows)
    finally:
        halves.SPLIT_MIN = saved
    expected = np.array([np.add.reduce(values), np.add.reduce(other)])
    assert whole.tobytes() == expected[0].tobytes()
    assert by_row.tobytes() == expected.tobytes()
    assert max(length for _, length, _ in leaves) <= halves.LEAF
    assert sum(length for _, length, _ in leaves) == 2 * size
    # One scratch per worker: worker 0 is the calling thread, 1 the helper.
    assert {worker for worker, _, _ in leaves} <= {0, 1}
    assert {thread for worker, _, thread in leaves if worker == 0} <= {threading.current_thread()}
    assert threading.current_thread() not in {thread for worker, _, thread in leaves if worker}


# 1000 rows that hold just over SPLIT_MIN elements: 16 blocks of 64 rows.
ROWS = np.zeros((1000, 132))
BLOCKS = [(k, min(k + 64, 1000)) for k in range(0, 1000, 64)]


def _blocks_of(pass_fn, array=ROWS) -> list[tuple[int, int]]:
    """The (lo, hi) blocks that ``halves.blocks`` hands ``pass_fn``, sorted."""
    seen = []

    def record(worker: int, lo: int, hi: int) -> None:
        pass_fn(worker, lo, hi)
        seen.append((lo, hi))

    halves.blocks(record, len(array), array.size)
    return sorted(seen)


def test_blocks_cover_the_rows_once_in_blocks_of_at_most_block_rows():
    assert _blocks_of(lambda worker, lo, hi: None) == BLOCKS
    # A shared pass of few rows still gives both threads a block.
    assert halves.step(64, halves.SPLIT_MIN) == 32
    assert halves.step(63, halves.SPLIT_MIN) == 32
    assert halves.step(1, halves.SPLIT_MIN) == 1


def test_an_error_in_either_thread_is_raised_once_neither_runs():
    # The calling thread fails while the helper is still in its block: the
    # error waits for that block, and neither thread claims another.
    helper_in_block, finished = threading.Event(), []

    def fail_on_caller(worker: int, lo: int, hi: int) -> None:
        if worker == 0:
            assert helper_in_block.wait(timeout=30.0)
            raise ValueError("calling thread")
        helper_in_block.set()
        time.sleep(0.2)
        finished.append(lo)

    calls = []
    with pytest.raises(ValueError, match="calling thread"):
        halves.blocks(lambda *block: calls.append(block) or fail_on_caller(*block),
                      len(ROWS), ROWS.size)
    assert len(finished) == 1 and len(calls) == 2

    # The helper fails in its first block; the calling thread claims
    # nothing once it has.
    helper_failed = threading.Event()
    calls.clear()

    def fail_on_helper(worker: int, lo: int, hi: int) -> None:
        calls.append(worker)
        if worker:
            helper_failed.set()
            raise ValueError("helper")
        assert helper_failed.wait(timeout=30.0)
        time.sleep(0.05)

    with pytest.raises(ValueError, match="helper"):
        halves.blocks(fail_on_helper, len(ROWS), ROWS.size)
    assert sorted(calls) == [0, 1]
    # The helper serves the next pass.
    assert _blocks_of(lambda worker, lo, hi: None) == BLOCKS


def test_a_pass_whose_wait_was_interrupted_leaves_the_next_pass_its_own(monkeypatch):
    # The caller's wait is interrupted (say by Ctrl-C) while the helper
    # still runs a block.  The next pass must still return only once its
    # own blocks have all run and its own helper claims have ended, not on
    # the earlier block's finish.
    release, helper_in_block = threading.Event(), threading.Event()
    first, second = [], []

    def held(worker: int, lo: int, hi: int) -> None:
        if worker:
            helper_in_block.set()
            assert release.wait(timeout=30.0)
        else:
            assert helper_in_block.wait(timeout=30.0)
        first.append(lo)

    def interrupted(future, timeout=None):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(Future, "exception", interrupted)
        with pytest.raises(KeyboardInterrupt):
            halves.blocks(held, len(ROWS), ROWS.size)
    # Every block but the helper's is done; the helper is still in its block.
    assert len(first) == len(BLOCKS) - 1
    timer = threading.Timer(0.1, release.set)
    timer.start()
    assert _blocks_of(lambda worker, lo, hi: second.append(lo)) == BLOCKS
    # This pass waited for its own helper claims, queued behind the held block.
    assert len(first) == len(BLOCKS) and sorted(first) == [lo for lo, _ in BLOCKS]
    timer.join()


def test_small_pass_runs_whole_on_the_calling_thread():
    threads = []

    def record(worker: int, lo: int, hi: int) -> None:
        threads.append((worker, threading.get_ident()))

    small = ROWS[:, :131]  # 131,000 elements
    assert _blocks_of(record, small) == [(0, 1000)]
    assert threads == [(0, threading.get_ident())]
    # So is a sum under SPLIT_MIN, leaf by leaf.
    threads.clear()

    def leaf(worker: int, block: np.ndarray) -> np.ndarray:
        threads.append((worker, threading.get_ident()))
        return np.add.reduce(block)

    values = np.ones(halves.SPLIT_MIN - 1)
    assert halves.sums(leaf, values) == values.size
    assert len(threads) > 1 and set(threads) == {(0, threading.get_ident())}


def test_each_calls_every_item_once():
    calls = []

    def item(worker: int, k: int) -> None:
        calls.append((k, worker, threading.current_thread() is threading.main_thread()))

    halves.each(item, 50, halves.SPLIT_MIN - 1)
    assert calls == [(k, 0, True) for k in range(50)]
    calls.clear()
    halves.each(item, 50, halves.SPLIT_MIN)
    assert sorted(k for k, _, _ in calls) == list(range(50))
    assert all(worker == (not on_main) for _, worker, on_main in calls)
    calls.clear()
    with halves._busy:  # another caller holds the helper
        halves.each(item, 50, halves.SPLIT_MIN)
    assert calls == [(k, 0, True) for k in range(50)]


def _race(caller, threads: int = 4) -> list:
    """Run ``caller`` on several threads under fast thread switching; the
    errors they raised."""
    errors = []

    def run() -> None:
        try:
            caller()
        except BaseException as exc:
            errors.append(exc)

    workers = [threading.Thread(target=run, daemon=True) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in workers:
            thread.start()
        deadline = time.monotonic() + 30.0
        for thread in workers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    return errors


def test_callers_on_several_threads_each_get_every_block_once():
    # Four callers race for the one helper; a caller that finds it busy
    # does all its blocks itself.  Every pass adds 1 to each of its rows,
    # so a lost or repeated block shows in the counts.
    passes = 200

    def caller() -> None:
        counts = np.zeros_like(ROWS)

        def add_one(worker: int, lo: int, hi: int) -> None:
            counts[lo:hi] += 1.0

        for _ in range(passes):
            halves.blocks(add_one, len(counts), counts.size)
        assert (counts == passes).all()

    assert _race(caller) == []


def test_each_from_several_threads_claims_every_item_once():
    # A lost or repeated claim shows in a caller's counts.
    calls, items = 30, 200

    def caller() -> None:
        counts = np.zeros(items, dtype=np.int64)

        def item(worker: int, k: int) -> None:
            counts[k] += 1

        for _ in range(calls):
            halves.each(item, items, halves.SPLIT_MIN)
        assert (counts == calls).all()

    assert _race(caller) == []


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    base = tmp_path_factory.mktemp("split")
    made = {}
    for name, text in (("linear", SPLIT_CFG), ("sinusoidal", SPLIT_CFG + SINUSOIDAL)):
        cfg = base / f"{name}.cfg"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(base / name)]) == 0
        made[name] = base / name
    return made


def _stitch(dataset: Path, out: Path, mode: str) -> int:
    return main(["stitch", "--dataset", str(dataset), "--out", str(out), "--mode", mode])


def _outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in ("mosaic.pgm", "sidecar.json")}


@pytest.fixture
def handoffs(monkeypatch):
    """Count the passes shared with the helper thread."""
    count = [0]
    both = halves._both

    def counted(here, there):
        count[0] += 1
        return both(here, there)

    monkeypatch.setattr(halves, "_both", counted)
    return count


def _claiming(order: str, both):
    """``halves._both`` whose helper claims items in ``order``: ``prompt``
    as it comes; ``sleeps`` before its first claim; ``all`` of them before
    the calling thread claims one; or ``none``, starting only once the
    calling thread has claimed every item."""
    if order == "prompt":
        return both

    def ordered(here, there):
        done = threading.Event()

        def first(fn):
            try:
                return fn()
            finally:
                done.set()

        def after(fn):
            assert done.wait(timeout=30.0)
            return fn()

        if order == "sleeps":
            return both(here, lambda: (time.sleep(0.002), there())[1])
        if order == "all":
            return both(lambda: after(here), lambda: first(there))
        return both(lambda: first(here), lambda: after(there))

    return ordered


@pytest.fixture
def helper(request, monkeypatch, handoffs):
    """The helper's claim order, from the test's parameter."""
    monkeypatch.setattr(halves, "_both", _claiming(request.param, halves._both))
    return request.param


@pytest.mark.parametrize("helper", ["prompt", "sleeps"], indirect=True)
@pytest.mark.parametrize("split_min", [halves.SPLIT_MIN, EVERY_PASS], ids=["split_min", "every"])
@pytest.mark.parametrize("mode", ["raw", "processed"])
@pytest.mark.parametrize("strategy", ["linear", "sinusoidal"])
def test_split_stitch_matches_serial_stitch(datasets, tmp_path, monkeypatch, handoffs, helper,
                                            strategy, mode, split_min):
    monkeypatch.setattr(halves, "SPLIT_MIN", NO_PASS)
    assert _stitch(datasets[strategy], tmp_path / "serial", mode) == 0
    assert handoffs[0] == 0
    monkeypatch.setattr(halves, "SPLIT_MIN", split_min)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _stitch(datasets[strategy], tmp_path / "split", mode) == 0
    finally:
        sys.setswitchinterval(interval)
    # At least the blocks of each of the 6 tiles and its overlaps' MAE.
    assert handoffs[0] >= 6
    assert _outputs(tmp_path / "split") == _outputs(tmp_path / "serial")


@pytest.mark.parametrize("helper", ["all", "none"], indirect=True)
def test_adversarial_claim_order_keeps_every_bit(datasets, tmp_path, monkeypatch, handoffs,
                                                 helper):
    # The helper claims every leaf and block, or none: sums and stitches
    # have the bits of the serial ones.
    rng = np.random.default_rng(17)
    values = rng.standard_normal(775_587) * 10.0 ** rng.integers(-9, 10, 775_587)
    pair = np.stack((values, values[::-1]))
    expected = np.add.reduce(pair, axis=1)
    shared = halves.sums(lambda worker, block: np.add.reduce(block, axis=1), pair)
    assert handoffs[0] == 1 and shared.tobytes() == expected.tobytes()
    for mode in ("raw", "processed"):
        monkeypatch.setattr(halves, "SPLIT_MIN", NO_PASS)
        assert _stitch(datasets["sinusoidal"], tmp_path / f"serial_{mode}", mode) == 0
        monkeypatch.setattr(halves, "SPLIT_MIN", EVERY_PASS)
        assert _stitch(datasets["sinusoidal"], tmp_path / f"split_{mode}", mode) == 0
        assert _outputs(tmp_path / f"split_{mode}") == _outputs(tmp_path / f"serial_{mode}")


def test_sidecar_does_not_depend_on_the_blas_thread_count(datasets, tmp_path):
    # No overlap fit goes through BLAS, so its thread count, which is read
    # once when numpy loads, changes no byte.
    code = "import sys; from galvomosaic.cli import main; sys.exit(main(sys.argv[1:]))"
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    sidecars = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-c", code, "stitch", "--dataset", str(datasets["linear"]),
             "--out", str(out), "--mode", "raw"],
            check=True, env=env,
        )
        sidecars.append((out / "sidecar.json").read_bytes())
    assert sidecars[0] == sidecars[1]


@pytest.mark.parametrize("helper", ["all"], indirect=True)
def test_error_on_the_helper_fails_stitch_like_serial(datasets, tmp_path, monkeypatch, capsys,
                                                      helper):
    # The helper claims every block of a shared pass, so the first shared
    # encode fails on it.
    encode = pgm.scale_to_counts

    def fail_on(thread_is_main: bool):
        # Fails on mosaic rows only: loading the manifest encodes 0-d levels.
        def scale_to_counts(img):
            on_main = threading.current_thread() is threading.main_thread()
            if img.ndim == 2 and on_main == thread_is_main:
                raise CompositionError("encode failed")
            return encode(img)
        return scale_to_counts

    errors = []
    for split_min, main_thread in ((NO_PASS, True), (EVERY_PASS, False)):
        monkeypatch.setattr(halves, "SPLIT_MIN", split_min)
        monkeypatch.setattr(pgm, "scale_to_counts", fail_on(main_thread))
        out = tmp_path / f"failed_{split_min}"
        assert _stitch(datasets["linear"], out, "processed") == 1
        errors.append(capsys.readouterr().err)
        assert list(out.iterdir()) == []
    assert errors[0] == errors[1] == "error: encode failed\n"

    # The helper thread survives the error and serves the next stitch.
    monkeypatch.setattr(pgm, "scale_to_counts", encode)
    assert _stitch(datasets["linear"], tmp_path / "split", "processed") == 0
    monkeypatch.setattr(halves, "SPLIT_MIN", NO_PASS)
    assert _stitch(datasets["linear"], tmp_path / "serial", "processed") == 0
    assert _outputs(tmp_path / "split") == _outputs(tmp_path / "serial")


def test_traced_functions_run_on_the_main_thread(tmp_path, monkeypatch, handoffs):
    # The benchmark's tracer keeps one span stack, so no function it wraps
    # may run off the main thread: not while simulate shares its frames
    # between two threads, nor while stitch shares its passes.  Of pgm and
    # the builtins, the helper calls pgm._decode, pgm.scale_to_counts and
    # open only.  A profile hook, set before a fresh helper thread starts,
    # logs every Python function and builtin that thread calls.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracer

    calls: list[tuple[str, int]] = []
    on_helper: set[tuple[str, str]] = set()

    class ThreadTracer(tracer.Tracer):
        def _wrap(self, span_name, func):
            traced = super()._wrap(span_name, func)

            @functools.wraps(func)
            def record(*args, **kwargs):
                calls.append((span_name, threading.get_ident()))
                return traced(*args, **kwargs)

            return record

    def log(frame, event, arg):
        if event == "call":
            on_helper.add((frame.f_code.co_filename, frame.f_code.co_qualname))
        elif event == "c_call" and arg is open:
            on_helper.add(("builtins", "open"))

    cfg = tmp_path / "split.cfg"
    cfg.write_text(SPLIT_CFG)
    monkeypatch.setattr(halves, "_pool", None)
    threading.setprofile(log)
    try:
        with ThreadTracer():
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
            assert handoffs[0] == 1
            monkeypatch.setattr(halves, "SPLIT_MIN", EVERY_PASS)
            for mode in ("raw", "processed"):
                assert _stitch(tmp_path / "ds", tmp_path / mode, mode) == 0
    finally:
        threading.setprofile(None)
    assert handoffs[0] > 1
    names = {name for name, _ in calls}
    assert {"cli.cmd_simulate", "simulate.write_dataset", "cli.cmd_stitch",
            "correction.fit_two_point", "metrics.normalized_mae",
            "compose.compose_feathered"} <= names
    assert {ident for _, ident in calls} == {threading.main_thread().ident}
    assert not [name for path, name in on_helper if path == tracer.__file__]
    package = {(Path(path).name, name) for path, name in on_helper
               if Path(path).parent == Path(halves.__file__).parent}
    assert ("simulate.py", "_Frames.write") in package
    assert {name for module, name in package if module == "pgm.py"} == {
        "_decode", "scale_to_counts"}
    public = {call for call in package if call[1].isidentifier() and call[1][0] != "_"}
    assert public == {("pgm.py", "scale_to_counts")}
    assert ("builtins", "open") in on_helper
