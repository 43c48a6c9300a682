"""Bulk passes in two row halves: exact sums, the helper's error rule, a
split stitch that matches the serial stitch byte for byte, and what the
helper thread may call."""

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
# A threshold that splits every pass of a SPLIT_CFG stitch, emit blocks and
# the encode included, and one that splits none.
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

    def leaf_sums(start, *blocks):
        # Each leaf sums fresh temporaries of its own length, as the MAE does.
        leaves.append((start, blocks[0].shape[-1], threading.current_thread()))
        copies = [np.multiply(b, 1.0) for b in blocks]
        return tuple(np.add.reduce(c, axis=-1) for c in copies)

    saved = halves.SPLIT_MIN
    halves.SPLIT_MIN = 129  # split every sum over a leaf between the threads
    try:
        (whole,) = halves.sums(leaf_sums, (values,))
        pair = halves.sums(leaf_sums, (values, other))
        (by_row,) = halves.sums(leaf_sums, (rows,))
    finally:
        halves.SPLIT_MIN = saved
    expected = np.array([np.add.reduce(values), np.add.reduce(other)])
    assert whole.tobytes() == expected[0].tobytes()
    assert np.asarray(pair).tobytes() == expected.tobytes()
    assert by_row.tobytes() == expected.tobytes()
    assert max(length for _, length, _ in leaves) <= halves.LEAF
    assert sum(length for _, length, _ in leaves) == 3 * size
    # One scratch per half: start is 0 on the calling thread's half and
    # the top node's cut on the other.
    cut = halves._cut(size) if size > halves.LEAF else 0
    assert {start for start, _, _ in leaves} <= {0, cut}
    assert {thread for start, _, thread in leaves if start == 0} == {threading.current_thread()}


# 1000 rows that hold just over SPLIT_MIN elements: cut at row 496.
ROWS = np.zeros((1000, 132))
HALVES = [(0, 496), (496, 504)]


def _rows_of(start: int, block: np.ndarray) -> tuple[int, int]:
    return start, len(block)


def test_an_error_in_either_half_is_raised_after_both_finish():
    finished = []

    def slow_then_fail(start: int, block: np.ndarray) -> None:
        if start == 0:
            raise ValueError("top half")
        time.sleep(0.2)
        finished.append(_rows_of(start, block))

    with pytest.raises(ValueError, match="top half"):
        halves.run(slow_then_fail, (ROWS,))
    assert finished == [(496, 504)]

    def fail_on_helper(start: int, block: np.ndarray) -> None:
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("helper half")
        finished.append(_rows_of(start, block))

    with pytest.raises(ValueError, match="helper half"):
        halves.run(fail_on_helper, (ROWS,))
    assert finished[-1] == (0, 496)
    # The helper serves the next pass.
    assert halves.run(_rows_of, (ROWS,)) == HALVES


def test_a_pass_whose_wait_was_interrupted_leaves_the_next_pass_its_own(monkeypatch):
    # The caller's wait is interrupted (say by Ctrl-C) while the helper
    # still runs its half.  The next pass must still return only once
    # both of its own halves have run, not on the earlier half's finish.
    release = threading.Event()
    finished = []

    def held(start: int, block: np.ndarray) -> tuple[int, int]:
        if start:
            assert release.wait(timeout=30.0)
        finished.append(start)
        return _rows_of(start, block)

    def interrupted(future, timeout=None):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(Future, "exception", interrupted)
        with pytest.raises(KeyboardInterrupt):
            halves.run(held, (ROWS,))
    assert finished == [0]
    # The helper is still held in the first pass's half when this one waits.
    timer = threading.Timer(0.1, release.set)
    timer.start()
    assert halves.run(held, (ROWS,)) == HALVES
    assert sorted(finished) == [0, 0, 496, 496]
    timer.join()


def test_callers_on_several_threads_each_get_both_halves_once():
    # Four callers race for the one helper; a caller that finds it busy
    # runs both halves itself.  Every pass adds 1 to each of its rows, so
    # a lost or repeated half shows in the counts.
    passes, errors = 200, []

    def add_one(start: int, block: np.ndarray) -> tuple[int, int]:
        block += 1.0
        return _rows_of(start, block)

    def caller() -> None:
        counts = np.zeros_like(ROWS)
        try:
            for _ in range(passes):
                assert halves.run(add_one, (counts,)) == HALVES
            assert (counts == passes).all()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_small_pass_runs_whole_on_the_calling_thread():
    threads = []

    def record(start: int, block: np.ndarray) -> tuple[int, int]:
        threads.append(threading.get_ident())
        return _rows_of(start, block)

    assert halves.run(record, (ROWS[:, :131],)) == [(0, 1000)]  # 131,000 elements
    assert threads == [threading.get_ident()]


def test_each_calls_every_item_once():
    calls = []

    def item(k: int) -> None:
        calls.append((k, threading.current_thread() is threading.main_thread()))

    halves.each(item, 50, halves.SPLIT_MIN - 1)
    assert calls == [(k, True) for k in range(50)]
    calls.clear()
    halves.each(item, 50, halves.SPLIT_MIN)
    assert sorted(k for k, _ in calls) == list(range(50))
    calls.clear()
    with halves._busy:  # another caller holds the helper
        halves.each(item, 50, halves.SPLIT_MIN)
    assert calls == [(k, True) for k in range(50)]


def test_each_from_several_threads_claims_every_item_once():
    # Four callers race for the one helper under fast thread switching; a
    # lost or repeated claim shows in a caller's counts.
    calls, items, errors = 30, 200, []

    def caller() -> None:
        counts = np.zeros(items, dtype=np.int64)

        def item(k: int) -> None:
            counts[k] += 1

        try:
            for _ in range(calls):
                halves.each(item, items, halves.SPLIT_MIN)
            assert (counts == calls).all()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


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
    """Count the passes whose second half went to the helper thread."""
    count = [0]
    both = halves._both

    def counted(here, there):
        count[0] += 1
        return both(here, there)

    monkeypatch.setattr(halves, "_both", counted)
    return count


@pytest.mark.parametrize("split_min", [halves.SPLIT_MIN, EVERY_PASS], ids=["split_min", "every"])
@pytest.mark.parametrize("mode", ["raw", "processed"])
@pytest.mark.parametrize("strategy", ["linear", "sinusoidal"])
def test_split_stitch_matches_serial_stitch(datasets, tmp_path, monkeypatch, handoffs,
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
    # At least the decode of each of the 6 tiles and its overlaps' MAE.
    assert handoffs[0] >= 6
    assert _outputs(tmp_path / "split") == _outputs(tmp_path / "serial")


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


def test_error_in_helper_half_fails_stitch_like_serial(datasets, tmp_path, monkeypatch, capsys):
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
    # between two threads, nor while stitch splits its passes.  Of pgm and
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
            "correction.apply_roi_corrections", "metrics.normalized_mae",
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
