"""16-bit image I/O round trips and format validation."""

import mmap
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galvomosaic import pgm


def test_u16_unit_roundtrip_is_exact():
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 65536, size=(64, 64), dtype=np.uint16)
    assert np.array_equal(pgm.to_u16(pgm.to_unit(counts)), counts)


def test_every_count_survives_decode_and_encode_exactly():
    # Raw stitch writes tile counts as they are, where it once wrote
    # scale_to_counts(to_unit(counts)): the two agree for all 65,536 counts.
    # Stitch decodes in place, into its scratch.
    counts = np.arange(65536, dtype=np.uint16)
    unit = np.empty(counts.shape)
    assert pgm._decode(counts, unit) is unit
    assert np.array_equal(unit, pgm.to_unit(counts))
    assert np.array_equal(pgm.scale_to_counts(unit), counts)


def test_read_counts_is_the_big_endian_raster(tmp_path):
    img = np.arange(12, dtype=np.uint16).reshape(3, 4) * 5000
    path = tmp_path / "img.pgm"
    pgm.write_pgm(path, img)
    counts = pgm.read_counts(path)
    assert counts.dtype == np.dtype(">u2") and not counts.flags.writeable
    assert np.array_equal(counts, img)
    copy = tmp_path / "copy.pgm"
    pgm.write_pgm(copy, counts)
    assert copy.read_bytes() == path.read_bytes()


def test_big_endian_raster_is_written_without_a_copy(tmp_path):
    counts = np.random.default_rng(3).integers(0, 65536, size=(500, 400), dtype=np.uint16)
    big_endian = counts.astype(">u2")
    tracemalloc.start()
    try:
        pgm.write_pgm(tmp_path / "be.pgm", big_endian)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < big_endian.nbytes // 4, peak
    pgm.write_pgm(tmp_path / "native.pgm", counts)
    assert (tmp_path / "be.pgm").read_bytes() == (tmp_path / "native.pgm").read_bytes()


def test_to_u16_clamps_and_rounds_half_up():
    values = np.array([[-0.5, 0.0, 1.5 / 65535, 1.0, 2.0]])
    assert pgm.to_u16(values).tolist() == [[0, 0, 2, 65535, 65535]]


def test_to_u16_leaves_input_intact_and_takes_0d():
    values = np.array([[-0.5, 0.25, 2.0]])
    before = values.copy()
    assert pgm.to_u16(values).tolist() == [[0, 16384, 65535]]
    assert np.array_equal(values, before)
    half = pgm.to_u16(np.array(0.5))
    assert half.shape == () and half.dtype == np.uint16 and int(half) == 32768


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    img = rng.integers(0, 65536, size=(37, 53), dtype=np.uint16)
    path = tmp_path / "img.pgm"
    pgm.write_pgm(path, img)
    assert np.array_equal(pgm.read_pgm(path), img)
    pgm.write_pgm(path, img.T)  # not C-contiguous: still written in raster order
    assert np.array_equal(pgm.read_pgm(path), img.T)


def test_scale_to_counts_encodes_in_place_like_to_u16():
    rng = np.random.default_rng(13)
    values = rng.uniform(-0.25, 1.25, size=(17, 31))
    values[0, :4] = (0.5 / 65535, 1.5 / 65535, np.nextafter(1.0, 0.0), 1.0)
    expected = pgm.to_u16(values)
    out = pgm.scale_to_counts(values)
    assert out is values
    assert np.array_equal(values.astype(">u2"), expected)
    assert np.array_equal(values, expected)


def test_pgm_header_comments_are_skipped(tmp_path):
    img = np.arange(6, dtype=np.uint16).reshape(2, 3)
    path = tmp_path / "img.pgm"
    raw = b"P5\n# produced by hand\n3 2\n# another comment\n65535\n" + img.astype(">u2").tobytes()
    path.write_bytes(raw)
    assert np.array_equal(pgm.read_pgm(path), img)


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n3 2\n65535\n")
    with pytest.raises(pgm.ImageFormatError):
        pgm.read_pgm(path)


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n65535\n\x00\x01")
    with pytest.raises(pgm.ImageFormatError):
        pgm.read_pgm(path)


def test_pgm_rejects_8bit_maxval(tmp_path):
    path = tmp_path / "8bit.pgm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(pgm.ImageFormatError):
        pgm.read_pgm(path)


def test_write_pgm_requires_uint16():
    with pytest.raises(pgm.ImageFormatError):
        pgm.write_pgm("/tmp/never-written.pgm", np.zeros((2, 2), dtype=np.float64))


def test_map_pgm_is_a_read_only_view_of_the_raster(tmp_path):
    rng = np.random.default_rng(17)
    img = rng.integers(0, 65536, size=(23, 41), dtype=np.uint16)
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# comment\n41 23\n65535\n" + img.astype(">u2").tobytes() + b"tail")
    view = pgm.UnitView(path)
    assert type(view.counts) is np.ndarray and view.counts.dtype == np.dtype(">u2")
    assert not view.counts.flags.writeable
    assert np.array_equal(view.counts, img)
    assert view.shape == (23, 41)
    # Each index releases the whole mapping; reading again maps pages back.
    for key in (np.s_[3:9, 5:7], np.s_[:, [0, 40, 7]], np.s_[22], np.s_[-1], np.s_[20:2:-3, 1],
                np.s_[5:5], np.s_[3:9, 5:7]):
        assert np.array_equal(view[key], pgm.to_unit(img)[key])


def mapped_rss_kb(path) -> int:
    """Rss (kB) of this process's mappings of ``path``, from /proc/self/smaps."""
    rss, inside = 0, False
    for line in Path("/proc/self/smaps").read_text().splitlines():
        if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):
            inside = line.endswith(f" {path}")
        elif inside and line.startswith("Rss:"):
            rss += int(line.split()[1])
    return rss


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
def test_map_pgm_keeps_no_mapped_pages_between_reads(tmp_path):
    # One row in every 33, 66 KB apart: a page fault maps up to 64 KB of
    # cached pages around it (fault-around), so releasing only the rows
    # read would leave most of those pages resident after every read.
    width, step = 1000, 33
    path = tmp_path / "img.pgm"
    pgm.write_pgm(path, np.random.default_rng(5).integers(0, 65536, size=(200 * step, width),
                                                          dtype=np.uint16))
    view = pgm.UnitView(path)
    rss = []
    for k in range(200):
        view[k * step:k * step + 1]
        rss.append(mapped_rss_kb(path))
    assert 1024 * max(rss) <= 2 * width + 65536, rss


@pytest.mark.parametrize(
    "reader",
    [pgm.read_pgm, pgm.read_counts, pytest.param(pgm.UnitView, id="map_pgm")],
)
@pytest.mark.parametrize(
    "raw, message",
    [
        pytest.param(b"", "not a binary PGM", id="empty"),
        pytest.param(b"P2\n3 2\n65535\n", "not a binary PGM", id="magic"),
        pytest.param(b"P5\n3 2", "truncated PGM header", id="short_header"),
        pytest.param(b"P5\n3 x\n65535\n", "malformed PGM header", id="bad_height"),
        pytest.param(b"P5\n1 1\n255\n\x00", "expected maxval 65535, got 255", id="maxval_255"),
        pytest.param(b"P5\n4 4\n65535\n\x00\x01", "raster has 2 bytes, expected 32", id="short_raster"),
        pytest.param(b"P5\n2 1\n65535", "raster has 0 bytes, expected 4", id="no_raster"),
    ],
)
def test_readers_reject_bad_files_naming_the_path(tmp_path, reader, raw, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(pgm.ImageFormatError, match=message) as info:
        reader(path)
    assert str(path) in str(info.value)


def _byte_loop_layout(path, data) -> tuple[int, int, int]:
    """The header lexer ``pgm._raster_layout`` had before its two patterns,
    byte by byte with ``bytes.isspace``: the oracle they must agree with."""
    if data[:2] != b"P5":
        raise pgm.ImageFormatError(f"{path}: not a binary PGM (P5) file")
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3 and pos < len(data):
        c = data[pos:pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if len(tokens) < 3:
        raise pgm.ImageFormatError(f"{path}: truncated PGM header")
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise pgm.ImageFormatError(f"{path}: malformed PGM header") from exc
    if w < 0 or h < 0:
        raise pgm.ImageFormatError(f"{path}: malformed PGM header: size {w}x{h}")
    if maxval != pgm.MAXVAL:
        raise pgm.ImageFormatError(f"{path}: expected maxval {pgm.MAXVAL}, got {maxval}")
    pos = min(pos + 1, len(data))
    expected = w * h * 2
    available = len(data) - pos
    if available < expected:
        raise pgm.ImageFormatError(f"{path}: raster has {available} bytes, expected {expected}")
    return h, w, pos


def _layout_or_message(layout, data):
    try:
        return layout("img.pgm", data)
    except pgm.ImageFormatError as exc:
        return str(exc)


def _assert_lexers_agree(data: bytes) -> None:
    expected = _layout_or_message(_byte_loop_layout, data)
    assert _layout_or_message(pgm._raster_layout, data) == expected
    if data:  # an mmap is never empty; UnitView rejects an empty file first
        with mmap.mmap(-1, len(data)) as mapped:
            mapped.write(data)
            assert _layout_or_message(pgm._raster_layout, mapped) == expected


_WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_COMMENT = st.builds(
    lambda text, newline: b"#" + text.replace(b"\n", b"") + newline,
    st.binary(max_size=6), st.sampled_from([b"", b"\n"]),
)
_GAP = st.lists(_WHITESPACE | _COMMENT, max_size=4).map(b"".join)
_TOKEN = (
    st.integers(-3, 70000).map(lambda n: str(n).encode())
    | st.sampled_from([b"65535", b"+2", b"-0", b"1#2", b"2#", b"x", b"0x1", b"1_0", b"\xff"])
    | st.binary(min_size=1, max_size=3)
)


@st.composite
def pgm_headers(draw):
    magic = draw(st.sampled_from([b"P5", b"P5", b"P2", b"P", b""]))
    parts = [magic]
    for token in draw(st.lists(_TOKEN, max_size=4)):
        parts += [draw(_GAP), token]
    parts += [draw(_GAP), draw(st.binary(max_size=12))]
    return b"".join(parts)


@settings(max_examples=500, deadline=None)
@given(pgm_headers())
@example(b"P5 1 1 #x")  # a token never starts inside a comment
@example(b"P5 1 1 65535#x\n\x00\x00")
@example(b"P5#c\n2\x0b1\x0c65535\r\x00\x01\x02\x03")
def test_header_lexer_agrees_with_byte_loop(data):
    _assert_lexers_agree(data)


@pytest.mark.parametrize(
    "header",
    [b"P5\n# comment\n3 2\n# another\n65535\n", b"P5 3#x 2 65535 ", b"P5\t3\r\n2 65535\n"],
)
def test_header_lexer_agrees_on_every_prefix(header):
    data = header + bytes(12)
    for end in range(len(data) + 1):
        _assert_lexers_agree(data[:end])
