"""16-bit image I/O round trips and format validation."""

import tracemalloc

import numpy as np
import pytest

from galvomosaic import pgm


def test_u16_unit_roundtrip_is_exact():
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 65536, size=(64, 64), dtype=np.uint16)
    assert np.array_equal(pgm.to_u16(pgm.to_unit(counts)), counts)


def test_every_count_survives_decode_and_encode_exactly():
    # Raw stitch writes tile counts as they are, where it once wrote
    # scale_to_counts(to_unit(counts)): the two agree for all 65,536 counts.
    counts = np.arange(65536, dtype=np.uint16)
    unit = np.empty(counts.shape)
    assert pgm.to_unit(counts, out=unit) is unit
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


def test_read_pgm_unit_decodes_straight_to_the_unit_floats(tmp_path):
    rng = np.random.default_rng(12)
    img = rng.integers(0, 65536, size=(29, 47), dtype=np.uint16)
    img[0, :3] = (0, 1, 65535)
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# comment\n47 29\n65535\n" + img.astype(">u2").tobytes() + b"tail")
    unit = pgm.read_pgm_unit(path)
    assert unit.dtype == np.float64 and unit.flags.writeable and unit.flags.c_contiguous
    assert np.array_equal(unit, pgm.to_unit(pgm.read_pgm(path)))


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
    # Each index releases the pages it read; reading again maps them back.
    for key in (np.s_[3:9, 5:7], np.s_[:, [0, 40, 7]], np.s_[22], np.s_[-1], np.s_[20:2:-3, 1],
                np.s_[5:5], np.s_[3:9, 5:7]):
        assert np.array_equal(view[key], pgm.to_unit(img)[key])


@pytest.mark.parametrize(
    "reader",
    [pgm.read_pgm, pgm.read_pgm_unit, pytest.param(pgm.UnitView, id="map_pgm")],
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
