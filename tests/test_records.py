"""JSON records: the writer, the exact reader, and the indented encoder."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galvomosaic.compose import Axis, SeamLine
from galvomosaic.correction import RectROI
from galvomosaic.errors import ConfigError
from galvomosaic.geometry import ScanConfig, ScanStrategy
from galvomosaic.metrics import RegionKind, RegionSpec
from galvomosaic.records import dumps_indented, fields_dict, read
from galvomosaic.simulate import (
    DatasetManifest, DegradationSpec, RunConfig, TileFile, tile_filename,
)

# Finite reals, sometimes written as JSON integers: a float field keeps
# whichever it was given.
reals = st.integers(-1000, 1000) | st.floats(-1e6, 1e6, allow_nan=False)
# Drive steps and scales of at least 2: a linear step of 4 px or more, and
# a sinusoidal end step of at least 2 px over the 2 to 4 columns drawn.
steps = st.integers(2, 1000) | st.floats(2.0, 1e4)
unit = st.floats(0.0, 1.0)


@st.composite
def rects(draw, width: int, height: int) -> RectROI:
    x0 = draw(st.integers(0, width - 1))
    y0 = draw(st.integers(0, height - 1))
    return RectROI(
        x0=x0, y0=y0,
        width=draw(st.integers(1, width - x0)), height=draw(st.integers(1, height - y0)),
    )


@st.composite
def run_configs(draw) -> RunConfig:
    """Valid runs: small grids, both strategies, random ROIs and regions."""
    strategy = draw(st.sampled_from(ScanStrategy))
    tile_width, tile_height = draw(st.integers(4, 64)), draw(st.integers(4, 64))
    sinusoidal = strategy is ScanStrategy.SINUSOIDAL
    settle_ms = draw(st.integers(0, 50) | st.floats(0.0, 50.0))
    scan = ScanConfig(
        n_rows=draw(st.integers(1, 4)),
        n_cols=draw(st.integers(2 if sinusoidal else 1, 4)),
        dv_x=draw(steps),
        dv_y=draw(steps),
        s_x=draw(steps),
        s_y=draw(steps),
        alpha_x=draw(reals),
        alpha_y=draw(reals),
        strategy=strategy,
        v0=draw(st.none() | reals),
        amplitude=draw(st.none() | st.floats(2.0, 10.0)),
        tile_width=tile_width,
        tile_height=tile_height,
        settle_ms=settle_ms,
    )
    try:
        scan.validate()
    except ConfigError as exc:
        # Spans of up to 4 x 1000 x 1e4 px can pass geometry's canvas
        # limit; such a scan is rejected as a config error, not a record.
        assume("over the limit" not in str(exc))
        raise
    regions = draw(st.none() | st.lists(
        st.builds(
            RegionSpec, name=st.text(max_size=8), rect=rects(10_000, 10_000),
            kind=st.sampled_from(RegionKind),
        ),
        max_size=4,
    ))
    return RunConfig(
        scan=scan,
        rois=draw(st.lists(rects(tile_width, tile_height), max_size=3)),
        degradation=DegradationSpec(
            vignette_min=draw(st.floats(1e-3, 1.0)),
            corner_offset=draw(reals),
            gain_jitter=draw(st.floats(0.0, 1.0, exclude_max=True)),
            noise_sigma=draw(unit),
            rng_seed=draw(st.integers(0, 2**32)),
        ),
        epsilon=draw(unit),
        band_px=draw(st.integers(1, 100)),
        bright_level=draw(st.floats(0.5, 1.0)),
        dark_level=draw(st.floats(0.0, 0.4)),
        subpixel=draw(st.booleans()),
        per_frame_ms=settle_ms + draw(st.integers(0, 100) | st.floats(0.0, 100.0)),
        regions=regions,
    )


@settings(max_examples=150, deadline=None)
@given(run_configs())
def test_run_config_round_trips(run):
    run.validate()
    text = dumps_indented(fields_dict(run))
    back = read(RunConfig, json.loads(text))
    assert back == run
    assert dumps_indented(fields_dict(back)) == text


@settings(max_examples=100, deadline=None)
@given(run_configs())
def test_manifest_round_trips(run):
    if run.regions is None:
        run.regions = []
    scan = run.scan
    manifest = DatasetManifest(
        run=run,
        tiles=[
            TileFile(i, j, tile_filename(i, j, scan.n_rows, scan.n_cols))
            for i in range(scan.n_rows) for j in range(scan.n_cols)
        ],
        truth_path="truth.pgm",
        ref_bright_path="ref_bright.pgm",
        ref_dark_path="ref_dark.pgm",
        total_s=scan.n_rows * scan.n_cols * run.per_frame_ms / 1000.0,
    )
    text = manifest.to_json()
    back = DatasetManifest.from_json(text)
    assert back == manifest
    assert back.to_json() == text


def test_writer_layout():
    region = RegionSpec("dark", RectROI(1, 2, 3, 4), RegionKind.DARK_BACKGROUND)
    # An INLINE record's keys follow the record's own keys.
    assert list(fields_dict(region).items()) == [
        ("name", "dark"), ("kind", "dark_background"),
        ("x0", 1), ("y0", 2), ("width", 3), ("height", 4),
    ]
    seam = SeamLine(Axis.VERTICAL, 5, 0, 9)
    assert fields_dict(seam) == {"orientation": "vertical", "position": 5, "start": 0, "stop": 9}
    assert read(SeamLine, fields_dict(seam)) == seam


@pytest.mark.parametrize(
    "value, message",
    [
        pytest.param([], "expected an object, got []", id="not_object"),
        pytest.param({"orientation": "vertical", "position": 5, "start": 0},
                     "key 'stop' is missing", id="missing"),
        pytest.param({"orientation": "vertical", "position": 5, "start": 0, "stop": 9, "x": 1},
                     "key 'x' is unknown", id="unknown"),
        pytest.param({"orientation": "vertical", "position": True, "start": 0, "stop": 9},
                     "key 'position': expected int, got True", id="bool_for_int"),
        pytest.param({"orientation": "VERTICAL", "position": 5, "start": 0, "stop": 9},
                     "key 'orientation': expected Axis (horizontal|vertical), got 'VERTICAL'",
                     id="enum_by_name"),
    ],
)
def test_reader_names_the_key(value, message):
    with pytest.raises(ConfigError) as err:
        read(SeamLine, value)
    assert str(err.value) == message


def small_run() -> RunConfig:
    scan = ScanConfig(2, 2, 0.1, 0.1, 350.0, 352.0, tile_width=80, tile_height=80)
    return RunConfig(scan, [RectROI(0, 50, 30, 30)], regions=[])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["rois"][0].update(x0=-1), "key 'rois[0].x0': must be at least 0, got -1"),
        (lambda d: d["rois"].append([]), "key 'rois[1]': expected an object, got []"),
        (lambda d: d["scan"].update(s_x=float("inf")), "scan.s_x must be finite, got inf"),
        (lambda d: d["scan"].update(v0="1"), "key 'scan.v0': expected float, got '1'"),
        (lambda d: d["scan"].update(n_rows=0), "key 'scan.n_rows': must be at least 1, got 0"),
    ],
)
def test_reader_names_nested_paths(edit, message):
    bad = fields_dict(small_run())
    edit(bad)
    with pytest.raises(ConfigError) as err:
        read(RunConfig, bad)
    assert str(err.value) == message


def test_optional_field_reads_null():
    assert read(RunConfig, {**fields_dict(small_run()), "regions": None}).regions is None


def test_extra_keys_only_at_the_top_level():
    seam = {"orientation": "horizontal", "position": 1, "start": 0, "stop": 2}
    assert read(SeamLine, {**seam, "note": 1}, extra_keys=True) == read(SeamLine, seam)
    run = fields_dict(RunConfig(ScanConfig(1, 1, 1, 1, 1, 1), []))
    run["scan"]["note"] = 1
    with pytest.raises(ConfigError, match="key 'scan.note' is unknown"):
        read(RunConfig, run, extra_keys=True)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
json_keys = st.text() | st.integers(-5, 5) | st.floats(allow_nan=True) | st.booleans() | st.none()
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(json_keys, children, max_size=4),
    max_leaves=30,
)
# Lists of flat containers, as the sidecar's placements, seams and MAE
# pairs are; strings full of brackets, commas and newlines.
bracket_text = st.text(alphabet="{}[],:\n\" \\ab\u00e9")
flat_members = st.one_of(json_scalars, bracket_text)
json_rows = st.lists(
    st.dictionaries(st.text() | bracket_text, flat_members, max_size=3)
    | st.lists(flat_members, max_size=3)
    | st.tuples(flat_members, flat_members),
    max_size=5,
)


@settings(max_examples=200)
@given(json_values | json_rows | st.dictionaries(st.text(), json_rows, max_size=3))
def test_dumps_indented_is_json_dumps_indent_2(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)


def test_dumps_indented_edge_cases():
    deep = [1]
    for k in range(40):
        deep = {f"k{k}": deep, "x": []} if k % 2 else [deep, {}, "\u00e9\n\"q\""]
    for value in (
        deep, {}, [], [[]], {"": {}}, [float("nan"), float("inf"), -float("inf"), -0.0],
        {"caf\u00e9 \u2603 \U0001f600": {"\x00\t": [None, True]}},
        {1: [2], 2.5: {}, None: [], False: {"a": 1}},
    ):
        assert dumps_indented(value) == json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        dumps_indented({(1, 2): [1]})
