"""The benchmark's own tests: end-to-end output, trace schema, failure accounting, tracer hygiene."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPAN_KEYS = {"id", "name", "parent", "start", "end", "cpu_s", "error", "counts"}


def run_tiny(trace: int, seed: int = 3) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "tiny", "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_matches_the_runner():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS
    for workload in BENCHMARK["workloads"]:
        assert run.WORKLOADS[workload["name"]].why == workload["why"]
    named = {m["name"] for m in BENCHMARK["end_to_end"]} | {w["name"] for w in BENCHMARK["workloads"]}
    for layer in run.LAYERS["layer_metrics"]:
        assert set(layer["moves"]) <= named and set(layer["on"]) <= named, layer["name"]


def test_tiny_config_prints_every_metric_with_its_unit():
    lines, result = run_tiny(trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 5
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.E2E_UNITS
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["ok_fraction"]["value"] == 1.0
    for name, unit in run.E2E_UNITS.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines), name


def test_trace_file_matches_its_schema():
    _, result = run_tiny(trace=1)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.LAYER_UNITS

    trace = json.loads((run.WORK / "trace_tiny_seed3.json").read_text(encoding="ascii"))
    assert trace["schema"] == run.TRACE_SCHEMA
    assert (trace["workload"], trace["seed"]) == ("tiny", 3)
    assert sorted(c["kind"] for c in trace["commands"]) == sorted(run.COMMANDS)
    known = {f"{m}.{t}" for m, targets in tracer.TARGETS.items() for t in targets}
    for command in trace["commands"]:
        assert command["exit_code"] == 0
        spans = command["spans"]
        assert spans and spans[0]["parent"] is None and spans[0]["name"].startswith("cli.cmd_")
        for k, span in enumerate(spans):
            assert set(span) == SPAN_KEYS
            assert span["id"] == k and span["name"] in known
            assert span["start"] <= span["end"] and span["cpu_s"] >= 0
            assert span["error"] is None
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["id"] < k
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_self_time_subtracts_child_spans():
    spans = [
        {"id": 0, "name": "cli.cmd_stitch", "parent": None, "start": 0.0, "end": 10.0,
         "cpu_s": 9.0, "error": None, "counts": {}},
        {"id": 1, "name": "pgm.read_pgm", "parent": 0, "start": 1.0, "end": 4.0,
         "cpu_s": 1.0, "error": None, "counts": {"bytes": 8}},
        {"id": 2, "name": "pgm.read_pgm", "parent": 0, "start": 5.0, "end": 6.0,
         "cpu_s": 1.0, "error": "ImageFormatError", "counts": {}},
    ]
    totals = run.layer_totals([spans])
    assert totals["cli.cmd_stitch.self_s"] == pytest.approx(6.0)
    assert totals["cli.cmd_stitch.wait_s"] == pytest.approx(-1.0)
    assert totals["pgm.read_pgm.self_s"] == pytest.approx(4.0)
    assert totals["pgm.read_pgm.wait_s"] == pytest.approx(2.0)
    assert totals["pgm.read_pgm.calls"] == 2 and totals["pgm.read_pgm.bytes"] == 8
    assert totals["pgm.errors"] == 1 and totals["cli.errors"] == 0


def test_missing_tile_counts_against_ok_fraction(monkeypatch, tmp_path, capsys):
    for key, value in run.THREAD_ENV.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(run, "WORK", tmp_path)
    original = run.Bench.run_command

    def drop_a_tile(self, kind, argv, trace):
        record = original(self, kind, argv, trace)
        if kind == "simulate":
            dataset = Path(argv[argv.index("--out") + 1])
            tiles = sorted(dataset.glob("tile_*.pgm"))
            tiles[len(tiles) // 2].unlink()
        return record

    monkeypatch.setattr(run.Bench, "run_command", drop_a_tile)
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert result["metrics"]["ok_fraction"]["value"] < 1.0


def _bindings() -> dict:
    from galvomosaic.compose import MosaicCanvas

    found = {("MosaicCanvas", "finalize"): MosaicCanvas.__dict__["finalize"]}
    for name, module in list(sys.modules.items()):
        if name == "galvomosaic" or name.startswith("galvomosaic."):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(name, attr)] = value
    return found


def test_tracing_restores_every_original_binding():
    for module in tracer.TARGETS:
        importlib.import_module(f"galvomosaic.{module}")
    from galvomosaic import cli, compose, pgm

    before = _bindings()
    original = compose.compose_feathered
    with tracer.Tracer() as t:
        assert cli.compose_feathered is compose.compose_feathered is not original
        pgm.to_u16(pgm.to_unit(np.zeros((2, 2), dtype=np.uint16)))
        assert _bindings() != before
    assert _bindings() == before
    assert [s["name"] for s in t.spans()] == ["pgm.to_unit", "pgm.to_u16"]
