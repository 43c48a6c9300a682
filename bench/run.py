"""Benchmark of the galvomosaic CLI pipeline: simulate -> stitch raw -> stitch processed -> evaluate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every command runs through
``galvomosaic.cli.main`` in a fresh interpreter (``bench/child.py``), so
peak RSS is per command and interpreter start plus import is reported
apart from command time, as ``setup_s``.  One untimed warm-up pass on a
2x2 grid of the same config comes first; measured iterations then repeat
until ``--seconds`` have passed.  Every output is checked: exit code, mosaic size against the
sidecar, error against the simulator's ``truth.pgm``, and byte-identical
mosaic, sidecar and report digests across the iterations of the run.
A failed check counts against ``ok_fraction`` and the run goes on.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each iteration is an untraced and
a traced pipeline pass, the JSON holds the per-layer metrics listed in
``bench/layers.json`` and the spans go to ``.bench_work/trace_*.json``.
Everything the run writes stays under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 150.0
COMMANDS = ("simulate", "stitch_raw", "stitch_processed", "evaluate")
# numpy here links OpenBLAS built for 64 threads; pin every child to one.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TRACE_SCHEMA = "galvomosaic-bench-trace/1"

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, Workload  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "stitch_raw_s": "s",
    "stitch_processed_s": "s",
    "evaluate_s": "s",
    "simulate_peak_rss_mb": "MB",
    "stitch_raw_peak_rss_mb": "MB",
    "stitch_processed_peak_rss_mb": "MB",
    "evaluate_peak_rss_mb": "MB",
    "truth_mae_raw": "intensity",
    "truth_mae_processed": "intensity",
    "ok_fraction": "ratio",
}
LAYERS = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
LAYER_UNITS = {m["name"]: m["unit"] for m in LAYERS["layer_metrics"]}


@dataclass
class CommandRecord:
    """One CLI command as the child reported it, plus the parent's checks."""

    kind: str
    argv: list[str]
    exit_code: int
    command_s: float | None
    setup_s: float | None
    peak_rss_bytes: int | None
    spans: list[dict] | None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def filesystem_type(path: Path) -> str:
    try:
        proc = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def truth_mae(pgm, mosaic_path: Path, truth_path: Path) -> float:
    """Mean |mosaic - truth| in unit intensity, truth cropped to the canvas.

    Sub-pixel truth can be one pixel larger than the canvas.  Integer
    differences summed in row blocks keep the result exact and the
    parent's memory small.
    """
    mosaic = pgm.read_pgm(mosaic_path)
    truth = pgm.read_pgm(truth_path)
    h, w = mosaic.shape
    if truth.shape[0] < h or truth.shape[1] < w:
        raise ValueError(f"truth {truth.shape} smaller than mosaic {mosaic.shape}")
    total = 0
    for y0 in range(0, h, 256):
        y1 = min(y0 + 256, h)
        m = mosaic[y0:y1].astype("int32")
        t = truth[y0:y1, :w].astype("int32")
        total += int(abs(m - t).sum(dtype="int64"))
    return total / (h * w * pgm.MAXVAL)


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        from galvomosaic import pgm

        self.pgm = pgm
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.work = fresh_dir(WORK / f"{workload.name}-seed{seed}-trace{int(trace)}")
        self.work.mkdir()
        self.config = self.work / "scan.cfg"
        self.config.write_text(workload.config, encoding="ascii")
        self.warmup_config = self.work / "warmup.cfg"
        self.warmup_config.write_text(workload.warmup_config, encoding="ascii")
        self.digests: dict[str, str] = {}
        self.truth_errors: dict[tuple[str, str], float] = {}
        self.measured: list[CommandRecord] = []
        self.iterations: list[list[CommandRecord]] = []

    # -- commands -----------------------------------------------------
    def run_command(self, kind: str, argv: list[str], trace: bool) -> CommandRecord:
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.start)
        result_path = self.work / "child_result.json"
        result_path.unlink(missing_ok=True)
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
                 "1" if trace else "0", *argv],
                env=child_env(), cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, min(CHILD_TIMEOUT_S, remaining)),
            )
        except subprocess.TimeoutExpired:
            return CommandRecord(kind, argv, -1, None, None, None, None, ["timed out"])
        try:
            res = json.loads(result_path.read_text(encoding="ascii"))
        except (OSError, ValueError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return CommandRecord(
                kind, argv, proc.returncode or 1, None, None, None, None,
                [f"child wrote no result: {tail[0]}"],
            )
        record = CommandRecord(
            kind=kind,
            argv=argv,
            exit_code=res["exit_code"],
            command_s=res["command_s"],
            setup_s=res["ready_monotonic"] - spawn,
            peak_rss_bytes=res["peak_rss_bytes"],
            spans=res["spans"],
        )
        if record.exit_code != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            record.problems.append(f"exit code {record.exit_code}: {tail[0]}")
        return record

    def expect_digest(self, record: CommandRecord, key: str, path: Path) -> str:
        digest = sha256_file(path)
        if digest != self.digests.setdefault(key, digest):
            record.problems.append(f"{path.name} differs from the run's first {key}")
        return digest

    # -- checks -------------------------------------------------------
    def check_dataset(self, record: CommandRecord, dataset: Path) -> None:
        manifest = json.loads((dataset / "manifest.json").read_text(encoding="ascii"))
        scan = manifest["scan"]
        if len(manifest["tiles"]) != scan["n_rows"] * scan["n_cols"]:
            record.problems.append("manifest tile count differs from the grid")
        missing = [t["path"] for t in manifest["tiles"] if not (dataset / t["path"]).is_file()]
        if missing or not (dataset / manifest["truth"]).is_file():
            record.problems.append(f"dataset files missing: {missing[:3]}")
        self.expect_digest(record, "manifest", dataset / "manifest.json")

    def check_stitch(self, record: CommandRecord, dataset: Path, out: Path, mode: str) -> None:
        mosaic_path, sidecar_path = out / "mosaic.pgm", out / "sidecar.json"
        canvas = json.loads(sidecar_path.read_text(encoding="ascii"))["canvas"]
        shape = self.pgm.read_pgm(mosaic_path).shape
        if shape != (canvas["height"], canvas["width"]):
            record.problems.append(f"mosaic {shape} differs from sidecar canvas {canvas}")
        key = (mode, self.expect_digest(record, f"mosaic_{mode}", mosaic_path))
        self.expect_digest(record, f"sidecar_{mode}", sidecar_path)
        if key not in self.truth_errors:
            self.truth_errors[key] = truth_mae(self.pgm, mosaic_path, dataset / "truth.pgm")
        value = self.truth_errors[key]
        index = 0 if mode == "raw" else 1
        reference = self.workload.truth_mae[index]
        tolerance = self.workload.truth_tolerance[index]
        if not abs(value - reference) <= tolerance * reference:
            record.problems.append(
                f"truth MAE {value:.6g} outside {tolerance:.0%} of reference {reference:.6g}"
            )

    def check_report(self, record: CommandRecord, report_dir: Path) -> None:
        report = json.loads((report_dir / "report.json").read_text(encoding="ascii"))
        for key in ("cnr", "bright_std", "dark_std", "mean_seam_jump", "mae_mean"):
            if not isinstance(report[key], (int, float)) or not math.isfinite(report[key]):
                record.problems.append(f"report {key} is {report[key]!r}")
        self.expect_digest(record, "report", report_dir / "report.json")

    def checked(self, record: CommandRecord, check, *args) -> CommandRecord:
        if record.exit_code == 0:
            try:
                check(record, *args)
            except (OSError, ValueError, KeyError, TypeError, self.pgm.ImageFormatError) as exc:
                record.problems.append(f"output check failed: {type(exc).__name__}: {exc}")
        return record

    # -- one pipeline pass --------------------------------------------
    def iteration(
        self, tag: str, repeats: dict[str, int], trace: bool = False, warmup: bool = False
    ) -> list[CommandRecord]:
        base = fresh_dir(self.work / tag)
        config = self.warmup_config if warmup else self.config
        checked = (lambda record, *_: record) if warmup else self.checked
        records = []
        # Every command writes to a directory of its own.  Nothing is deleted
        # until the pass is over, so unlinks and the journal work they cause
        # stay out of the timed commands.
        for k in range(repeats["simulate"]):
            dataset = base / f"dataset{k}"
            argv = ["simulate", "--config", str(config), "--out", str(dataset),
                    "--seed", str(self.seed)]
            record = self.run_command("simulate", argv, trace)
            records.append(checked(record, self.check_dataset, dataset))
        outputs = {}
        for mode in ("raw", "processed"):
            for k in range(repeats[f"stitch_{mode}"]):
                out = outputs[mode] = base / f"stitch_{mode}{k}"
                argv = ["stitch", "--dataset", str(dataset), "--out", str(out), "--mode", mode]
                record = self.run_command(f"stitch_{mode}", argv, trace)
                records.append(checked(record, self.check_stitch, dataset, out, mode))
        for k in range(repeats["evaluate"]):
            report = base / f"report{k}"
            argv = ["evaluate", "--mosaic", str(outputs["processed"] / "mosaic.pgm"),
                    "--sidecar", str(outputs["processed"] / "sidecar.json"), "--out", str(report)]
            record = self.run_command("evaluate", argv, trace)
            records.append(checked(record, self.check_report, report))
        # Deleting the outputs before writeback keeps flushes out of later timings.
        shutil.rmtree(base, ignore_errors=True)
        return records

    def out_of_time(self) -> bool:
        return time.monotonic() - self.start > RUN_DEADLINE_S - 10.0

    def run(self) -> None:
        once = dict.fromkeys(COMMANDS, 1)
        # The warm-up runs every command on a 2x2 grid of the same config:
        # imports, byte-code and library pages get warm for a few percent
        # of a full pass.  Its outputs are not checked.
        self.iteration("warmup", once, warmup=True)
        measure_start = time.monotonic()
        while True:
            if self.trace:
                plain = self.iteration("untraced", once)
                traced = self.iteration("traced", once, trace=True)
                self.iterations.append(plain + traced)
                self.measured += plain + traced
            else:
                records = self.iteration(f"iter{len(self.iterations)}", self.workload.repeats)
                self.iterations.append(records)
                self.measured += records
            if time.monotonic() - measure_start >= self.seconds or self.out_of_time():
                break

    # -- results ------------------------------------------------------
    def samples(self, kind: str, attr: str) -> list[float]:
        return [
            getattr(r, attr) for r in self.measured
            if r.kind == kind and getattr(r, attr) is not None and r.spans is None
        ]

    def end_to_end(self) -> tuple[dict[str, float | None], dict[str, int]]:
        values: dict[str, float | None] = {}
        counts: dict[str, int] = {}

        def median(name: str, samples: list[float], scale: float = 1.0) -> None:
            counts[name] = len(samples)
            values[name] = statistics.median(samples) * scale if samples else None

        median("setup_s", [r.setup_s for r in self.measured if r.setup_s is not None])
        for kind in COMMANDS:
            median(f"{kind}_s", self.samples(kind, "command_s"))
        for kind in COMMANDS:
            median(f"{kind}_peak_rss_mb", self.samples(kind, "peak_rss_bytes"), 1.0 / 2**20)
        for mode in ("raw", "processed"):
            key = (mode, self.digests.get(f"mosaic_{mode}"))
            values[f"truth_mae_{mode}"] = self.truth_errors.get(key)
            counts[f"truth_mae_{mode}"] = len([k for k in self.truth_errors if k[0] == mode])
        ok = sum(r.ok for r in self.measured)
        values["ok_fraction"] = ok / len(self.measured) if self.measured else 0.0
        counts["ok_fraction"] = len(self.measured)
        return values, counts

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of the traced passes, and the counts that differed between passes.

        Times are medians over the traced passes; counts come from the
        first pass and must repeat exactly in every other one.
        """
        passes = [
            layer_totals([r.spans for r in records if r.spans is not None])
            for records in self.iterations
        ]
        values: dict[str, float] = {}
        unstable = []
        for name, unit in LAYER_UNITS.items():
            samples = [p.get(name, 0.0) for p in passes]
            if unit == "s":
                values[name] = statistics.median(samples)
            else:
                values[name] = samples[0]
                if any(s != samples[0] for s in samples):
                    unstable.append(name)
        calls = values["correction.apply_roi_corrections.calls"]
        values["correction.apply_roi_corrections.calls_per_tile"] = calls / self.workload.n_tiles
        totals = {
            traced: statistics.median(
                sum(r.command_s or 0.0 for r in records if (r.spans is not None) == traced)
                for records in self.iterations
            )
            for traced in (False, True)
        }
        values["trace_overhead_s"] = totals[True] - totals[False]
        return values, unstable

    def write_trace(self, path: Path) -> None:
        commands = [
            {"iteration": k, "kind": r.kind, "argv": r.argv, "exit_code": r.exit_code,
             "spans": r.spans}
            for k, records in enumerate(self.iterations)
            for r in records
            if r.spans is not None
        ]
        payload = {
            "schema": TRACE_SCHEMA,
            "workload": self.workload.name,
            "seed": self.seed,
            "clock": "time.perf_counter seconds within each command's process",
            "commands": commands,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="ascii")


def layer_totals(span_lists: list[list[dict]]) -> dict[str, float]:
    """Sum self time, wait, calls and counters by span name over the given commands."""
    totals: dict[str, float] = defaultdict(float)
    for spans in span_lists:
        child_wall: dict[int, float] = defaultdict(float)
        child_cpu: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_wall[s["parent"]] += s["end"] - s["start"]
                child_cpu[s["parent"]] += s["cpu_s"]
        for s in spans:
            name = s["name"]
            self_wall = s["end"] - s["start"] - child_wall[s["id"]]
            self_cpu = s["cpu_s"] - child_cpu[s["id"]]
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += self_wall
            totals[f"{name}.wait_s"] += self_wall - self_cpu
            for key, value in s["counts"].items():
                if key == "canvas_bytes":
                    totals["compose.canvas_bytes"] = max(totals["compose.canvas_bytes"], value)
                else:
                    totals[f"{name}.{key}"] += value
            if s["error"] is not None:
                totals[f"{name.split('.')[0]}.errors"] += 1
    return totals


def environment(work: Path) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "output_dir": os.path.relpath(work, ROOT),
        "output_filesystem": filesystem_type(work),
        "child_env": THREAD_ENV,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "galvomosaic" / "cli.py").is_file():
        print(f"error: no galvomosaic sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(THREAD_ENV)

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    env = environment(bench.work)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(env))
    bench.run()

    values, counts = bench.end_to_end()
    problems = [f"{r.kind}: {p}" for r in bench.measured for p in r.problems]
    results = {"environment": env, "end_to_end": values, "samples": counts}
    if args.trace:
        layer_values, unstable = bench.per_layer()
        problems += [f"count {name} differs between traced passes" for name in unstable]
        trace_path = WORK / f"trace_{args.workload}_seed{args.seed}.json"
        bench.write_trace(trace_path)
        results["per_layer"] = layer_values
        results["trace_file"] = os.path.relpath(trace_path, ROOT)
        baseline = LAYERS["baseline_counts"].get(args.workload, {})
        for name, value in layer_values.items():
            note = ""
            if name in baseline and baseline[name] != value:
                note = f"  (baseline {baseline[name]})"
            print(f"{name:52s} {value:.6g} {LAYER_UNITS[name]}{note}")
    for name, value in values.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:52s} {shown} {E2E_UNITS[name]}  (n={counts[name]})")
    for problem in problems:
        print(f"problem: {problem}")
    results["problems"] = problems
    (WORK / f"results_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(results, indent=2) + "\n", encoding="ascii"
    )
    shutil.rmtree(bench.work, ignore_errors=True)

    units, reported = (LAYER_UNITS, layer_values) if args.trace else (E2E_UNITS, values)
    print(json.dumps({
        "correct": not problems and None not in values.values(),
        "attempted": len(bench.measured),
        "failed": sum(not r.ok for r in bench.measured),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
