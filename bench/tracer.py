"""Spans around galvomosaic's public functions, installed from outside the package.

``Tracer`` replaces each target function with a wrapper that records one
span per call: name, start, end, parent span id and process CPU time.
Every binding of the same function object across the ``galvomosaic.*``
module namespaces is replaced, so ``from .compose import
compose_feathered`` in ``cli`` is caught as well; methods are replaced on
their class.  Spans stay in memory until :meth:`Tracer.spans` is read.
Per-pixel and per-placement scalar helpers (``rasterize``,
``round_half_away``) are deliberately not wrapped: a span there would cost
more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# module -> public functions and methods ("Class.method") that get a span.
TARGETS: dict[str, tuple[str, ...]] = {
    "config": ("load_run_config",),
    "geometry": ("placement_table",),
    "simulate": ("make_target", "extract_tiles", "degrade", "write_dataset", "load_manifest"),
    "pgm": ("read_pgm", "write_pgm", "to_unit", "to_u16"),
    "correction": ("fit_two_point", "fit_bright_only", "apply_roi_corrections"),
    "compose": (
        "compute_overlaps",
        "derive_seams",
        "tile_weight_map",
        "compose_raw",
        "compose_feathered",
        "MosaicCanvas.finalize",
    ),
    "metrics": ("normalized_mae", "cnr", "region_std", "mean_seam_jump"),
    "cli": ("cmd_simulate", "cmd_stitch", "cmd_evaluate"),
}


def _nbytes_result(args, kwargs, result):
    return int(result.nbytes)


def _nbytes_first_arg(args, kwargs, result):
    img = args[1] if len(args) > 1 else kwargs["img"]
    return int(np.asarray(img).nbytes)


def _pixels_first_arg(args, kwargs, result):
    samples = args[0] if args else kwargs["samples_i"]
    return int(np.size(samples))


def _canvas_bytes(args, kwargs, result):
    # value_sum + weight_sum (float64) + touch_count (uint8) per pixel.
    return int(result.width) * int(result.height) * 17


# span name -> (counter name, function computing it from the call).  All
# counts are computed from array sizes, not measured.
COUNTERS = {
    "pgm.read_pgm": ("bytes", _nbytes_result),
    "pgm.write_pgm": ("bytes", _nbytes_first_arg),
    "metrics.normalized_mae": ("pixels", _pixels_first_arg),
    "compose.compose_raw": ("canvas_bytes", _canvas_bytes),
    "compose.compose_feathered": ("canvas_bytes", _canvas_bytes),
}


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "galvomosaic" or name.startswith("galvomosaic."))
    ]


class Tracer:
    """Install wrappers with :meth:`install`; :meth:`uninstall` restores every binding.

    Use as a context manager.  Single-threaded: the open-span stack is
    shared by every wrapper.
    """

    def __init__(self) -> None:
        self._spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> list[dict]:
        return list(self._spans)

    def install(self) -> None:
        for module_name, targets in TARGETS.items():
            module = importlib.import_module(f"galvomosaic.{module_name}")
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._bind(owner, attr, self._wrap(f"{module_name}.{target}", original))
                else:
                    original = getattr(module, attr)
                    wrapped = self._wrap(f"{module_name}.{attr}", original)
                    for mod in _package_modules():
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._bind(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _bind(self, owner, name: str, wrapped) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapped)

    def _wrap(self, span_name: str, func):
        counter = COUNTERS.get(span_name)
        spans, stack = self._spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": span_name,
                "parent": stack[-1] if stack else None,
                "start": time.perf_counter(),
                "end": None,
                "cpu_s": None,
                "error": None,
                "counts": {},
            }
            spans.append(span)
            stack.append(span["id"])
            cpu0 = time.process_time()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["cpu_s"] = time.process_time() - cpu0
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                key, count = counter
                span["counts"][key] = count(args, kwargs, result)
            return result

        return wrapper
