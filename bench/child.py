"""Run one galvomosaic CLI command in this fresh interpreter and report on it.

    python3 child.py RESULT_JSON TRACE(0|1) CLI_ARGS...

Writes RESULT_JSON with the exit code, the ``time.monotonic()`` reading
once ``galvomosaic.cli`` is imported (the parent subtracts its spawn
time to get set-up time), the ``perf_counter`` wall time of
``cli.main(argv)``, this process's peak RSS and, when TRACE is 1, the
spans recorded around the package's public functions.
"""

import sys
import time

from galvomosaic import cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imported after READY so set-up time is only the program's)
import json  # noqa: E402
import resource  # noqa: E402


def peak_rss_bytes() -> int:
    """High-water RSS of this process image.

    ``VmHWM`` is reset by exec; ``ru_maxrss`` is not, and can carry the
    parent's peak into the child.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main() -> None:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    result = {
        "exit_code": code,
        "ready_monotonic": READY,
        "command_s": elapsed,
        "peak_rss_bytes": peak_rss_bytes(),
        "spans": tracer.spans() if tracer else None,
    }
    with open(result_path, "w", encoding="ascii") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
