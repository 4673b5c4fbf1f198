"""One metriq CLI invocation, as the benchmark spawns it.

    python3 perfbench/child.py STAMP SPANS [metriq arguments...]

Imports ``metriq.cli`` from the checkout's ``src`` directory, then writes a
JSON stamp to STAMP holding the ``CLOCK_MONOTONIC`` time at which it enters
the CLI entry point; the parent, which noted the same clock at spawn, takes
the difference as set-up time.  With no metriq arguments it stops there,
after adding the BLAS library and thread count it sees to the stamp.  With
SPANS other than ``-`` it runs the CLI under the span tracer and writes the
spans to SPANS.  The exit code is the CLI's.
"""
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def blas_info() -> dict:
    """Name and thread count of the OpenBLAS this process loaded, if any."""
    import ctypes
    import re

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as maps:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            threads = getattr(lib, f"{prefix}_get_num_threads64_", None)
            config = getattr(lib, f"{prefix}_get_config64_", None)
            if threads is None or config is None:
                threads = getattr(lib, f"{prefix}_get_num_threads", None)
                config = getattr(lib, f"{prefix}_get_config", None)
            if threads is None or config is None:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return {
                "blas_library": os.path.basename(path),
                "blas_config": config().decode(),
                "blas_threads": threads(),
            }
    return {"blas_library": None, "blas_config": None, "blas_threads": None}


def main(argv: list[str]) -> int:
    stamp_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, str(SRC))
    import metriq.cli

    entered = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not Path(metriq.cli.__file__).resolve().is_relative_to(SRC):
        print(f"metriq was imported from {metriq.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    stamp = {"entered": entered}
    if not cli_args:
        stamp.update(blas_info())
        Path(stamp_path).write_text(json.dumps(stamp))
        return 0
    Path(stamp_path).write_text(json.dumps(stamp))
    if spans_path == "-":
        return metriq.cli.main(cli_args)

    import tracemalloc

    from tracer import ROOT, Tracer

    tracer = Tracer()
    tracer.install()
    tracemalloc.start()
    span = tracer.enter(ROOT)
    try:
        code = metriq.cli.main(cli_args)
    finally:
        tracer.exit(span)
        tracemalloc.stop()
    Path(spans_path).write_text(
        json.dumps({"spans": tracer.records(), "missing": tracer.missing})
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
