"""Benchmark of the metriq CLI: end-to-end runs, or one traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates the workload's config
(see ``workloads.py``); each invocation is one child process running the
checkout's ``src/metriq`` CLI on that config, with BLAS pinned to one
thread.  With ``--trace 0`` the benchmark invokes the CLI until ``--seconds``
have passed (at least once) and reports the medians of the end-to-end
metrics.  With ``--trace 1`` it makes one untraced and one traced
invocation and reports the per-layer metrics of the traced one.  Every
report is judged by the oracle in ``oracle.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, and the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up time is the median over the invocations plus this many spawns
# that only import the CLI.
SETUP_SPAWNS = 7
CHILD_TIMEOUT_S = 170.0
# One BLAS thread: the numbers measure the program, not the scheduler.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    stamp: dict
    stdout: str
    stderr: str
    spans: dict | None = None


def spawn(workdir: Path, cli_args: list[str], trace: bool = False) -> Invocation:
    """Run ``child.py`` once; time it from spawn to exit and read its rusage."""
    stamp_path = workdir / "stamp.json"
    spans_path = workdir / "spans.json"
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    for path in (stamp_path, spans_path):
        path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        str(stamp_path),
        str(spans_path) if trace else "-",
        *cli_args,
    ]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = _clock()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, cwd=workdir, env={**os.environ, **BLAS_ENV}
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = _clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not stamp_path.exists():
        raise RuntimeError(
            f"child exited {proc.returncode} before entering the CLI:\n"
            + err_path.read_text()
        )
    stamp = json.loads(stamp_path.read_text())
    return Invocation(
        exit_code=proc.returncode,
        wall_s=ended - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        setup_s=stamp["entered"] - started,
        stamp=stamp,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        spans=json.loads(spans_path.read_text()) if spans_path.exists() else None,
    )


def environment(workload: str, seed: int, metriq_seed: int, blas: dict) -> dict:
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        blas_build = None
    return {
        "workload": workload,
        "seed": seed,
        "metriq_seed": metriq_seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas_build,
        "blas_env": BLAS_ENV,
        **{k: v for k, v in blas.items() if k.startswith("blas_")},
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    from oracle import judge
    from tracer import PER_LAYER, layer_metrics
    from workloads import make_inputs, reference_spectra

    workload = WORKLOADS[workload_name]
    config, metriq_seed = make_inputs(workload_name, seed)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    cli_args = [workload.command, str(config_path), "--seed", str(metriq_seed)]

    # Untimed warm-up: writes bytecode caches and reports the child's BLAS.
    warm = spawn(workdir, [])

    started = _clock()
    runs = [spawn(workdir, cli_args)]
    while not trace and _clock() - started < seconds:
        runs.append(spawn(workdir, cli_args))
    traced = spawn(workdir, cli_args, trace=True) if trace else None

    refs = reference_spectra(config)
    judged = runs + ([traced] if traced else [])
    verdicts = [judge(workload.command, config, refs, r.stdout, r.exit_code) for r in judged]
    problems = [p for v in verdicts for p in v.problems]
    if len({r.stdout for r in judged}) != 1:
        problems.append("reports differ between invocations of one config and seed")
    if traced and traced.spans is None:
        problems.append(f"the traced run wrote no spans:\n{traced.stderr}")

    wall = statistics.median(r.wall_s for r in runs)
    if trace:
        units = dict(PER_LAYER)
        values = layer_metrics(traced.spans["spans"] if traced.spans else [], verdicts[-1].checks)
        values["trace.overhead_s"] = traced.wall_s - wall
        samples = {"untraced": len(runs), "traced": 1}
    else:
        units = dict(END_TO_END)
        setups = [r.setup_s for r in runs] + [
            spawn(workdir, []).setup_s for _ in range(SETUP_SPAWNS)
        ]
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": statistics.median(setups),
        }
        samples = {"invocations": len(runs), "setup": len(setups)}
    result = {
        "correct": not problems,
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    env = environment(workload_name, seed, metriq_seed, warm.stamp)
    env["samples"] = samples
    if traced and traced.spans:
        env["trace_missing"] = traced.spans["missing"]
    return result, env, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "metriq" / "cli.py").is_file():
        print(f"error: no metriq sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before the oracle loads numpy
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result, env, problems = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"# problem: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6f} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':36s} {share:>16.6f} ({result['failed']}/{result['attempted']} points)")
    print(f"# env {json.dumps(env)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
