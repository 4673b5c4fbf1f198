"""Compare the ``metriq`` CLI of this tree with that of another source tree, command by command.

    python tests/same_outputs.py OTHER_SRC

Run from the repository root; ``OTHER_SRC`` is the ``src`` directory of another checkout, such
as a pull request's base.  Each of 35 configs goes to ``metriq run``, ``verify`` and
``spectrum`` on one BLAS thread (``OPENBLAS_NUM_THREADS=1``), 105 commands, each run once on
this tree's ``src`` and once on ``OTHER_SRC``.  The configs are the nine ``CONFIGS`` of
``tests/test_golden.py`` and the seven ``tests/configs/*.json``, at ``--seed 1``, the
seed-1 and seed-2 configs of the three benchmark workloads with their own ``--seed``, as
``perfbench/workloads.make_inputs`` draws them, and the 13 ``REFUSALS`` at ``--seed 1``, so a
refusal whose message or exit code moves shows too.  Prints each command whose stdout, stderr
or exit code differs, then the count; exits 1 if any differs, else 0.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from test_cli import GUARD_EDGE_MODELS, _deformed  # noqa: E402
from test_golden import CONFIGS  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

# configs the CLI refuses with exit 2
REFUSALS = {
    **{f"{m['kind']} past the overflow guard": {"model": _deformed(m, 1.01)}
       for m in GUARD_EDGE_MODELS},
    "one-site ring": {"model": {"kind": "haldaneShastry", "n_sites": 1}},
    "13-site chain": {"model": {"kind": "xxzAsymmetric", "n_sites": 13}},
    "asymmetric alpha": {"model": {"kind": "bosonQuadratic", "alpha": [[2.0, 0.3], [0.2, 1.5]],
                                   "beta": [[0.4, 0.1], [0.1, -0.2]], "gammas": [0.3, -0.2]}},
    "pairing with a diagonal": {"model": {"kind": "fermionQuadratic",
                                          "hopping": [[1.0, 0.3], [0.3, 0.8]],
                                          "pairing": [[0.1, 0.2], [-0.2, 0.0]],
                                          "gammas": [0.3, -0.2]}},
    # the first point is just inside the guard, the second past it
    "sweep past the overflow guard": {
        "model": {"kind": "xxzAsymmetric", "n_sites": 3, "gammas": [39.8, 39.8, -39.8]},
        "sweep": {"path": "gammas[0]", "values": [39.8, 45.0]}},
}


def configs(tmp: Path) -> list[tuple[str, Path, int]]:
    """``(name, path, seed)`` of each config, the generated ones written under ``tmp``."""
    out = []
    for name, model in sorted(CONFIGS.items()):
        out.append((f"golden {name}", tmp / f"golden_{name}.json", 1))
        out[-1][1].write_text(json.dumps({"model": model}))
    for path in sorted((ROOT / "tests" / "configs").glob("*.json")):
        out.append((f"tests/configs/{path.name}", path, 1))
    for name in WORKLOADS:
        for seed in (1, 2):
            config, metriq_seed = make_inputs(name, seed)
            out.append((f"workload {name} seed {seed}", tmp / f"{name}_{seed}.json", metriq_seed))
            out[-1][1].write_text(json.dumps(config))
    for i, (name, config) in enumerate(REFUSALS.items()):
        out.append((f"refusal {name}", tmp / f"refusal_{i}.json", 1))
        out[-1][1].write_text(json.dumps(config))
    return out


def outputs(src: Path, argv: list[str], cwd: Path) -> tuple[bytes, bytes, int]:
    """stdout, stderr (with ``src`` written as ``<src>``) and exit code of ``metriq argv``."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "metriq.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, check=False)
    return done.stdout, done.stderr.replace(str(src).encode(), b"<src>"), done.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    ours, other = ROOT / "src", Path(argv[0]).resolve()
    differ = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, path, seed in configs(Path(tmp)):
            for command in ("run", "verify", "spectrum"):
                runs = [outputs(src, [command, str(path), "--seed", str(seed)], Path(tmp))
                        for src in (ours, other)]
                what = [part for part, a, b in zip(("stdout", "stderr", "exit code"), *runs)
                        if a != b]
                total += 1
                if what:
                    differ += 1
                    print(f"differs: metriq {command} {name} --seed {seed}: {', '.join(what)} "
                          f"(exit {runs[0][2]} here, {runs[1][2]} there)", flush=True)
    print(f"{differ} of {total} commands differ between {ours} and {other}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
