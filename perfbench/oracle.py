"""Correctness oracle: judge one CLI report point by point.

An operation is one sweep point of one invocation.  A point fails when it
has no check entries (``run``) or no spectrum, when any of its check
entries failed, or when its spectrum is off the reference by more than the
isospectrality tolerance ``1e-10 * (1 + max|lambda|)``.

Separately from failures, the oracle lists *problems*: outputs that
contradict the reference or the CLI contract, such as a spectrum off the
reference, an exit code that disagrees with the verdicts, or a report that
is missing or malformed.  A run with problems is not correct.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SPECTRUM_TOL = 1e-10  # the default isospectrality tolerance


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    checks: list[dict] = field(default_factory=list)


def spectrum_deviation(eigenvalues, reference) -> float:
    """Relative deviation of a reported spectrum from the reference, or inf."""
    lam = np.array([complex(re, im) for re, im in eigenvalues])
    ref = np.asarray(reference, dtype=float)
    if lam.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(lam - ref)) / (1.0 + np.max(np.abs(ref))))


def sweep_points(config: dict) -> list[float | None]:
    """The ``sweepValue`` of each point the CLI reports for ``config``, in order."""
    sweep = config.get("sweep")
    return [None] if sweep is None else list(sweep["values"])


def judge(
    command: str, config: dict, references: list, stdout: str, exit_code: int
) -> Verdict:
    """Judge the report an invocation of ``command`` on ``config`` printed.

    ``references`` holds the reference spectrum of each sweep point.
    """
    points = sweep_points(config)
    verdict = Verdict(attempted=len(points))
    try:
        report = json.loads(stdout)
        entries = list(report["checks"])
        spectra = {block["sweepValue"]: block["eigenvalues"] for block in report["spectra"]}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        verdict.failed = len(points)
        verdict.problems.append(f"no readable report (exit {exit_code}): {exc!r}")
        return verdict
    verdict.checks = entries

    for value, reference in zip(points, references):
        ok = True
        if command == "run":
            if value is None:
                mine = entries
            else:
                label = f"[{config['sweep']['path']}={value:g}]"
                mine = [e for e in entries if e["detail"].startswith(label)]
            ok = bool(mine) and all(e["passed"] for e in mine)
        if value not in spectra:
            ok = False
        else:
            dev = spectrum_deviation(spectra[value], reference)
            if not dev <= SPECTRUM_TOL:
                ok = False
                verdict.problems.append(
                    f"spectrum at sweep value {value} is off the reference by {dev:.3e}"
                )
        verdict.failed += not ok

    # A numerical failure aborts the sweep with exit 3: its points fail, but
    # the output is what the CLI promises.
    expected = 3 if "error" in report else int(any(not e["passed"] for e in entries))
    if exit_code != expected:
        verdict.problems.append(
            f"exit code {exit_code}, but the report calls for {expected}"
        )
    return verdict
