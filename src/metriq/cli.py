"""Batch front end: parse model configs, run check suites and sweeps.

Subcommands
-----------
``metriq run <config.json>``
    Build the model, run the requested checks and compute spectra (per
    sweep point when a sweep is configured), emit a JSON report and
    optionally a CSV spectra table.  The checks pass on bounds from one pass
    over the hermitian-equivalent form and solve no eigenproblem; a general
    ``eig`` runs only where a bound does not certify a check.  The spectrum is
    read as for ``metriq spectrum``.
``metriq spectrum <config.json>``
    Spectra only: ``eigvalsh`` per sector of the hermitian-equivalent form
    ``F``, once ``F``'s hermiticity defect is within tolerance.
``metriq verify <config.json>``
    Checks only, one summary line per check.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config
error, 3 numerical failure.  Reports are deterministic for a fixed
``(config, seed)`` pair at a fixed BLAS build and thread count; the seed is
echoed in every report.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bosonic import (
    BosonQuadraticForm,
    FockSpace,
    StabilityError,
    bogoliubov_frequencies,
    build_lmg,
    build_metric,
    build_quadratic_hamiltonian,
)
from .linops import MetricSpec, _finite, _Triplets
from .oscillator2d import OscillatorParams, build_xy_hamiltonian, oscillator_metric
from .spinchain import (
    FermionQuadraticSpec,
    SpinChainSpec,
    _check_chain,
    build_fermion_quadratic,
    build_haldane_shastry,
    build_xxz_asymmetric,
    build_zeta_metric,
    fermion_metric,
)
from .verify import (
    DEFAULT_SEED,
    DEFAULT_TOLERANCES,
    CheckResult,
    GradedMatrix,
    _point,
    _selection,
)

__all__ = [
    "ConfigError",
    "ModelSpec",
    "SweepSpec",
    "OutputSpec",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

BOGOLIUBOV_TOL = 1e-10


class ConfigError(ValueError):
    """Invalid configuration text, schema, or parameter values."""


# ---------------------------------------------------------------------------
# Schema


def _real(name, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"field '{name}' must be a number, got {v!r}")
    return _refuse(_finite, f"field '{name}'", float(v))


def _positive_int(name, v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"field '{name}' must be an integer, got {v!r}")
    if v < 1:
        raise ConfigError(f"field '{name}' must be positive, got {v}")
    return v


def _refuse(check, *args):
    """``check(*args)``, a ``ValueError`` or ``TypeError`` it raises made a ``ConfigError``."""
    try:
        return check(*args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _sites(name, v):
    """A site count, held to the chains' one site cap before any per-site list is built."""
    n = _positive_int(name, v)
    _refuse(_check_chain, n)
    return n


def _real_list(name, v):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"field '{name}' must be a non-empty list of numbers")
    return [_real(f"{name}[{i}]", x) for i, x in enumerate(v)]


def _matrix(name, v):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"field '{name}' must be a non-empty list of rows")
    rows = []
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != len(v):
            raise ConfigError(f"field '{name}' must be square: row {i}")
        rows.append([_real(f"{name}[{i}][{j}]", x) for j, x in enumerate(row)])
    return rows


def _sign(name, v):
    if isinstance(v, bool) or v not in (1, -1):
        raise ConfigError(f"field '{name}' must be 1 or -1, got {v!r}")
    return int(v)


def _deformation(required: bool) -> dict:
    """Schema of the per-mode ``gammas`` and ``xis`` of ``w = gamma + 1j xi``."""
    return {"gammas": (required, _real_list, None), "xis": (False, _real_list, None)}


# field -> (required, coercer, default); None default means "derived later"
_CHAIN = {  # the fields of a SpinChainSpec
    "n_sites": (True, _sites, None),
    "gamma_exchange": (False, _real, 1.0),
    "delta": (False, _real, 0.0),
    "fields_a": (False, _real_list, None),
    "fields_b": (False, _real_list, None),
    "fields_c": (False, _real_list, None),
}

# the checks the CLI runs and their tolerances: the suite's, and bogoliubov, which it runs itself
_TOLERANCES = {**DEFAULT_TOLERANCES, "bogoliubov": BOGOLIUBOV_TOL}


def _select(checks: list, tolerances: list, kind: str) -> dict:
    """Checks and ``(name, value)`` tolerances by verify's one rule, with the CLI's own: bogoliubov
    only on bosonQuadratic.  Returns every tolerance, the overrides applied."""
    for what, names in (("check", checks), ("tolerance", [k for k, _ in tolerances])):
        if "bogoliubov" in names and kind != "bosonQuadratic":
            raise ConfigError(f"{what} 'bogoliubov' applies only to bosonQuadratic")
    return _refuse(_selection, checks, tolerances, _TOLERANCES)


class ModelSpec(NamedTuple):
    """Validated model kind plus its normalized parameter block."""

    kind: str
    params: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}


class SweepSpec(NamedTuple):
    path: str
    values: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"path": self.path, "values": list(self.values)}


class OutputSpec(NamedTuple):
    path: str
    format: str = "json"

    def to_dict(self) -> dict:
        return {"path": self.path, "format": self.format}


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    checks: tuple[str, ...] | None = None
    sweep: SweepSpec | None = None
    output: OutputSpec | None = None
    # the model parse_config built to validate it, kept for a config with no sweep
    _built: _Built | None = field(default=None, init=False, repr=False, compare=False)

    def to_dict(self) -> dict:
        out: dict = {"model": self.model.to_dict()}
        if self.checks is not None:
            out["checks"] = list(self.checks)
        if self.sweep is not None:
            out["sweep"] = self.sweep.to_dict()
        if self.output is not None:
            out["output"] = self.output.to_dict()
        return out


def _normalize_model(block: dict) -> ModelSpec:
    if not isinstance(block, dict):
        raise ConfigError("'model' must be an object")
    if "kind" not in block:
        raise ConfigError("'model' needs a 'kind' field")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(
            f"unknown model kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    schema = _KINDS[kind].schema
    unknown = set(block) - set(schema) - {"kind"}
    if unknown:
        raise ConfigError(f"unknown field(s) for {kind}: {sorted(unknown)}")
    params: dict = {}
    for name, (required, coerce, default) in schema.items():
        if name in block:
            params[name] = coerce(name, block[name])
        elif required:
            raise ConfigError(f"model kind {kind} requires field '{name}'")
        elif default is not None:
            params[name] = default
    return ModelSpec(kind, params)


def _parse_sweep(block: dict, model: ModelSpec) -> SweepSpec:
    if not isinstance(block, dict):
        raise ConfigError("'sweep' must be an object")
    unknown = set(block) - {"path", "values"}
    if unknown:
        raise ConfigError(f"unknown field(s) in sweep: {sorted(unknown)}")
    if "path" not in block or "values" not in block:
        raise ConfigError("sweep needs 'path' and 'values'")
    path = block["path"]
    if not isinstance(path, str):
        raise ConfigError("sweep path must be a string")
    values = block["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep values must be a non-empty list")
    values = tuple(_real(f"values[{i}]", v) for i, v in enumerate(values))
    name, _ = _resolve_sweep_slot(model.params, path)
    if _KINDS[model.kind].schema[name][1] not in (_real, _real_list):
        raise ConfigError(f"sweep path {path!r} names a matrix or integer parameter")
    return SweepSpec(path, values)


def _resolve_sweep_slot(params: dict, path: str) -> tuple[str, int | None]:
    name, _, rest = path.partition("[")
    index: int | None = None
    if rest:
        if not rest.endswith("]") or not rest[:-1].isdigit():
            raise ConfigError(f"malformed sweep path {path!r}")
        index = int(rest[:-1])
    if name not in params:
        raise ConfigError(f"sweep path {path!r} does not name a model parameter")
    target = params[name]
    if index is None:
        if isinstance(target, list):
            raise ConfigError(f"sweep path {path!r} needs an index into '{name}'")
    else:
        if not isinstance(target, list):
            raise ConfigError(f"sweep path {path!r} indexes a scalar parameter")
        if index >= len(target):
            raise ConfigError(
                f"sweep index {index} out of range for '{name}' (length {len(target)})"
            )
    return name, index


def _apply_sweep(params: dict, path: str, value: float) -> dict:
    name, index = _resolve_sweep_slot(params, path)
    out = dict(params)
    if index is None:
        out[name] = value
    else:
        row = list(out[name])
        row[index] = value
        out[name] = row
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; reject unknown keys."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:  # nested past the interpreter's recursion limit
        raise ConfigError(f"parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {"model", "checks", "sweep", "output"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    if "model" not in raw:
        raise ConfigError("config needs a 'model' block")
    model = _normalize_model(raw["model"])
    built = _build_model(model)

    checks: tuple[str, ...] | None = None
    if "checks" in raw:
        block = raw["checks"]
        if not isinstance(block, list) or not block:
            raise ConfigError("'checks' must be a non-empty list of names")
        _select(block, [], model.kind)
        checks = tuple(block)

    sweep = _parse_sweep(raw["sweep"], model) if "sweep" in raw else None

    output = None
    if "output" in raw:
        block = raw["output"]
        if not isinstance(block, dict):
            raise ConfigError("'output' must be an object")
        unknown = set(block) - {"path", "format"}
        if unknown:
            raise ConfigError(f"unknown field(s) in output: {sorted(unknown)}")
        if "path" not in block or not isinstance(block["path"], str):
            raise ConfigError("output needs a string 'path'")
        fmt = block.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"output format must be 'json' or 'csv', got {fmt!r}")
        output = OutputSpec(block["path"], fmt)

    config = RunConfig(model, checks, sweep, output)
    object.__setattr__(config, "_built", built if sweep is None else None)
    return config


def serialize_config(config: RunConfig) -> str:
    """Inverse of :func:`parse_config` up to JSON formatting."""
    return json.dumps(config.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# Builders


class _Built(NamedTuple):
    """Hamiltonian as its nonzeros and metric weights ``w`` (``eta = diag(w)``)."""

    h: _Triplets
    w: np.ndarray
    form: BosonQuadraticForm | None = None


# Each builder takes w from its model's module before h, so the metric refuses a deformation past
# the overflow guard.
def _build_oscillator(p: dict) -> _Built:
    params = OscillatorParams(p["k1"], p["k2"], p["k3"], m=p["m"], gamma=p["gamma"], xi=p["xi"])
    space = FockSpace(2, p["cutoff"])
    w = oscillator_metric(params, space)
    return _Built(build_xy_hamiltonian._triplets(params, space), w)


def _metric_spec(p: dict, n: int) -> MetricSpec:
    """``gammas`` and ``xis`` of ``n`` modes; a list left unset is all zeros."""
    gammas = p.get("gammas") or [0.0] * n
    xis = p.get("xis") or [0.0] * n
    if len(gammas) != n or len(xis) != n:
        raise ConfigError(
            f"gammas/xis must have {n} entries, got {len(gammas)}/{len(xis)}"
        )
    return MetricSpec(gammas, xis)


def _build_boson_quadratic(p: dict) -> _Built:
    ms = _metric_spec(p, len(p["gammas"]))
    form = BosonQuadraticForm(p["alpha"], p["beta"], ms)
    space = FockSpace(ms.n, p["cutoff"])
    w = build_metric(space, ms)
    return _Built(build_quadratic_hamiltonian._triplets(space, form), w, form=form)


def _build_lmg_model(p: dict) -> _Built:
    ms = _metric_spec(p, len(p["gammas"]))
    if ms.n != 2:
        raise ConfigError(f"lmg needs exactly 2 gammas, got {ms.n}")
    space = FockSpace(2, p["cutoff"])
    w = build_metric(space, ms)
    return _Built(build_lmg._triplets(space, ms, p["omega0"], p["omega"]), w)


def _build_fermion(p: dict) -> _Built:
    ms = _metric_spec(p, len(p["gammas"]))
    spec = FermionQuadraticSpec(p["hopping"], p["pairing"], ms)
    w = fermion_metric(spec)
    return _Built(build_fermion_quadratic._triplets(spec), w)


def _build_chain(p: dict, ms: MetricSpec) -> _Built:
    """Both XXZ kinds: the chain fields of ``p`` deformed by ``ms``."""
    spec = SpinChainSpec(**{k: p[k] for k in _CHAIN if k in p}, ws=tuple(ms.ws))
    w = build_zeta_metric(spec)
    return _Built(build_xxz_asymmetric._triplets(spec), w)


def _build_haldane_shastry(p: dict) -> _Built:
    ms = _metric_spec(p, p["n_sites"])
    w = build_zeta_metric(SpinChainSpec(ms.n, ws=tuple(ms.ws)))  # the ring's metric is the chain's
    return _Built(build_haldane_shastry._triplets(ms.n, ms, p["sign"]), w)


def _build_graded(p: dict) -> _Built:
    gm = GradedMatrix(p["core"], p["grades"])
    return _Built(w=gm.metric_weights, h=_Triplets.of(gm.realized))


class _Kind(NamedTuple):
    schema: dict
    build: Callable[[dict], _Built]


_KINDS: dict[str, _Kind] = {
    "oscillator2d": _Kind({
        "k1": (True, _real, None),
        "k2": (True, _real, None),
        "k3": (True, _real, None),
        "m": (False, _real, 1.0),
        "gamma": (False, _real, 0.0),
        "xi": (False, _real, 0.0),
        "cutoff": (False, _positive_int, 16),
    }, _build_oscillator),
    "bosonQuadratic": _Kind({
        "alpha": (True, _matrix, None),
        "beta": (True, _matrix, None),
        **_deformation(required=True),
        "cutoff": (False, _positive_int, 12),
    }, _build_boson_quadratic),
    "lmg": _Kind({
        "omega0": (True, _real, None),
        "omega": (True, _real, None),
        **_deformation(required=True),
        "cutoff": (False, _positive_int, 12),
    }, _build_lmg_model),
    "fermionQuadratic": _Kind({
        "hopping": (True, _matrix, None),
        "pairing": (True, _matrix, None),
        **_deformation(required=True),
    }, _build_fermion),
    "xxzAsymmetric": _Kind({**_CHAIN, **_deformation(required=False)},
                           lambda p: _build_chain(p, _metric_spec(p, p["n_sites"]))),
    "xxzSymmetric": _Kind({
        **_CHAIN,
        "gamma": (False, _real, 0.0),
        "xi": (False, _real, 0.0),
    }, lambda p: _build_chain(
        p, MetricSpec([p["gamma"]] * p["n_sites"], [p["xi"]] * p["n_sites"])
    )),
    "haldaneShastry": _Kind({
        "n_sites": (True, _sites, None),
        **_deformation(required=False),
        "sign": (False, _sign, 1),
    }, _build_haldane_shastry),
    "gradedMatrix": _Kind({
        "core": (True, _matrix, None),
        "grades": (True, _real_list, None),
    }, _build_graded),
}


def _build_model(spec: ModelSpec) -> _Built:
    """Build ``spec``'s model; a builder's ``ValueError`` or ``TypeError`` is a ``ConfigError``."""
    return _refuse(_KINDS[spec.kind].build, spec.params)


# ---------------------------------------------------------------------------
# Execution


def _bogoliubov_check(form: BosonQuadraticForm, tol: float) -> CheckResult:
    try:
        res = bogoliubov_frequencies(form)
    except StabilityError as exc:
        detail = f"D not positive definite: dMinEigenvalue={exc.d_min_eigenvalue:.6e}"
        return CheckResult("bogoliubov", False, np.inf, tol, detail)
    omegas, residual = ", ".join(f"{w:.6f}" for w in res.omegas), float(res.pairing_residual)
    return CheckResult("bogoliubov", residual <= tol, residual, tol, f"Omega=[{omegas}]")


def _execute(
    config: RunConfig,
    seed: int,
    tols: dict,
    *,
    run_checks: bool,
    run_spectrum: bool,
) -> tuple[dict, int]:
    """Run all sweep points at the tolerances ``tols``; return (report dict, exit code)."""
    sweep = config.sweep
    points = [(None, config.model.params)] if sweep is None else [
        (v, _apply_sweep(config.model.params, sweep.path, v)) for v in sweep.values]
    # the checks that run: verify's reader takes the suite's, and the CLI runs bogoliubov itself
    checks = (config.checks or tuple(DEFAULT_TOLERANCES)) if run_checks else ()
    suite, bogoliubov = [c for c in checks if c != "bogoliubov"], "bogoliubov" in checks
    checks_out: list[dict] = []
    spectra_out: list[dict] = []
    errors: list[str] = []
    exit_code = EXIT_OK
    solved: list = [None]  # the last point whose sectors were solved
    for value, params in points:
        label = "" if value is None else f"[{sweep.path}={value:g}] "
        try:
            built = config._built or _build_model(ModelSpec(config.model.kind, params))
            results, eigenvalues_of = _point(built.h, built.w, suite, tols, seed, solved)
            if bogoliubov:
                results.append(_bogoliubov_check(built.form, tols["bogoliubov"]))
            if run_spectrum:
                lam = eigenvalues_of()
        except (np.linalg.LinAlgError, FloatingPointError) as exc:  # a numerical failure
            errors.append(f"{label}numerical failure: {exc}")
            exit_code = EXIT_NUMERICAL_FAILURE
            continue
        except (ConfigError, ValueError) as exc:
            errors.append(f"{label}invalid model: {exc}")
            exit_code = EXIT_CONFIG_ERROR
            break
        for res in results:
            entry = res.to_dict()
            if label:
                entry["detail"] = (label + entry["detail"]).strip()
            checks_out.append(entry)
        if run_spectrum:
            eigenvalues = [[float(z.real), float(z.imag)] for z in lam]
            spectra_out.append({"sweepValue": value, "eigenvalues": eigenvalues})
    if exit_code == EXIT_OK and any(not c["passed"] for c in checks_out):
        exit_code = EXIT_CHECK_FAILED
    report = {
        "model": config.model.kind,
        "parameters": config.model.params,
        "checks": checks_out,
        "spectra": spectra_out,
        "seed": seed,
        "version": __version__,
    }
    if sweep is not None:
        report["sweep"] = sweep.to_dict()
    if errors:
        report["error"] = "; ".join(errors)
    return report, exit_code


def _spectra_csv_lines(spectra: list[dict]) -> list[str]:
    lines = ["sweep-value,index,re,im"]
    for block in spectra:
        value = block["sweepValue"]
        tag = "" if value is None else repr(float(value))
        for i, (re, im) in enumerate(block["eigenvalues"]):
            lines.append(f"{tag},{i},{re!r},{im!r}")
    return lines


def _emit(report: dict, out_dir: str | None, fmt: str) -> None:
    if out_dir is None:
        if fmt == "csv":
            print("\n".join(_spectra_csv_lines(report["spectra"])))
        else:
            print(json.dumps(report, indent=2))
        return
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    if fmt == "csv":
        csv_text = "\n".join(_spectra_csv_lines(report["spectra"]))
        (directory / "spectra.csv").write_text(csv_text + "\n")


def _parse_tol_flags(pairs: list[str], kind: str, runs: tuple[str, ...]) -> dict:
    """Every tolerance, the ``--tol NAME=VALUE`` pairs applied, ``VALUE`` as a float where it
    reads as one; refuses a name not in ``runs``, the checks that run."""
    overrides = []
    for name, eq, value in (pair.partition("=") for pair in pairs):
        if not eq:  # name is the whole pair
            raise ConfigError(f"--tol expects NAME=VALUE, got {name!r}")
        with contextlib.suppress(ValueError):
            value = float(value)
        overrides.append((name, value))
    tols = _select([], overrides, kind)
    for pair, (name, _) in zip(pairs, overrides):
        if name not in runs:
            raise ConfigError(f"--tol {pair}: check {name!r} does not run")
    return tols


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metriq",
        description="Metric-aware model checks: build, verify, sweep, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "run checks and spectra, write a report"),
        ("spectrum", "compute spectra only"),
        ("verify", "run checks only"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.add_argument(
            "--format", choices=("json", "csv"), default=None, help="spectra format"
        )
        p.add_argument(
            "--tol",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override a check tolerance (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        config = parse_config(text)
        # the config's checks block, else the suite's five; spectrum runs none
        runs = () if args.command == "spectrum" else config.checks or tuple(DEFAULT_TOLERANCES)
        tols = _parse_tol_flags(args.tol, config.model.kind, runs)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    out_dir = args.out if args.out is not None else (
        config.output.path if config.output else None
    )
    fmt = args.format if args.format is not None else (
        config.output.format if config.output else "json"
    )

    run_checks = args.command in ("run", "verify")
    run_spectrum = args.command in ("run", "spectrum")
    report, code = _execute(
        config, seed, tols, run_checks=run_checks, run_spectrum=run_spectrum
    )
    if args.command == "verify":
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            detail = f"  {check['detail']}" if check["detail"] else ""
            print(
                f"{status} {check['name']}: residual={check['residual']:.3e} "
                f"tolerance={check['tolerance']:.1e}{detail}"
            )
        if out_dir is not None:
            _emit(report, out_dir, "json")
    else:
        _emit(report, out_dir, fmt)
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
