"""Batch front end: parse model configs, run check suites and sweeps.

Subcommands
-----------
``metriq run <config.json>``
    Build the model, run the requested checks and compute spectra (per
    sweep point when a sweep is configured), emit a JSON report and
    optionally a CSV spectra table.  The spectrum reuses the
    eigendecomposition of the spectral checks; when none of them ran it
    costs one eigenvalue-only decomposition per sector.
``metriq spectrum <config.json>``
    Spectra only, no checks: one eigenvalue-only decomposition per sector.
``metriq verify <config.json>``
    Checks only, one summary line per check.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config
error, 3 numerical failure.  Reports are deterministic for a fixed
``(config, seed)`` pair; the seed is echoed in every report.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bosonic import (
    BosonQuadraticForm,
    FockSpace,
    StabilityError,
    bogoliubov_frequencies,
    build_lmg,
    build_quadratic_hamiltonian,
    similarity,
)
from .linops import MetricSpec, eigenvalues
from .oscillator2d import (
    OscillatorParams,
    angular_momentum_diag,
    build_xy_hamiltonian,
)
from .spinchain import (
    FermionQuadraticSpec,
    SpinChainSpec,
    build_fermion_quadratic,
    build_haldane_shastry,
    build_xxz_asymmetric,
    build_xxz_symmetric,
    build_zeta_metric,
    chain_unitary,
    site_occupations,
)
from .verify import (
    DEFAULT_SEED,
    DEFAULT_TOLERANCES,
    CheckResult,
    GradedMatrix,
    run_suite,
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

_NUMERICAL_ERRORS = (np.linalg.LinAlgError,)


class ConfigError(ValueError):
    """Invalid configuration text, schema, or parameter values."""


# ---------------------------------------------------------------------------
# Schema


def _real(name, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"field '{name}' must be a number, got {v!r}")
    v = float(v)
    if not np.isfinite(v):
        raise ConfigError(f"field '{name}' must be finite")
    return v


def _positive_int(name, v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"field '{name}' must be an integer, got {v!r}")
    if v < 1:
        raise ConfigError(f"field '{name}' must be positive, got {v}")
    return v


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


# field -> (required, coercer, default); None default means "derived later"
_SCHEMAS: dict[str, dict] = {
    "oscillator2d": {
        "k1": (True, _real, None),
        "k2": (True, _real, None),
        "k3": (True, _real, None),
        "m": (False, _real, 1.0),
        "gamma": (False, _real, 0.0),
        "xi": (False, _real, 0.0),
        "cutoff": (False, _positive_int, 16),
    },
    "bosonQuadratic": {
        "alpha": (True, _matrix, None),
        "beta": (True, _matrix, None),
        "gammas": (True, _real_list, None),
        "xis": (False, _real_list, None),
        "cutoff": (False, _positive_int, 12),
    },
    "lmg": {
        "omega0": (True, _real, None),
        "omega": (True, _real, None),
        "gammas": (True, _real_list, None),
        "xis": (False, _real_list, None),
        "cutoff": (False, _positive_int, 12),
    },
    "fermionQuadratic": {
        "hopping": (True, _matrix, None),
        "pairing": (True, _matrix, None),
        "gammas": (True, _real_list, None),
        "xis": (False, _real_list, None),
    },
    "xxzAsymmetric": {
        "n_sites": (True, _positive_int, None),
        "gamma_exchange": (False, _real, 1.0),
        "delta": (False, _real, 0.0),
        "fields_a": (False, _real_list, None),
        "fields_b": (False, _real_list, None),
        "fields_c": (False, _real_list, None),
        "gammas": (False, _real_list, None),
        "xis": (False, _real_list, None),
    },
    "xxzSymmetric": {
        "n_sites": (True, _positive_int, None),
        "gamma_exchange": (False, _real, 1.0),
        "delta": (False, _real, 0.0),
        "fields_a": (False, _real_list, None),
        "fields_b": (False, _real_list, None),
        "fields_c": (False, _real_list, None),
        "gamma": (False, _real, 0.0),
        "xi": (False, _real, 0.0),
    },
    "haldaneShastry": {
        "n_sites": (True, _positive_int, None),
        "gammas": (False, _real_list, None),
        "xis": (False, _real_list, None),
        "sign": (False, _sign, 1),
    },
    "gradedMatrix": {
        "core": (True, _matrix, None),
        "grades": (True, _real_list, None),
    },
}

_CHECK_NAMES = tuple(DEFAULT_TOLERANCES) + ("bogoliubov",)


@dataclass(frozen=True)
class ModelSpec:
    """Validated model kind plus its normalized parameter block."""

    kind: str
    params: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}


@dataclass(frozen=True)
class SweepSpec:
    path: str
    values: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"path": self.path, "values": list(self.values)}


@dataclass(frozen=True)
class OutputSpec:
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
    if not isinstance(kind, str) or kind not in _SCHEMAS:
        raise ConfigError(
            f"unknown model kind {kind!r}; expected one of {sorted(_SCHEMAS)}"
        )
    schema = _SCHEMAS[kind]
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


def _validate_model(spec: ModelSpec) -> None:
    """Construct the underlying objects so type invariants are enforced."""
    try:
        _build_model(spec)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


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
    if _SCHEMAS[model.kind][name][1] is _positive_int:
        raise ConfigError(f"sweep path {path!r} names an integer parameter")
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
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {"model", "checks", "sweep", "output"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    if "model" not in raw:
        raise ConfigError("config needs a 'model' block")
    model = _normalize_model(raw["model"])
    _validate_model(model)

    checks: tuple[str, ...] | None = None
    if "checks" in raw:
        block = raw["checks"]
        if not isinstance(block, list) or not block:
            raise ConfigError("'checks' must be a non-empty list of names")
        for name in block:
            if name not in _CHECK_NAMES:
                raise ConfigError(
                    f"unknown check {name!r}; expected one of {sorted(_CHECK_NAMES)}"
                )
        if "bogoliubov" in block and model.kind != "bosonQuadratic":
            raise ConfigError("check 'bogoliubov' applies only to bosonQuadratic")
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

    return RunConfig(model, checks, sweep, output)


def serialize_config(config: RunConfig) -> str:
    """Inverse of :func:`parse_config` up to JSON formatting."""
    return json.dumps(config.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# Builders


@dataclass(frozen=True)
class _Built:
    """Hamiltonian, metric weights ``w`` (``eta = diag(w)``) and phases ``u``."""

    h: np.ndarray
    w: np.ndarray
    u: np.ndarray | None = None
    form: BosonQuadraticForm | None = None


def _build_oscillator(p: dict) -> _Built:
    params = OscillatorParams(
        p["k1"], p["k2"], p["k3"], m=p["m"], gamma=p["gamma"], xi=p["xi"]
    )
    space = FockSpace(2, p["cutoff"])
    h = build_xy_hamiltonian(params, space)
    return _Built(h, *similarity(angular_momentum_diag(space)[:, None], [params.w]))


def _boson_metric_spec(p: dict) -> MetricSpec:
    xis = p.get("xis")
    if xis is not None and len(xis) != len(p["gammas"]):
        raise ConfigError(
            f"xis must have {len(p['gammas'])} entries, got {len(xis)}"
        )
    return MetricSpec(p["gammas"], xis)


def _build_boson_quadratic(p: dict) -> _Built:
    ms = _boson_metric_spec(p)
    form = BosonQuadraticForm(p["alpha"], p["beta"], ms)
    space = FockSpace(ms.n, p["cutoff"])
    h = build_quadratic_hamiltonian(space, form)
    return _Built(h, *similarity(space.occupation_table(), ms.ws), form=form)


def _build_lmg_model(p: dict) -> _Built:
    ms = _boson_metric_spec(p)
    if ms.n != 2:
        raise ConfigError(f"lmg needs exactly 2 gammas, got {ms.n}")
    space = FockSpace(2, p["cutoff"])
    h = build_lmg(space, ms, p["omega0"], p["omega"])
    return _Built(h, *similarity(space.occupation_table(), ms.ws))


def _build_fermion(p: dict) -> _Built:
    ms = _boson_metric_spec(p)
    spec = FermionQuadraticSpec(p["hopping"], p["pairing"], ms)
    h = build_fermion_quadratic(spec)
    return _Built(h, *similarity(site_occupations(spec.n_sites), ms.ws))


def _chain_spec(p: dict, ws) -> SpinChainSpec:
    return SpinChainSpec(
        n_sites=p["n_sites"],
        gamma_exchange=p.get("gamma_exchange", 1.0),
        delta=p.get("delta", 0.0),
        fields_a=tuple(p.get("fields_a") or ()),
        fields_b=tuple(p.get("fields_b") or ()),
        fields_c=tuple(p.get("fields_c") or ()),
        ws=ws,
    )


def _chain_ws(p: dict, n: int) -> tuple[complex, ...]:
    gammas = p.get("gammas") or [0.0] * n
    xis = p.get("xis") or [0.0] * n
    if len(gammas) != n or len(xis) != n:
        raise ConfigError(
            f"gammas/xis must have {n} entries, got {len(gammas)}/{len(xis)}"
        )
    return tuple(g + 1j * x for g, x in zip(gammas, xis))


def _build_xxz_asym(p: dict) -> _Built:
    spec = _chain_spec(p, _chain_ws(p, p["n_sites"]))
    return _Built(
        build_xxz_asymmetric(spec), build_zeta_metric(spec), chain_unitary(spec)
    )


def _build_xxz_sym(p: dict) -> _Built:
    w = p["gamma"] + 1j * p["xi"]
    spec = _chain_spec(p, (w,) * p["n_sites"])
    return _Built(
        build_xxz_symmetric(spec), build_zeta_metric(spec), chain_unitary(spec)
    )


def _build_haldane_shastry(p: dict) -> _Built:
    n = p["n_sites"]
    ws = _chain_ws(p, n)
    metric = MetricSpec([w.real for w in ws], [w.imag for w in ws])
    spec = SpinChainSpec(n_sites=n, ws=ws)
    h = build_haldane_shastry(n, metric, p["sign"])
    return _Built(h, build_zeta_metric(spec), chain_unitary(spec))


def _build_graded(p: dict) -> _Built:
    gm = GradedMatrix(p["core"], p["grades"])
    return _Built(gm.realized.astype(complex), gm.metric_weights)


_BUILDERS = {
    "oscillator2d": _build_oscillator,
    "bosonQuadratic": _build_boson_quadratic,
    "lmg": _build_lmg_model,
    "fermionQuadratic": _build_fermion,
    "xxzAsymmetric": _build_xxz_asym,
    "xxzSymmetric": _build_xxz_sym,
    "haldaneShastry": _build_haldane_shastry,
    "gradedMatrix": _build_graded,
}


def _build_model(spec: ModelSpec) -> _Built:
    return _BUILDERS[spec.kind](spec.params)


# ---------------------------------------------------------------------------
# Execution


def _bogoliubov_check(form: BosonQuadraticForm, tol: float) -> CheckResult:
    try:
        res = bogoliubov_frequencies(form)
    except StabilityError as exc:
        return CheckResult(
            "bogoliubov",
            False,
            np.inf,
            tol,
            f"D not positive definite: dMinEigenvalue={exc.d_min_eigenvalue:.6e}",
        )
    omegas = ", ".join(f"{w:.6f}" for w in res.omegas)
    return CheckResult(
        "bogoliubov",
        bool(res.pairing_residual <= tol),
        float(res.pairing_residual),
        tol,
        f"Omega=[{omegas}]",
    )


def _run_point(
    spec: ModelSpec,
    checks: tuple[str, ...] | None,
    tolerances: dict,
    seed: int,
    *,
    run_checks: bool,
    run_spectrum: bool,
) -> tuple[list[CheckResult], list[list[float]]]:
    built = _build_model(spec)
    results: list[CheckResult] = []
    eigs = None
    if run_checks:
        selected = list(checks) if checks is not None else list(DEFAULT_TOLERANCES)
        suite = [c for c in selected if c != "bogoliubov"]
        extra = []
        if "bogoliubov" in selected:
            extra.append(
                _bogoliubov_check(built.form, tolerances.get("bogoliubov", BOGOLIUBOV_TOL))
            )
        suite_tols = {k: v for k, v in tolerances.items() if k in DEFAULT_TOLERANCES}
        report = run_suite(
            built.h,
            built.w,
            built.u,
            checks=suite,
            tolerances=suite_tols,
            seed=seed,
            extra_checks=extra,
        )
        results = list(report.checks)
        eigs = report.decomposition  # the spectrum below reuses it
    spectra: list[list[float]] = []
    if run_spectrum:
        lam = eigenvalues(built.h) if eigs is None else eigs.eigenvalues
        spectra = [[float(z.real), float(z.imag)] for z in lam]
    return results, spectra


def _execute(
    config: RunConfig,
    seed: int,
    tolerances: dict,
    *,
    run_checks: bool,
    run_spectrum: bool,
) -> tuple[dict, int]:
    """Run all sweep points; return (report dict, exit code)."""
    points: list[tuple[float | None, dict]] = (
        [(None, config.model.params)]
        if config.sweep is None
        else [
            (v, _apply_sweep(config.model.params, config.sweep.path, v))
            for v in config.sweep.values
        ]
    )
    checks_out: list[dict] = []
    spectra_out: list[dict] = []
    errors: list[str] = []
    exit_code = EXIT_OK
    for value, params in points:
        label = "" if value is None else f"[{config.sweep.path}={value:g}] "
        try:
            results, eigenvalues = _run_point(
                ModelSpec(config.model.kind, params),
                config.checks,
                tolerances,
                seed,
                run_checks=run_checks,
                run_spectrum=run_spectrum,
            )
        except _NUMERICAL_ERRORS as exc:
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
    if config.sweep is not None:
        report["sweep"] = config.sweep.to_dict()
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
    text = json.dumps(report, indent=2)
    if out_dir is None:
        if fmt == "csv":
            print("\n".join(_spectra_csv_lines(report["spectra"])))
        else:
            print(text)
        return
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "report.json").write_text(text + "\n")
    if fmt == "csv":
        csv_text = "\n".join(_spectra_csv_lines(report["spectra"]))
        (directory / "spectra.csv").write_text(csv_text + "\n")


def _parse_tol_flags(pairs: list[str]) -> dict:
    tols: dict = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {pair!r}")
        if name not in _CHECK_NAMES:
            raise ConfigError(
                f"unknown tolerance {name!r}; expected one of {sorted(_CHECK_NAMES)}"
            )
        try:
            tols[name] = float(value)
        except ValueError:
            raise ConfigError(f"tolerance {name!r} needs a numeric value") from None
        if not (np.isfinite(tols[name]) and tols[name] > 0):
            raise ConfigError(f"tolerance {name!r} must be positive and finite")
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
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        config = parse_config(text)
        tolerances = _parse_tol_flags(args.tol)
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
        config, seed, tolerances, run_checks=run_checks, run_spectrum=run_spectrum
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
