"""Config parsing, report emission, and exit codes of the batch front end."""
import collections
import contextlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from metriq.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CLOSED_PIPE,
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    ConfigError,
    ModelSpec,
    OutputSpec,
    RunConfig,
    SweepSpec,
    _apply_sweep,
    main,
    parse_config,
    serialize_config,
)
from metriq.verify import hermitian_form_eigenvalues, run_suite
from test_golden import CONFIGS as GOLDEN_CONFIGS
from test_verify import CHAIN_N10, OSC_SWEEP_SEED_1, build_model

OSC_CONFIG = {
    "model": {
        "kind": "oscillator2d",
        "k1": 2.0,
        "k2": 1.0,
        "k3": 1.0,
        "gamma": 0.3,
        "xi": 0.2,
        "cutoff": 6,
    }
}

BOSON = {"kind": "bosonQuadratic", "alpha": [[2.0, 0.3], [0.3, 1.5]],
         "beta": [[0.4, 0.1], [0.1, -0.2]], "gammas": [0.3, -0.2], "cutoff": 5}

UNSTABLE_BOSON = {
    "model": {
        "kind": "bosonQuadratic",
        "alpha": [[1.0]],
        "beta": [[1.5]],
        "gammas": [0.0],
        "cutoff": 6,
    },
    "checks": ["metric_pd", "bogoliubov"],
}


CONFIG_DIR = Path(__file__).with_name("configs")


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@contextlib.contextmanager
def verify_calls(monkeypatch, name):
    """The arguments of each call of ``metriq.verify.<name>`` made inside the block."""
    import metriq.verify

    calls, real = [], getattr(metriq.verify, name)
    with monkeypatch.context() as m:
        m.setattr(metriq.verify, name, lambda *args: calls.append(args) or real(*args))
        yield calls


def test_parse_minimal_oscillator():
    cfg = parse_config(
        json.dumps({"model": {"kind": "oscillator2d", "k1": 2.0, "k2": 1.0, "k3": 0.5}})
    )
    assert cfg.model.kind == "oscillator2d"
    assert cfg.model.params == {
        "k1": 2.0,
        "k2": 1.0,
        "k3": 0.5,
        "m": 1.0,
        "gamma": 0.0,
        "xi": 0.0,
        "cutoff": 16,
    }
    assert cfg.checks is None and cfg.sweep is None and cfg.output is None


def test_parse_rejects_asymmetric_alpha():
    bad = {
        "model": {
            "kind": "bosonQuadratic",
            "alpha": [[2.0, 0.3], [0.4, 1.5]],
            "beta": [[0.0, 0.0], [0.0, 0.0]],
            "gammas": [0.0, 0.0],
        }
    }
    with pytest.raises(ConfigError, match=r"alpha\[0\]\[1\]"):
        parse_config(json.dumps(bad))


def test_parse_sweep():
    payload = {
        "model": {"kind": "xxzAsymmetric", "n_sites": 3},
        "sweep": {"path": "delta", "values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]},
    }
    cfg = parse_config(json.dumps(payload))
    assert cfg.sweep == SweepSpec("delta", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5))
    # indexed paths work when the list is present
    payload["model"]["gammas"] = [0.1, 0.2, 0.3]
    payload["sweep"] = {"path": "gammas[1]", "values": [0.0, 0.5]}
    cfg = parse_config(json.dumps(payload))
    assert cfg.sweep.path == "gammas[1]"


def test_parse_sweep_rejections():
    base = {"model": {"kind": "xxzAsymmetric", "n_sites": 3, "gammas": [0.1, 0.2, 0.3]}}
    for path, msg in (
        ("gammas", "needs an index"),
        ("gammas[9]", "out of range"),
        ("nope", "does not name"),
        ("gammas[x]", "malformed"),
    ):
        payload = dict(base, sweep={"path": path, "values": [0.0]})
        with pytest.raises(ConfigError, match=msg):
            parse_config(json.dumps(payload))
    osc = {"kind": "oscillator2d", "k1": 1.0, "k2": 1.0, "k3": 0.0}
    for model, sweep, msg in (
        (base["model"], [0.0], "'sweep' must be an object"),
        (base["model"], {"path": "delta", "values": [0.0], "step": 1}, "unknown field"),
        (base["model"], {"path": "delta"}, "needs 'path' and 'values'"),
        (base["model"], {"path": 3, "values": [0.0]}, "must be a string"),
        (base["model"], {"path": "delta", "values": []}, "non-empty list"),
        (base["model"], {"path": "delta", "values": 3}, "non-empty list"),
        (base["model"], {"path": "delta[0]", "values": [0.0]}, "indexes a scalar"),
        # integer fields would be swept as floats
        (base["model"], {"path": "n_sites", "values": [4, 5]}, "integer parameter"),
        (osc, {"path": "cutoff", "values": [4, 5]}, "integer parameter"),
        ({"kind": "haldaneShastry", "n_sites": 3}, {"path": "sign", "values": [1, 0.5]},
         "integer parameter"),
        # only real-valued fields sweep: a matrix row would be swept as one number
        (BOSON, {"path": "alpha[0]", "values": [1.0]}, "matrix or integer parameter"),
    ):
        with pytest.raises(ConfigError, match=msg):
            parse_config(json.dumps({"model": model, "sweep": sweep}))


def test_round_trip_identity():
    cfg = RunConfig(
        model=ModelSpec(
            "xxzAsymmetric",
            {
                "n_sites": 3,
                "gamma_exchange": 1.0,
                "delta": 0.5,
                "gammas": [0.1, 0.2, 0.3],
            },
        ),
        checks=("metric_pd", "reality"),
        sweep=SweepSpec("delta", (0.0, 0.5)),
        output=OutputSpec("out", "csv"),
    )
    assert parse_config(serialize_config(cfg)) == cfg


def patch_assemblers(monkeypatch, assemble):
    """Route every Hamiltonian assembly through ``assemble(original, *args)``: the assembler
    where each model module binds it, and the graded matrix's realization."""
    from metriq import bosonic, oscillator2d, spinchain
    from metriq.verify import GradedMatrix

    for module in (bosonic, oscillator2d, spinchain):
        monkeypatch.setattr(module, "_assemble",
                            lambda *a, _f=module._assemble, **k: assemble(_f, *a, **k))
    realized = GradedMatrix.realized.fget
    monkeypatch.setattr(GradedMatrix, "realized", property(lambda gm: assemble(realized, gm)))


@pytest.mark.parametrize("command", ["run", "spectrum", "verify"])
@pytest.mark.parametrize("sweep", [None, {"path": "delta", "values": [0.0, 0.5, 1.0]}])
def test_the_model_is_built_once_per_point_and_once_to_validate_a_sweep(
        tmp_path, capsys, monkeypatch, command, sweep):
    # parse_config validates from the specs and the metric; only a point assembles H
    assemblies = []
    patch_assemblers(monkeypatch, lambda f, *a, **k: assemblies.append(f) or f(*a, **k))
    payload = {"model": {"kind": "xxzAsymmetric", "n_sites": 3, "delta": 0.5,
                         "gammas": [0.3, 0.0, -0.2], "xis": [0.1, 0.0, 0.2]}}
    if sweep:
        payload["sweep"] = sweep
    code = main([command, write_config(tmp_path, payload)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert len(assemblies) == (1 if sweep is None else len(sweep["values"]))


def _config_texts():
    """The JSON text of each golden config and of each ``tests/configs`` config."""
    return {**{f"golden {name}": json.dumps({"model": m}) for name, m in GOLDEN_CONFIGS.items()},
            **{path.name: path.read_text() for path in CONFIG_DIR.glob("*.json")}}


@pytest.mark.parametrize("name", sorted(_config_texts()))
def test_parse_config_assembles_no_hamiltonian(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("parse_config assembled a Hamiltonian")

    patch_assemblers(monkeypatch, refuse)
    assert parse_config(_config_texts()[name]).model.kind


def test_parse_rejections():
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config('{"model": {"kind": "haldaneShastry", "n_sites": 2}, "oops": 1}')
    with pytest.raises(ConfigError, match="unknown model kind"):
        parse_config('{"model": {"kind": "warpDrive"}}')
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config('{"model": {"kind": "haldaneShastry", "n_sites": 2, "spin": 1}}')
    with pytest.raises(ConfigError, match="requires field 'k3'"):
        parse_config('{"model": {"kind": "oscillator2d", "k1": 1.0, "k2": 1.0}}')
    with pytest.raises(ConfigError, match="unknown check"):
        parse_config(
            '{"model": {"kind": "haldaneShastry", "n_sites": 2}, "checks": ["parity"]}'
        )
    with pytest.raises(ConfigError, match="only to bosonQuadratic"):
        parse_config(
            '{"model": {"kind": "haldaneShastry", "n_sites": 2},'
            ' "checks": ["bogoliubov"]}'
        )
    with pytest.raises(ConfigError, match="'json' or 'csv'"):
        parse_config(
            '{"model": {"kind": "haldaneShastry", "n_sites": 2},'
            ' "output": {"path": "x", "format": "xml"}}'
        )
    hs = {"kind": "haldaneShastry", "n_sites": 2}
    osc = {"kind": "oscillator2d", "k1": 1.0, "k2": 1.0, "k3": 0.0}
    boson = {"kind": "bosonQuadratic", "alpha": [[1.0]], "beta": [[0.0]], "gammas": [0.1]}
    lmg = {"kind": "lmg", "omega0": 1.0, "omega": 0.1, "gammas": [0.1, 0.2, 0.3]}
    chain = {"kind": "xxzAsymmetric", "n_sites": 3}
    fermion = {"kind": "fermionQuadratic", "hopping": [[1.0, 0.5], [0.5, 1.0]],
               "pairing": [[0.0, 0.2], [-0.2, 0.0]], "gammas": [0.1, 0.2]}
    for config, msg in (
        ([hs], "must be a JSON object"),
        ({"checks": ["reality"]}, "needs a 'model' block"),
        ({"model": [hs]}, "'model' must be an object"),
        ({"model": {"n_sites": 2}}, "needs a 'kind'"),
        ({"model": {"kind": ["lmg"]}}, "unknown model kind"),
        ({"model": dict(osc, k1=True)}, "'k1' must be a number"),
        ({"model": dict(osc, k1=float("inf"))}, "'k1' must be finite"),
        ({"model": dict(osc, cutoff=4.0)}, "'cutoff' must be an integer"),
        ({"model": dict(osc, cutoff=0)}, "'cutoff' must be positive"),
        ({"model": dict(boson, gammas=[])}, "non-empty list of numbers"),
        ({"model": dict(boson, alpha=[])}, "non-empty list of rows"),
        ({"model": dict(boson, alpha=[[1.0, 0.0]])}, "must be square"),
        ({"model": dict(hs, sign=True)}, "must be 1 or -1"),
        ({"model": dict(hs, sign=2)}, "must be 1 or -1"),
        ({"model": hs, "checks": []}, "non-empty list of names"),
        ({"model": hs, "checks": ["reality", "reality"]}, "duplicate check 'reality'"),
        ({"model": hs, "output": "out"}, "'output' must be an object"),
        ({"model": hs, "output": {"path": "x", "mode": "w"}}, "unknown field"),
        ({"model": hs, "output": {"format": "csv"}}, "string 'path'"),
        ({"model": dict(boson, xis=[0.1, 0.2])}, "xis must have 1 entries"),
        ({"model": lmg}, "exactly 2 gammas"),
        ({"model": dict(hs, gammas=[0.1])}, "gammas/xis must have 2 entries"),
        ({"model": dict(chain, fields_a=[0.1])}, "fields_a must have 3 entries, got 1"),
        ({"model": dict(fermion, hopping=[[1.0]])}, r"hopping must be 2x2, got \(1, 1\)"),
        ({"model": dict(fermion, pairing=[[0.0]])}, r"pairing must be 2x2, got \(1, 1\)"),
        ({"model": dict(fermion, hopping=[[1.0, 0.5], [0.4, 1.0]])},
         r"hopping must be finite and symmetric: hopping\[0\]\[1\] = 0.5, hopping\[1\]\[0\]"),
        ({"model": dict(hs, n_sites=1)}, "the exchange ring needs at least two sites"),
        # the ring's own checks run once every field is read, so the sign is named first
        ({"model": dict(hs, n_sites=1, sign=2)}, "field 'sign' must be 1 or -1"),
        ({"model": dict(hs, n_sites=13)}, r"n_sites must be in \[1, 12\]"),
    ):
        with pytest.raises(ConfigError, match=msg):
            parse_config(json.dumps(config))


def test_parse_error_reports_position():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config('{\n  "model": [}\n}')


def test_verify_exit_ok(tmp_path, capsys):
    code = main(["verify", write_config(tmp_path, OSC_CONFIG)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)
    assert lines[0].startswith("PASS metric_pd: residual=")


def test_verify_exit_check_failed(tmp_path, capsys):
    code = main(["verify", write_config(tmp_path, UNSTABLE_BOSON)])
    out = capsys.readouterr().out
    assert code == EXIT_CHECK_FAILED
    assert "FAIL bogoliubov" in out
    assert "dMinEigenvalue=-5.000000e-01" in out


@pytest.mark.parametrize("checks", [["bogoliubov", "reality", "metric_pd"], ["bogoliubov"]],
                         ids=["with-suite", "alone"])
def test_bogoliubov_follows_the_suite_entries(tmp_path, capsys, monkeypatch, checks):
    # the CLI runs bogoliubov itself after the suite's entries; alone, it forms no F
    out = tmp_path / "out"
    config = write_config(tmp_path, {"model": BOSON, "checks": checks})
    with verify_calls(monkeypatch, "_hermitian_form") as forms:
        assert main(["verify", config, "--out", str(out)]) == EXIT_OK
    suite = checks[1:]
    names = [c["name"] for c in json.loads((out / "report.json").read_text())["checks"]]
    assert names == [*suite, "bogoliubov"]
    assert len(forms) == (1 if suite else 0)


def verify_lines(config, capsys, monkeypatch):
    """``metriq verify`` on ``config``: its exit code, output lines and eigensolver calls."""
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    code = main(["verify", config])
    return code, capsys.readouterr().out.strip().splitlines(), calls


@pytest.mark.parametrize(
    "config",
    [
        # passes the overflow guard (exponent 19.2 <= 120), with kappa ~ 4.75e16
        {"model": {"kind": "oscillator2d", "k1": 1.0, "k2": 1.3, "k3": 0.4,
                   "gamma": 0.8, "cutoff": 12}},
        # the golden bosonQuadratic coefficients at cutoff 40: dim 1681, kappa ~ 2.35e17
        str(Path(__file__).with_name("configs") / "boson_quadratic_cutoff40.json"),
    ],
    ids=["oscillator2d-kappa-5e16", "bosonQuadratic-cutoff-40"],
)
def test_an_ill_conditioned_metric_passes_every_check_on_its_bounds(
        tmp_path, capsys, monkeypatch, config):
    # the checks read F, whose entries do not grow with kappa: no check fails past 1e14
    path = config if isinstance(config, str) else write_config(tmp_path, config)
    code, lines, calls = verify_lines(path, capsys, monkeypatch)
    assert code == EXIT_OK
    assert [l.split(":")[0] for l in lines] == [
        "PASS metric_pd", "PASS pseudo_hermiticity", "PASS reality", "PASS isospectrality",
        "PASS eta_norm"]
    assert all("certified" in l for l in lines[2:])
    assert calls == []


@pytest.mark.parametrize("name", ["xxz_asymmetric_n12", "xxz_transverse_n12",
                                  "boson_quadratic_cutoff40", "lmg_cutoff40"])
def test_verify_runs_no_eigensolver_where_every_bound_certifies(capsys, monkeypatch, name):
    # every check reads one pass over F's nonzeros; only a bound that misses solves. lmg at
    # cutoff 40 is the one config here whose eta_norm bound misses (7.7e-10 against 1e-10):
    # its probe is evolved in the eigenvectors of F's sectors, which eig alone solves
    config = str(Path(__file__).with_name("configs") / f"{name}.json")
    code, lines, calls = verify_lines(config, capsys, monkeypatch)
    assert code == EXIT_OK and len(lines) == 5 and all(l.startswith("PASS") for l in lines)
    falls_back = name == "lmg_cutoff40"
    for line in lines[2:]:  # reality, isospectrality and eta_norm; the first two are exact reads
        fell = falls_back and line.startswith("PASS eta_norm:")
        assert ("  eig: " if fell else "  certified") in line
    assert set(calls) == ({"eig"} if falls_back else set())


@pytest.mark.parametrize("name", ["xxz_transverse_n12", "boson_quadratic_cutoff40"])
def test_verify_writes_the_same_report_at_every_blas_thread_count(tmp_path, name):
    # every entry here is certified, and a certified entry reads norms summed in numpy's fixed
    # order; np.linalg.norm reduces through BLAS, whose order follows the thread count
    import metriq

    config = str(Path(__file__).with_name("configs") / f"{name}.json")
    env = dict(os.environ, PYTHONPATH=str(Path(metriq.__file__).parents[1]))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "metriq.cli", "verify", config, "--out", str(out)],
                       env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True)
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def eta_norm_fallback(lines):
    """The residual and detail of ``metriq verify``'s ``eta_norm`` line."""
    residual, detail = re.fullmatch(r"PASS eta_norm: residual=(\S+) tolerance=\S+  (.*)",
                                    lines[4]).groups()
    return float(residual), detail


def test_an_eta_norm_the_bound_misses_passes_on_the_expansion_in_f(capsys, monkeypatch):
    # lmg at cutoff 40 with gammas +-1.45 (kappa ~ 6e100): F's bound reads 7.7e-10 against
    # 1e-10 (||F||_F ~ 1.2e4), and H's eigenvectors have condition ~3.1e50, which the
    # expansion refuses; F's are near unitary, and its probe's norm drifts at rounding
    config = str(Path(__file__).with_name("configs") / "lmg_cutoff40.json")
    code, lines, calls = verify_lines(config, capsys, monkeypatch)
    assert code == EXIT_OK
    assert [l.split(":")[0] for l in lines] == [
        "PASS metric_pd", "PASS pseudo_hermiticity", "PASS reality", "PASS isospectrality",
        "PASS eta_norm"]
    residual, detail = eta_norm_fallback(lines)
    assert detail.startswith("eig: ") and residual < 1e-13
    assert set(calls) == {"eig"}  # F's sectors, each once; eigvals of H never runs


def test_the_fallback_on_f_stays_at_rounding_where_the_bound_misses(tmp_path, capsys):
    # osc_sweep's seed-1 stiffnesses at gamma 0.49: F's bound, 4.0e-12, misses a 1e-12
    # tolerance, and the expansion in H's eigenvectors drifts by 2.8e-10
    config = write_config(tmp_path, {"model": {**OSC_SWEEP_SEED_1, "gamma": 0.49}})
    code = main(["verify", config, "--tol", "eta_norm=1e-12"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK and len(lines) == 5
    residual, detail = eta_norm_fallback(lines)
    assert detail.startswith("eig: ") and residual < 1e-13


def test_a_numerical_failure_is_a_failed_entry(tmp_path, capsys, monkeypatch):
    # every check but metric_pd reads F; a LinAlgError where it is formed fails each of
    # them as an entry, and verify still prints all five
    import metriq.verify

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(metriq.verify, "_hermitian_form", broken)
    code = main(["verify", write_config(tmp_path, OSC_CONFIG)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_CHECK_FAILED
    assert len(lines) == 5 and lines[0].startswith("PASS metric_pd")
    for line, name in zip(lines[1:], ["pseudo_hermiticity", "reality", "isospectrality",
                                       "eta_norm"]):
        assert line.startswith(f"FAIL {name}: residual=inf")
        assert line.endswith("failed: no convergence")


@pytest.mark.parametrize("delta", [1e17, 1e300])
def test_an_overflowing_norm_is_a_failed_entry_not_a_warning(tmp_path, capsys, delta):
    # at delta 1e17 exp of the eta-norm bound's drift overflows, and the bound is read as
    # missed; at 1e300 F's norms overflow too, and each check that reads F fails as an entry.
    # Tier-1 raises each RuntimeWarning, so a warning fails this test, as a NaN residual does
    path = write_config(tmp_path, {"model": {"kind": "xxzAsymmetric", "n_sites": 3,
                                             "delta": delta}})
    code = main(["verify", path])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(re.match(r"(PASS|FAIL) \w+: residual=(?!nan)", line) for line in lines)
    failed = [line for line in lines if line.startswith("FAIL")]
    assert all("  failed: overflow encountered" in line for line in failed)
    assert (code, len(failed)) == ((EXIT_OK, 0) if delta < 1e100 else (EXIT_CHECK_FAILED, 4))
    # the spectrum reads F too: a numerical failure, not a traceback
    assert main(["spectrum", path]) == (EXIT_OK if delta < 1e100 else EXIT_NUMERICAL_FAILURE)
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["xxzAsymmetric", "xxzSymmetric", "haldaneShastry"])
def test_an_oversized_chain_is_refused_before_any_per_site_list(tmp_path, kind):
    # a small spawner reads the child's peak: Linux keeps a spawner's RSS high-water mark in
    # its child's ru_maxrss across exec, and this test's own process may hold more than the bound
    import metriq

    config = write_config(tmp_path, {"model": {"kind": kind, "n_sites": 10**6}})
    spawner = ("import os, sys; pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ); "
               "_, status, usage = os.wait4(pid, 0); "
               "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    child = [sys.executable, "-m", "metriq.cli", "verify", config]
    out = subprocess.run([sys.executable, "-c", spawner, *child], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(metriq.__file__).parents[1])))
    code, peak_kib = map(int, out.stdout.split())
    assert code == EXIT_CONFIG_ERROR
    assert out.stderr == "error: n_sites must be in [1, 12]\n"
    # measured at 30 MiB, and at 99 MiB while the per-site lists were built before the cap
    assert peak_kib < 50 * 1024


def test_exit_config_error(tmp_path, capsys):
    bad = {"model": {"kind": "oscillator2d", "k1": 1.0}}
    code = main(["run", write_config(tmp_path, bad)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith("error:")
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG_ERROR
    capsys.readouterr()
    # bytes that are not UTF-8, and arrays nested past the recursion limit
    (tmp_path / "bad.json").write_bytes(b'\xff\xfe{"model": 1}')
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    for name in ("bad.json", "deep.json"):
        assert main(["run", str(tmp_path / name)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("error:")
    # a negative seed, though every check certifies here and no probe is drawn
    code = main(["verify", write_config(tmp_path, OSC_CONFIG), "--seed", "-1"])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr() == ("", "error: --seed must be non-negative, got -1\n")


def test_run_emits_report(tmp_path, capsys):
    code = main(["run", write_config(tmp_path, OSC_CONFIG), "--seed", "7"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert set(report) == {"model", "parameters", "checks", "spectra", "seed", "version"}
    assert report["model"] == "oscillator2d"
    assert report["seed"] == 7
    assert len(report["checks"]) == 5
    assert all(c["passed"] for c in report["checks"])
    assert len(report["spectra"]) == 1
    assert report["spectra"][0]["sweepValue"] is None
    dim = (OSC_CONFIG["model"]["cutoff"] + 1) ** 2
    assert len(report["spectra"][0]["eigenvalues"]) == dim


def test_sweep_report_and_csv(tmp_path, capsys):
    payload = {
        "model": {"kind": "xxzAsymmetric", "n_sites": 2, "delta": 0.0},
        "sweep": {"path": "delta", "values": [0.0, 0.5, 1.0]},
    }
    path = write_config(tmp_path, payload)
    code = main(["run", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["sweep"] == {"path": "delta", "values": [0.0, 0.5, 1.0]}
    assert len(report["spectra"]) == 3
    assert [s["sweepValue"] for s in report["spectra"]] == [0.0, 0.5, 1.0]
    # each sweep point contributes a full battery, labeled by point
    assert len(report["checks"]) == 15
    assert report["checks"][5]["detail"].startswith("[delta=0.5]")

    code = main(["spectrum", path, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "sweep-value,index,re,im"
    assert len(lines) == 1 + 3 * 4
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "0"
    np.testing.assert_allclose(float(first[2]), -1.0, atol=1e-12)


def test_out_directory(tmp_path, capsys):
    payload = dict(OSC_CONFIG)
    out_dir = tmp_path / "results"
    code = main(
        ["run", write_config(tmp_path, payload), "--out", str(out_dir), "--format", "csv"]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["model"] == "oscillator2d"
    csv_lines = (out_dir / "spectra.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "sweep-value,index,re,im"
    assert len(csv_lines) == 1 + (payload["model"]["cutoff"] + 1) ** 2


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_an_output_path_that_cannot_be_written_is_a_config_error(tmp_path, capsys, command, via):
    afile, taken = tmp_path / "afile", tmp_path / "taken"
    afile.write_text("kept")
    (taken / "report.json").mkdir(parents=True)
    # a file in the way, a directory under a file, and a report.json that is a directory
    for out in (afile, afile / "sub", taken):
        if via == "flag":
            argv = [write_config(tmp_path, OSC_CONFIG), "--out", str(out)]
        else:
            argv = [write_config(tmp_path, {**OSC_CONFIG, "output": {"path": str(out)}})]
        assert main([command, *argv]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output: ")
        assert captured.err.count("\n") == 1
    assert afile.read_text() == "kept"


def test_a_reader_that_closes_the_pipe_early_ends_the_run_quietly():
    # the 109 KB report outgrows the pipe, so the child writes on after the reader has gone
    import metriq

    config = str(Path(__file__).with_name("configs") / "lmg_cutoff40.json")
    child = subprocess.Popen([sys.executable, "-m", "metriq.cli", "spectrum", config], bufsize=0,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=dict(os.environ, PYTHONPATH=str(Path(metriq.__file__).parents[1])))
    assert child.stdout.read(10).startswith(b"{")
    child.stdout.close()
    assert child.stderr.read() == b""  # no error line, and no "Exception ignored" at shutdown
    assert child.wait(timeout=120) == EXIT_CLOSED_PIPE


@pytest.mark.parametrize("command", ["run", "spectrum", "verify"])
def test_every_command_exits_quietly_on_a_closed_stdout(tmp_path, capsys, monkeypatch, command):
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main([command, write_config(tmp_path, OSC_CONFIG)]) == EXIT_CLOSED_PIPE
    assert capsys.readouterr().err == ""


def test_verify_refuses_a_spectra_format(tmp_path, capsys):
    path = write_config(tmp_path, OSC_CONFIG)
    for fmt in ("csv", "json"):
        assert main(["verify", path, "--format", fmt]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr() == ("", f"error: --format {fmt}: verify writes no spectra\n")
    # a config's output format stays allowed, since one config serves all three commands
    out = tmp_path / "out"
    csv = write_config(tmp_path, {**OSC_CONFIG, "output": {"path": str(out), "format": "csv"}})
    assert main(["verify", csv]) == EXIT_OK
    assert capsys.readouterr().out.startswith("PASS metric_pd")
    assert [p.name for p in out.iterdir()] == ["report.json"]


def test_csv_on_stdout_forms_no_json_text(tmp_path, capsys, monkeypatch):
    import metriq.cli

    path, out_dir = write_config(tmp_path, OSC_CONFIG), tmp_path / "out"
    dumps, real = [], json.dumps
    monkeypatch.setattr(metriq.cli.json, "dumps", lambda *a, **k: dumps.append(a) or real(*a, **k))
    assert main(["run", path, "--format", "csv"]) == EXIT_OK
    csv = capsys.readouterr().out
    assert not dumps
    # report.json is the one JSON text written, and the CSV bytes are the same either way
    assert main(["run", path, "--format", "csv", "--out", str(out_dir)]) == EXIT_OK
    assert len(dumps) == 1 and capsys.readouterr().out == ""
    assert (out_dir / "spectra.csv").read_text() == csv


def test_reports_are_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, OSC_CONFIG)
    main(["run", path])
    first = capsys.readouterr().out
    main(["run", path])
    second = capsys.readouterr().out
    assert first == second


def test_tol_flags(tmp_path, capsys):
    path = write_config(tmp_path, OSC_CONFIG)
    assert main(["verify", path, "--tol", "eta_norm=1e-6"]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", path, "--tol", "bogus=1"]) == EXIT_CONFIG_ERROR
    assert "unknown tolerance" in capsys.readouterr().err
    # each VALUE is read as a float first, and text that reads as none is refused as it is
    assert main(["verify", path, "--tol", "reality=1e-3"]) == EXIT_OK
    assert "tolerance=1.0e-03" in capsys.readouterr().out
    assert main(["verify", path, "--tol", "reality=abc"]) == EXIT_CONFIG_ERROR
    assert "must be positive and finite, got 'abc'" in capsys.readouterr().err
    assert main(["verify", path, "--tol", "reality"]) == EXIT_CONFIG_ERROR
    capsys.readouterr()
    assert main(["verify", path, "--tol", "reality=0"]) == EXIT_CONFIG_ERROR
    assert "positive and finite" in capsys.readouterr().err
    # a name given twice, and bogoliubov on a kind that cannot run it, as in a checks block
    hs = write_config(tmp_path, {"model": {"kind": "haldaneShastry", "n_sites": 3}}, "hs.json")
    for flags, err in (
        (["reality=1e-3", "eta_norm=1e-6", "reality=1e-20"], "duplicate tolerance 'reality'"),
        (["bogoliubov=1e-3"], "tolerance 'bogoliubov' applies only to bosonQuadratic"),
        (["bogoliubov=1e-3", "reality=1e-3", "reality=1e-20"], "'bogoliubov' applies only"),
    ):
        assert main(["verify", hs, *(x for f in flags for x in ("--tol", f))]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert err in captured.err and captured.out == ""
    # a tolerance for a check the command does not run: bogoliubov where no checks block names
    # it, a check a checks block leaves out, any check under spectrum, which runs none
    boson = write_config(tmp_path, {"model": BOSON}, "boson.json")
    hs_pd = write_config(tmp_path, {"model": {"kind": "haldaneShastry", "n_sites": 3},
                                    "checks": ["metric_pd"]}, "hs_pd.json")
    for command, config, flag in (("verify", boson, "bogoliubov=1e-3"),
                                  ("verify", hs_pd, "reality=1e-30"),
                                  ("run", hs_pd, "reality=1e-30"),
                                  ("spectrum", path, "reality=1e-3")):
        assert main([command, config, "--tol", flag]) == EXIT_CONFIG_ERROR
        name = flag.partition("=")[0]
        assert capsys.readouterr() == ("", f"error: --tol {flag}: check {name!r} does not run\n")
    named = write_config(tmp_path, {"model": BOSON, "checks": ["bogoliubov"]}, "named.json")
    assert main(["verify", named, "--tol", "bogoliubov=1e-3"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("PASS bogoliubov: residual=")
    # loosening a tolerance flips a failing check
    unstable = write_config(tmp_path, UNSTABLE_BOSON, name="unstable.json")
    assert main(["verify", unstable]) == EXIT_CHECK_FAILED
    capsys.readouterr()


def test_sweep_into_invalid_point_reports_error(tmp_path, capsys):
    payload = {
        "model": {"kind": "oscillator2d", "k1": 2.0, "k2": 1.0, "k3": 0.0, "cutoff": 4},
        "sweep": {"path": "m", "values": [1.0, -1.0]},
    }
    code = main(["run", write_config(tmp_path, payload)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    report = json.loads(captured.out)
    assert "error" in report
    assert "[m=-1]" in report["error"]
    # the first point still produced results before the bad one stopped the run
    assert len(report["spectra"]) == 1


CHAIN_N4 = {**CHAIN_N10, "n_sites": 4, "gammas": CHAIN_N10["gammas"][:4],
            "xis": CHAIN_N10["xis"][:4]}
# sweeps that move only the deformation, so every point has one hermitian form F, up to a
# diagonal unitary
DEFORMATION_SWEEPS = {
    "oscillator2d-gamma": (OSC_SWEEP_SEED_1 | {"gamma": 0.0, "cutoff": 8}, "gamma",
                           [0.0, 0.1, 0.2, 0.3]),
    "xxzAsymmetric-gammas[1]": (CHAIN_N4, "gammas[1]", [-0.1, 0.0, 0.2, 0.4]),
    # xi conjugates F by a diagonal unitary, which the pattern's gauge absorbs
    "oscillator2d-xi": (OSC_SWEEP_SEED_1 | {"gamma": 0.2, "cutoff": 8}, "xi",
                        [-0.3, -0.1, 0.1, 0.3]),
}


def eigvalsh_shapes(monkeypatch) -> list:
    """The shapes ``np.linalg.eigvalsh`` is called with from here on."""
    shapes, numpy_eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: shapes.append(np.shape(a)) or numpy_eigvalsh(a))
    return shapes


def solves_alone(model, monkeypatch) -> list:
    """The ``eigvalsh`` shapes of ``model``'s spectrum alone, outside any sweep."""
    with monkeypatch.context() as m:
        shapes = eigvalsh_shapes(m)
        built = build_model(model)
        hermitian_form_eigenvalues(built.h, built.w)
    return shapes


def test_numerical_failure_keeps_the_other_sweep_points(tmp_path, capsys, monkeypatch):
    # the LinAlgError is raised in each point's sector read, which its spectrum reads
    import metriq.verify

    real_read = metriq.verify._eigvalsh_read
    calls = []

    def flaky_read(*args, fails=(2,)):
        calls.append(args)
        if len(calls) in fails:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_read(*args)

    monkeypatch.setattr(metriq.verify, "_eigvalsh_read", flaky_read)
    payload = {
        "model": {"kind": "xxzAsymmetric", "n_sites": 2, "delta": 0.0},
        "sweep": {"path": "delta", "values": [0.0, 0.5, 1.0]},
    }
    code = main(["spectrum", write_config(tmp_path, payload)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_NUMERICAL_FAILURE
    assert [s["sweepValue"] for s in report["spectra"]] == [0.0, 1.0]
    assert report["error"] == (
        "[delta=0.5] numerical failure: Eigenvalues did not converge"
    )

    # a deformation sweep that fails at its first and third points: the second solves, and
    # the fourth and fifth reuse it, the last point solved, across the third's failure
    once = solves_alone(_apply_sweep(CHAIN_N4, "gammas[1]", 0.1), monkeypatch)
    shapes = eigvalsh_shapes(monkeypatch)
    calls.clear()
    monkeypatch.setattr(metriq.verify, "_eigvalsh_read",
                        lambda *args: flaky_read(*args, fails=(1, 3)))
    payload = {"model": CHAIN_N4,
               "sweep": {"path": "gammas[1]", "values": [0.0, 0.1, 0.2, 0.3, 0.4]}}
    code = main(["spectrum", write_config(tmp_path, payload)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_NUMERICAL_FAILURE
    assert [s["sweepValue"] for s in report["spectra"]] == [0.1, 0.3, 0.4]
    assert report["error"] == ("[gammas[1]=0] numerical failure: Eigenvalues did not converge; "
                               "[gammas[1]=0.2] numerical failure: Eigenvalues did not converge")
    assert shapes == once
    for lam in report["spectra"][1:]:
        assert lam["eigenvalues"] == report["spectra"][0]["eigenvalues"]


@pytest.mark.parametrize("command", ["run", "spectrum"])
def test_one_eig_per_sz_sector_per_sweep_point(tmp_path, capsys, monkeypatch, command):
    calls = collections.Counter()
    eig_shapes = []
    dtypes = set()
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        def counted(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            if _name != "eigh":
                eig_shapes.append((_name, np.shape(a)))
                dtypes.add((_name, np.asarray(a).dtype))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    payload = {
        "model": {"kind": "xxzAsymmetric", "n_sites": 3, "delta": 0.5,
                  "gammas": [0.3, 0.0, -0.2], "xis": [0.1, 0.0, 0.2]},
        "sweep": {"path": "delta", "values": [0.0, 0.5, 1.0]},
    }
    code = main([command, write_config(tmp_path, payload)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert len(report["spectra"]) == 3
    # the n=3 total-Sz sectors, by smallest index: {0}, {1,2,4}, {3,5,6}, {7}; the spin
    # flip ties the last two to the first two, each pair folding into two equal blocks solved
    # once, and the site reflection folds the block of {1,2,4} into 2 and 1 (it fixes 2)
    sectors = [(1, 1), (2, 2), (1, 1)]
    # both read the hermitian form's eigenvalues only: run's checks pass on the
    # bounds of that one pass, and its spectrum is the same eigvalsh
    per_point = ["eigvalsh"]
    assert eig_shapes == [(name, s) for name in per_point for s in sectors] * 3
    assert calls == {name: 9 for name in per_point}
    # the chain is real up to a diagonal phase gauge: every solve is real
    assert dtypes == {(name, np.dtype(float)) for name in per_point}


@pytest.mark.parametrize("name", sorted(DEFORMATION_SWEEPS))
def test_a_sweep_of_the_deformation_solves_its_sectors_once(tmp_path, capsys, monkeypatch, name):
    import metriq.verify

    model, path, values = DEFORMATION_SWEEPS[name]
    points = [_apply_sweep(model, path, v) for v in values]
    once = solves_alone(points[0], monkeypatch)
    reads, read = [], metriq.verify._eigvalsh_read
    with monkeypatch.context() as m:
        shapes = eigvalsh_shapes(m)
        m.setattr(metriq.verify, "_eigvalsh_read", lambda *a: reads.append(read(*a)) or reads[-1])
        payload = {"model": model, "sweep": {"path": path, "values": values}}
        code = main(["run", write_config(tmp_path, payload)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and all(c["passed"] for c in report["checks"])
    assert shapes == once  # the first point's solves, and no other
    assert all(r.eigenvalues is reads[0].eigenvalues for r in reads)
    for k, (point, value, block) in enumerate(zip(points, values, report["spectra"])):
        built = build_model(point)
        # the checks solve nothing, so each point's entries are those it reads alone
        alone = run_suite(built.h, built.w).checks
        assert [c for c in report["checks"] if c["detail"].startswith(f"[{path}={value:g}]")] == [
            {**c.to_dict(), "detail": f"[{path}={value:g}] {c.detail}".strip()} for c in alone]
        # the spectrum each point reports lies within the Weyl term of its read of that spectrum,
        # plus that of the one it would read alone
        own = read(metriq.verify._hermitian_form(built.h, built.w), built.h)
        lam = np.asarray(block["eigenvalues"]) @ [1.0, 1j]
        assert np.max(np.abs(lam - own.eigenvalues)) <= reads[k].weyl + own.weyl


@pytest.mark.parametrize("command", ["run", "verify", "spectrum"])
def test_a_sweep_forms_f_once_per_point(tmp_path, capsys, monkeypatch, command):
    # the checks and the spectrum of a point read one F, through one reader
    model, path, values = DEFORMATION_SWEEPS["xxzAsymmetric-gammas[1]"]
    config = write_config(tmp_path, {"model": model, "sweep": {"path": path, "values": values}})
    with verify_calls(monkeypatch, "_hermitian_form") as forms:
        assert main([command, config]) == EXIT_OK
    capsys.readouterr()
    points = [build_model(_apply_sweep(model, path, v)) for v in values]
    assert len(forms) == len(points)
    for (h, w), built in zip(forms, points):
        assert np.array_equal(h.vals, built.h.vals) and np.array_equal(w, built.w)


def test_an_isospectrality_fallback_reads_the_sweeps_one_sector_read(
        tmp_path, capsys, monkeypatch):
    # at 1e-16 no bound certifies isospectrality, so each point compares F's eigenvalues with
    # its sector read: the read its spectrum takes, solved at the first point and reused at the
    # others
    import metriq.verify

    model, path, values = DEFORMATION_SWEEPS["xxzAsymmetric-gammas[1]"]
    config = write_config(tmp_path, {"model": model, "sweep": {"path": path, "values": values}})
    assert main(["run", config]) == EXIT_OK
    default = json.loads(capsys.readouterr().out)
    reads, read = [], metriq.verify._eigvalsh_read
    with verify_calls(monkeypatch, "_sector_eigenvalues") as solves, monkeypatch.context() as m:
        m.setattr(metriq.verify, "_eigvalsh_read", lambda *a: reads.append(read(*a)) or reads[-1])
        code = main(["run", config, "--tol", "isospectrality=1e-16"])
    report = json.loads(capsys.readouterr().out)
    assert len(solves) == 1 and len(reads) == len(values)
    assert all(r.eigenvalues is reads[0].eigenvalues for r in reads)
    assert report["spectra"] == default["spectra"]
    tight = [c for c in report["checks"] if c["name"] == "isospectrality"]
    assert [c for c in report["checks"] if c["name"] != "isospectrality"] == [
        c for c in default["checks"] if c["name"] != "isospectrality"]
    assert code == (EXIT_OK if all(c["passed"] for c in tight) else EXIT_CHECK_FAILED)
    for k, (value, entry) in enumerate(zip(values, tight)):
        built = build_model(_apply_sweep(model, path, value))
        (alone,) = run_suite(built.h, built.w, checks=["isospectrality"],
                             tolerances={"isospectrality": 1e-16}).checks
        assert entry["detail"].startswith(f"[{path}={value:g}] eig: ")
        assert entry["passed"] == alone.passed
        # the residual moves from the one it reads alone only within both reads' Weyl terms
        own = read(metriq.verify._hermitian_form(built.h, built.w), built.h)
        assert abs(entry["residual"] - alone.residual) <= reads[k].weyl + own.weyl


def test_an_isospectrality_fallback_forms_no_eigenvectors_unless_a_check_does(
        tmp_path, capsys, monkeypatch):
    # isospectrality and reality read only eigenvalues: eigvals of F, unless the eta-norm
    # decomposes F at the point, whose eigenvalues they then read; no point solves twice
    chain_n6 = {**CHAIN_N10, "n_sites": 6, "gammas": CHAIN_N10["gammas"][:6],
                "xis": CHAIN_N10["xis"][:6]}
    config = write_config(tmp_path, {"model": chain_n6})
    counts = []
    for flags in (["isospectrality=1e-16"], ["isospectrality=1e-16", "reality=1e-30"],
                  ["isospectrality=1e-16", "eta_norm=1e-30"]):
        with verify_calls(monkeypatch, "spectrum") as decomposed, \
                verify_calls(monkeypatch, "_eigenvalues") as read:
            code = main(["verify", config, *(a for f in flags for a in ("--tol", f))])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_CHECK_FAILED and lines[3].startswith("FAIL isospectrality:")
        assert "  eig: max eigenvalue deviation" in lines[3]
        counts.append((len(decomposed), len(read)))
    assert counts == [(0, 1), (0, 1), (1, 0)]


def test_a_sweep_that_changes_the_pattern_solves_each_point(tmp_path, capsys, monkeypatch):
    # a transverse field on one site joins the Sz sectors into one: no point reuses another
    model = CHAIN_N4 | {"fields_a": [0.0] * 4}
    points = [_apply_sweep(model, "fields_a[0]", v) for v in (0.0, 0.3)]
    each = [solves_alone(point, monkeypatch) for point in points]
    # Sz sectors 1, 4, 6, 4, 1: each pair the spin flip J swaps is tied into two equal blocks
    # solved once, the site reflection R folds the 4 into 2 and 2, and J and R fold the 6 into
    # 3, 1 and 2 (one block is empty); then one sector of 16, which the field on one site
    # leaves to J alone, folded in two
    assert each == [[(1, 1), (2, 2), (2, 2), (3, 3), (1, 1), (2, 2)], [(8, 8)] * 2]
    shapes = eigvalsh_shapes(monkeypatch)
    payload = {"model": model, "sweep": {"path": "fields_a[0]", "values": [0.0, 0.3]}}
    code = main(["run", write_config(tmp_path, payload)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert shapes == each[0] + each[1]


def test_spectrum_of_a_transverse_chain_matches_its_hermitian_counterpart(tmp_path, capsys):
    from metriq.spinchain import SpinChainSpec, hermitian_counterpart

    rng = np.random.default_rng(10)
    model = {"kind": "xxzAsymmetric", "n_sites": 10, "gamma_exchange": 1.1, "delta": 0.6,
             "fields_a": list(rng.uniform(0.2, 0.6, 10)),
             "gammas": list(rng.uniform(-0.3, 0.3, 10)),
             "xis": list(rng.uniform(-0.5, 0.5, 10))}
    code = main(["spectrum", write_config(tmp_path, {"model": model})])
    (block,) = json.loads(capsys.readouterr().out)["spectra"]
    assert code == EXIT_OK
    spec = SpinChainSpec(n_sites=10, gamma_exchange=1.1, delta=0.6,
                         fields_a=tuple(model["fields_a"]))
    ref = np.linalg.eigvalsh(hermitian_counterpart(spec))
    re, im = np.array(block["eigenvalues"]).T
    assert np.max(np.abs(re - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))
    assert np.all(im == 0.0)


@pytest.mark.parametrize("grade", [400.0, -400.0])
def test_spectrum_refuses_a_grade_past_the_overflow_guard(tmp_path, capsys, grade):
    # weight exp(-2 grade) would underflow to 0 or overflow, leaving F no finite form
    model = {"kind": "gradedMatrix", "core": [[1.0, 0.0], [0.0, -1.0]],
             "grades": [grade, 0.0]}
    code = main(["spectrum", write_config(tmp_path, {"model": model})])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert "exceeds overflow guard 120.0" in captured.err
    assert captured.out == ""


def test_haldane_shastry_with_sign_minus_one_negates_the_spectrum(tmp_path, capsys):
    model = {"kind": "haldaneShastry", "n_sites": 4, "gammas": [0.2, -0.1, 0.3, 0.05],
             "xis": [0.1, 0.0, -0.2, 0.3]}
    spectra = {}
    for sign in (1, -1):
        code = main(["spectrum", write_config(tmp_path, {"model": dict(model, sign=sign)})])
        (block,) = json.loads(capsys.readouterr().out)["spectra"]
        assert code == EXIT_OK
        spectra[sign] = np.array(block["eigenvalues"])
    np.testing.assert_allclose(spectra[-1][:, 0], np.sort(-spectra[1][:, 0]), rtol=0, atol=1e-12)
    assert np.all(spectra[-1][:, 1] == 0.0)


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "xxzAsymmetric", "n_sites": 2, "gammas": [800.0, 0.0]},
        {"kind": "haldaneShastry", "n_sites": 2, "gammas": [800.0, 0.0]},
        {"kind": "fermionQuadratic", "hopping": [[1.0, 0.3], [0.3, 0.8]],
         "pairing": [[0.0, 0.2], [-0.2, 0.0]], "gammas": [800.0, 0.0]},
        *(pytest.param({"kind": "gradedMatrix", "core": [[1.0, 0.5], [0.5, -1.0]],
                        "grades": [g, 0.0]}, id=f"gradedMatrix{g:+g}") for g in (400, -400)),
        {"kind": "oscillator2d", "k1": 2.0, "k2": 1.0, "k3": 1.0, "gamma": 800.0,
         "cutoff": 2},
        {"kind": "bosonQuadratic", "alpha": [[2.0, 0.3], [0.3, 1.5]],
         "beta": [[0.4, 0.1], [0.1, -0.2]], "gammas": [800.0, 0.0], "cutoff": 2},
        {"kind": "lmg", "omega0": 1.0, "omega": 0.4, "gammas": [800.0, 0.0], "cutoff": 2},
        {"kind": "xxzSymmetric", "n_sites": 2, "fields_a": [0.4, 0.4], "gamma": 800.0},
    ],
    ids=lambda m: m["kind"],
)
def test_chain_and_fermion_overflow_guard(tmp_path, capsys, model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", write_config(tmp_path, {"model": model})])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert "overflow guard" in captured.err
    assert captured.out == ""


def _deformed(model, scale):
    """``model`` with its ``gammas``, ``gamma`` or ``grades`` scaled by ``scale``."""
    key = next(k for k in ("gammas", "gamma", "grades") if k in model)
    g = model[key]
    return {**model, key: [scale * x for x in g] if isinstance(g, list) else scale * g}


# One model of each CLI kind at the overflow guard's edge.
GUARD_EDGE_MODELS = [
    # Just inside the rule: the largest metric exponent |2 Q.gamma| is 119.2
    # (Lz and occupations up to the cutoff 4) or 119.4 (S^z = +-1/2, fermion
    # occupations up to 1, grades); scaled by 1.01 it is just outside.
    {"kind": "oscillator2d", "k1": 2.0, "k2": 1.0, "k3": 1.0, "gamma": 14.9,
     "cutoff": 4},
    # the exponent sums over the modes of one sign: 2 * 4 * (7.45 + 7.45)
    {"kind": "bosonQuadratic",
     "alpha": [[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.8]],
     "beta": [[0.4, 0.1, 0.0], [0.1, -0.2, 0.0], [0.0, 0.0, 0.1]],
     "gammas": [7.45, 7.45, -14.9], "cutoff": 4},
    {"kind": "lmg", "omega0": 1.0, "omega": 0.4, "gammas": [14.9, -14.9], "cutoff": 4},
    # 2 * (29.85 + 29.85), though sum |gamma| = 119.4
    {"kind": "fermionQuadratic",
     "hopping": [[1.0, 0.3, 0.0], [0.3, 0.8, 0.2], [0.0, 0.2, 0.5]],
     "pairing": [[0.0, 0.2, 0.0], [-0.2, 0.0, 0.1], [0.0, -0.1, 0.0]],
     "gammas": [29.85, 29.85, -59.7]},
    {"kind": "xxzAsymmetric", "n_sites": 3, "delta": 0.5,
     "gammas": [39.8, 39.8, -39.8]},
    {"kind": "xxzSymmetric", "n_sites": 3, "delta": 0.5,
     "fields_a": [0.4, 0.4, 0.4], "gamma": 39.8},
    {"kind": "haldaneShastry", "n_sites": 3, "gammas": [39.8, -39.8, 39.8]},
    {"kind": "gradedMatrix", "core": [[1.0, 0.5], [0.5, -1.0]],
     "grades": [59.7, -59.7]},
]


@pytest.mark.parametrize(
    "model",
    GUARD_EDGE_MODELS,
    ids=lambda m: m["kind"],
)
def test_overflow_guard_sums_over_modes(tmp_path, capsys, model):
    def cli(command, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, write_config(tmp_path, {"model": m})])
        return code, capsys.readouterr()

    lam = {}
    for scale in (1.0, 0.0):  # the config and its w = 0 counterpart
        code, captured = cli("spectrum", _deformed(model, scale))
        assert code == EXIT_OK
        (block,) = json.loads(captured.out)["spectra"]
        lam[scale] = np.array(block["eigenvalues"]) @ [1.0, 1j]
    assert np.max(np.abs(lam[1.0] - lam[0.0])) <= 1e-12 * (1.0 + np.max(np.abs(lam[0.0])))
    code, captured = cli("run", model)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    assert len(json.loads(captured.out)["checks"]) == 5

    code, captured = cli("verify", _deformed(model, 1.01))
    assert code == EXIT_CONFIG_ERROR
    assert "deformation exponent" in captured.err
    assert "exceeds overflow guard 120.0" in captured.err
    assert captured.out == ""


def test_all_model_kinds_pass_default_suite(tmp_path, capsys):
    configs = [
        {"kind": "oscillator2d", "k1": 2.0, "k2": 1.0, "k3": 1.0, "gamma": 0.2,
         "xi": 0.1, "cutoff": 5},
        {"kind": "bosonQuadratic", "alpha": [[2.0, 0.3], [0.3, 1.5]],
         "beta": [[0.4, 0.1], [0.1, -0.2]], "gammas": [0.3, -0.2],
         "xis": [0.1, 0.25], "cutoff": 5},
        {"kind": "lmg", "omega0": 1.0, "omega": 0.4, "gammas": [0.2, -0.1],
         "cutoff": 5},
        {"kind": "fermionQuadratic", "hopping": [[1.0, 0.3], [0.3, 0.8]],
         "pairing": [[0.0, 0.2], [-0.2, 0.0]], "gammas": [0.4, -0.1]},
        {"kind": "xxzAsymmetric", "n_sites": 3, "delta": 0.5,
         "gammas": [0.3, 0.0, -0.2], "xis": [0.1, 0.0, 0.2]},
        {"kind": "xxzSymmetric", "n_sites": 3, "delta": 0.5,
         "fields_a": [0.4, 0.4, 0.4], "gamma": 0.3, "xi": 0.1},
        {"kind": "haldaneShastry", "n_sites": 3, "gammas": [0.2, -0.1, 0.3]},
        {"kind": "gradedMatrix", "core": [[1.0, 0.5], [0.5, -1.0]],
         "grades": [0.3, 0.0]},
    ]
    for model in configs:
        path = write_config(tmp_path, {"model": model}, name=f"{model['kind']}.json")
        code = main(["verify", path])
        out = capsys.readouterr().out
        assert code == EXIT_OK, f"{model['kind']} failed:\n{out}"


# The Hamiltonian builders the CLI calls for their nonzeros; each is also public, dense.
_PUBLIC_BUILDERS = ("build_xy_hamiltonian", "build_quadratic_hamiltonian", "build_lmg",
                    "build_fermion_quadratic", "build_xxz_asymmetric", "build_haldane_shastry")
# sha256 prefixes of the dense matrices the public builders returned when the assembler
# still scattered into a dense array: for each golden config, and for the benchmark's
# three workloads at seed 1 over every sweep point, with the oracle's hermitian build
BUILDER_PINS = json.loads((Path(__file__).parent / "builder_pins.json").read_text())


def _builder_configs():
    return {**{name: {"model": m} for name, m in GOLDEN_CONFIGS.items()},
            **BUILDER_PINS["workloads"]}


@pytest.mark.parametrize("name", sorted(_builder_configs()))
def test_public_builders_return_the_dense_matrix_bit_for_bit(monkeypatch, name):
    import hashlib

    import metriq.cli
    from metriq.cli import _apply_sweep, _build_model, _normalize_model

    calls = []
    for attr in _PUBLIC_BUILDERS:
        build = getattr(metriq.cli, attr)
        monkeypatch.setattr(build, "_triplets", lambda *a, _b=build, _t=build._triplets, **k:
                            calls.append((_b, a, k)) or _t(*a, **k))
    config = _builder_configs()[name]
    spec = _normalize_model(config["model"])
    sweep = config.get("sweep")
    points = [spec.params] if sweep is None else [
        _apply_sweep(spec.params, sweep["path"], v) for v in sweep["values"]]
    digest = hashlib.sha256()
    for params in points:
        calls.clear()
        h = _build_model(ModelSpec(spec.kind, params)).h()
        # the public builder on the arguments the CLI passed; gradedMatrix calls none
        dense = h.dense() if not calls else calls[0][0](*calls[0][1], **calls[0][2])
        assert dense.dtype == complex and np.array_equal(dense, h.dense())
        digest.update(dense.tobytes())
    assert digest.hexdigest()[:16] == BUILDER_PINS["sha256"][name]
    if f"{name}:oracle" in BUILDER_PINS["sha256"]:
        digest = hashlib.sha256(_oracle_build(config["model"]).tobytes())
        assert digest.hexdigest()[:16] == BUILDER_PINS["sha256"][f"{name}:oracle"]


def _cli_build(name):
    """The CLI's build of ``tests/configs/NAME.json``: ``H``'s nonzeros and ``w``."""
    from metriq.cli import _build_model, _normalize_model

    model = json.loads((CONFIG_DIR / f"{name}.json").read_text())["model"]
    built = _build_model(_normalize_model(model))
    return built._replace(h=built.h())


# sha256 of the int64 rows, int64 cols and complex vals of each CLI build, recorded when the
# assembler still summed its raw entries through np.unique and np.add.at; a dense pin at dim
# 4096 would hash 256 MiB per matrix
@pytest.mark.parametrize("name", sorted(BUILDER_PINS["nonzeros"]))
def test_cli_builds_keep_their_nonzeros_bit_for_bit(name):
    import hashlib

    h = _cli_build(name).h
    for field, dtype in (("rows", np.int64), ("cols", np.int64), ("vals", complex)):
        array = getattr(h, field)
        assert array.dtype == dtype
        assert hashlib.sha256(array.tobytes()).hexdigest() == BUILDER_PINS["nonzeros"][name][field]


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_cli_builds_hold_contiguous_int64_indices(name):
    from metriq.cli import _build_model, _normalize_model

    h = _build_model(_normalize_model(GOLDEN_CONFIGS[name])).h()
    for index in (h.rows, h.cols):
        assert index.dtype == np.int64 and index.flags.c_contiguous


@pytest.mark.parametrize(
    "name, limit_mib",
    [
        # 25 offsets, so a 1.6 MiB (dim, offsets) buffer beside 75,776 nonzeros; measured at
        # 5.0 MiB, and at 17.5 MiB while the raw entries were sorted and summed
        ("xxz_transverse_n12", 8),
        # every pair of the 12 sites, so 133 offsets: 8.3 MiB beside 139,264 nonzeros; measured
        # at 14.2 MiB, and at 41.2 MiB while the raw entries were sorted and summed
        ("haldane_shastry_n12", 20),
    ],
)
def test_assembler_peak_is_its_offset_buffer_and_the_nonzeros(name, limit_mib):
    import tracemalloc

    _cli_build(name)  # a first build, so the traced one allocates no import or cache
    tracemalloc.start()
    try:
        _cli_build(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


def _oracle_build(model):
    """The hermitian counterpart the benchmark's oracle builds for a workload's model."""
    from metriq.bosonic import FockSpace
    from metriq.oscillator2d import OscillatorParams, build_xy_hamiltonian
    from metriq.spinchain import SpinChainSpec, hermitian_counterpart

    if model["kind"] == "oscillator2d":
        params = OscillatorParams(model["k1"], model["k2"], model["k3"])
        return build_xy_hamiltonian(params, FockSpace(2, model["cutoff"]))
    return hermitian_counterpart(SpinChainSpec(
        n_sites=model["n_sites"], gamma_exchange=model["gamma_exchange"],
        delta=model["delta"], fields_a=tuple(model.get("fields_a", ()))))


@pytest.mark.parametrize(
    "command, model, limit",
    [
        # 11 Sz sectors, the largest 252: no array of dim**2 entries, not even real ones
        ("verify", CHAIN_N10, 1024**2 * 8),
        ("run", CHAIN_N10, 1024**2 * 8),
        # one sector of 1024, folded by the spin flip and the site reflection into blocks of
        # 272, 240, 256 and 256 solved one at a time: measured at 2.7 MiB, at 2.9 MiB while the
        # sector's read outlived its fold, and at 3.7 MiB while the spin flip alone folded it
        # into halves of 512 (2 MiB each)
        ("spectrum", {**CHAIN_N10, "fields_a": [0.4] * 10}, 23 * 2**17),  # 2.875 MiB
    ],
)
def test_cli_makes_no_dense_h(tmp_path, capsys, command, model, limit):
    import tracemalloc

    path = write_config(tmp_path, {"model": model})
    tracemalloc.start()
    try:
        code = main([command, path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_OK
    assert peak < 1024**2 * np.dtype(complex).itemsize  # a dense H is 16 MiB
    assert peak <= limit
