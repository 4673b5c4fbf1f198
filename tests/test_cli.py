"""Config parsing, report emission, and exit codes of the batch front end."""
import collections
import json
import warnings

import numpy as np
import pytest

from metriq.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    ConfigError,
    ModelSpec,
    OutputSpec,
    RunConfig,
    SweepSpec,
    main,
    parse_config,
    serialize_config,
)

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


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
        ({"model": hs, "output": "out"}, "'output' must be an object"),
        ({"model": hs, "output": {"path": "x", "mode": "w"}}, "unknown field"),
        ({"model": hs, "output": {"format": "csv"}}, "string 'path'"),
        ({"model": dict(boson, xis=[0.1, 0.2])}, "xis must have 1 entries"),
        ({"model": lmg}, "exactly 2 gammas"),
        ({"model": dict(hs, gammas=[0.1])}, "gammas/xis must have 2 entries"),
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


def test_singular_metric_is_a_failed_entry(tmp_path, capsys):
    # passes the builder guard, but cond(eta) ~ 5e16 trips the singular-metric test
    payload = {"model": {"kind": "oscillator2d", "k1": 1.0, "k2": 1.3, "k3": 0.4,
                         "gamma": 0.8, "cutoff": 12}}
    code = main(["verify", write_config(tmp_path, payload)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_CHECK_FAILED
    assert len(lines) == 5
    assert lines[0].startswith("PASS metric_pd")
    assert lines[1].startswith("FAIL pseudo_hermiticity: residual=inf")
    assert "failed: metric condition number" in lines[1]
    assert lines[3].startswith("FAIL isospectrality: residual=inf")
    assert "failed: metric condition number" in lines[3]
    assert lines[1].split("  ", 1)[1] == lines[3].split("  ", 1)[1]


def test_exit_config_error(tmp_path, capsys):
    bad = {"model": {"kind": "oscillator2d", "k1": 1.0}}
    code = main(["run", write_config(tmp_path, bad)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith("error:")
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG_ERROR


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
    assert main(["verify", path, "--tol", "reality=abc"]) == EXIT_CONFIG_ERROR
    capsys.readouterr()
    assert main(["verify", path, "--tol", "reality"]) == EXIT_CONFIG_ERROR
    capsys.readouterr()
    assert main(["verify", path, "--tol", "reality=0"]) == EXIT_CONFIG_ERROR
    assert "positive and finite" in capsys.readouterr().err
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


def test_numerical_failure_keeps_the_other_sweep_points(tmp_path, capsys, monkeypatch):
    import metriq.cli

    real_eigenvalues = metriq.cli.eigenvalues
    calls = []

    def flaky_eigenvalues(h):
        calls.append(h)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigenvalues(h)

    monkeypatch.setattr(metriq.cli, "eigenvalues", flaky_eigenvalues)
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


@pytest.mark.parametrize("command", ["run", "spectrum"])
def test_one_eig_per_sz_sector_per_sweep_point(tmp_path, capsys, monkeypatch, command):
    calls = collections.Counter()
    eig_shapes = []
    for name in ("eig", "eigh", "eigvals"):
        def counted(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            if _name != "eigh":
                eig_shapes.append(np.shape(a))
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
    # the n=3 total-Sz sectors, by smallest index: {0}, {1,2,4}, {3,5,6}, {7}
    assert eig_shapes == [(1, 1), (3, 3), (3, 3), (1, 1)] * 3
    # run reads eigenvectors in its checks; spectrum needs eigenvalues only
    assert calls == {"run": {"eig": 12}, "spectrum": {"eigvals": 12}}[command]


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "xxzAsymmetric", "n_sites": 2, "gammas": [800.0, 0.0]},
        {"kind": "haldaneShastry", "n_sites": 2, "gammas": [800.0, 0.0]},
        {"kind": "fermionQuadratic", "hopping": [[1.0, 0.3], [0.3, 0.8]],
         "pairing": [[0.0, 0.2], [-0.2, 0.0]], "gammas": [800.0, 0.0]},
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


@pytest.mark.parametrize(
    "model",
    [
        # each site passes |gamma| <= 60, the metric exponent sums to 360
        {"kind": "fermionQuadratic", "hopping": np.eye(6).tolist(),
         "pairing": np.zeros((6, 6)).tolist(), "gammas": [-60.0] * 6},
        # each mode passes 1 * 40 <= 60, the sum gives 80
        {"kind": "bosonQuadratic", "alpha": [[2.0, 0.3], [0.3, 1.5]],
         "beta": [[0.4, 0.1], [0.1, -0.2]], "gammas": [1.0, 1.0], "cutoff": 40},
    ],
    ids=lambda m: m["kind"],
)
def test_overflow_guard_sums_over_modes(tmp_path, capsys, model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", write_config(tmp_path, {"model": model})])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert "sum |gamma| * cutoff" in captured.err
    assert "exceeds overflow guard 60.0" in captured.err
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
