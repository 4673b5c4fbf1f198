"""Golden reports: verdicts, exit codes and spectra of `metriq run --seed 1`.

The fixture ``golden_reports.json`` pins, for each config below, the exit
code, the check names with their verdicts, and the spectra.  Verdicts and
exit codes must match exactly and spectra to 1e-12; residuals are not
pinned, so an algorithm change may move them at the rounding level.  The
ill-conditioned entry (metric condition ~5e16) keeps its exact exit code and
verdicts, but its spectrum is held to the hermitian build by
``test_ill_conditioned_spectrum_matches_the_hermitian_build`` instead: its
pin records dense-``eig`` rounding, which moves by ~1e-12 with the BLAS
thread count and with any rounding-level change of the matrix.
``metriq spectrum`` takes its eigenvalues by the same route as ``run``,
``eigvalsh`` of the hermitian-equivalent form, and must match the same pins
by the same rules.

Re-record configs (only when a change of verdict or spectrum is intended) by name with
``PYTHONPATH=src python tests/test_golden.py NAME...``: only the named entries are
rewritten, and every other entry stays as it is.  With no names it
lists the config names, re-records nothing and exits 2, so a pin that records
rounding, such as the ill-conditioned spectrum, moves only when it is named.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from metriq.bosonic import FockSpace
from metriq.cli import main
from metriq.oscillator2d import OscillatorParams, build_xy_hamiltonian

FIXTURE = Path(__file__).with_name("golden_reports.json")

CONFIGS = {
    "oscillator2d": {"kind": "oscillator2d", "k1": 2.0, "k2": 1.0, "k3": 1.0,
                     "gamma": 0.2, "xi": 0.1, "cutoff": 5},
    "bosonQuadratic": {"kind": "bosonQuadratic", "alpha": [[2.0, 0.3], [0.3, 1.5]],
                       "beta": [[0.4, 0.1], [0.1, -0.2]], "gammas": [0.3, -0.2],
                       "xis": [0.1, 0.25], "cutoff": 5},
    "lmg": {"kind": "lmg", "omega0": 1.0, "omega": 0.4, "gammas": [0.2, -0.1],
            "cutoff": 5},
    "fermionQuadratic": {"kind": "fermionQuadratic", "hopping": [[1.0, 0.3], [0.3, 0.8]],
                         "pairing": [[0.0, 0.2], [-0.2, 0.0]], "gammas": [0.4, -0.1]},
    "xxzAsymmetric": {"kind": "xxzAsymmetric", "n_sites": 3, "delta": 0.5,
                      "gammas": [0.3, 0.0, -0.2], "xis": [0.1, 0.0, 0.2]},
    "xxzSymmetric": {"kind": "xxzSymmetric", "n_sites": 3, "delta": 0.5,
                     "fields_a": [0.4, 0.4, 0.4], "gamma": 0.3, "xi": 0.1},
    "haldaneShastry": {"kind": "haldaneShastry", "n_sites": 3, "gammas": [0.2, -0.1, 0.3]},
    "gradedMatrix": {"kind": "gradedMatrix", "core": [[1.0, 0.5], [0.5, -1.0]],
                     "grades": [0.3, 0.0]},
    # large metric condition number (exp(2 * 0.8 * 2 * 12) ~ 5e16)
    "oscillator2d_ill_conditioned": {"kind": "oscillator2d", "k1": 1.0, "k2": 1.3,
                                     "k3": 0.4, "gamma": 0.8, "cutoff": 12},
}
# spectra held to the oracle rule below rather than to their 1e-12 pin
ORACLE_SPECTRA = {"oscillator2d_ill_conditioned"}


def record(tmp_path: Path, model: dict, command: str = "run", checks=None) -> dict:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": model, **({"checks": checks} if checks else {})}))
    out = tmp_path / "out"
    code = main([command, str(path), "--seed", "1", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    return {
        "exit_code": code,
        "checks": [[c["name"], c["passed"]] for c in report["checks"]],
        "spectra": [s["eigenvalues"] for s in report["spectra"]],
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_report(tmp_path, name):
    golden = json.loads(FIXTURE.read_text())[name]
    got = record(tmp_path, CONFIGS[name])
    assert got["exit_code"] == golden["exit_code"]
    assert got["checks"] == golden["checks"]
    assert len(got["spectra"]) == len(golden["spectra"])
    if name in ORACLE_SPECTRA:
        return
    for lam, ref in zip(got["spectra"], golden["spectra"]):
        np.testing.assert_allclose(np.asarray(lam), np.asarray(ref), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_calls_no_general_eig_where_the_bounds_certify(tmp_path, monkeypatch, name):
    # every golden check passes on its bound from the hermitian form, the
    # ill-conditioned config's too
    calls = []
    for fn in ("eig", "eigvals"):
        def recorded(*args, _fn=fn, _real=getattr(np.linalg, fn), **kwargs):
            calls.append(_fn)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, fn, recorded)
    got = record(tmp_path, CONFIGS[name])
    assert got["checks"] == json.loads(FIXTURE.read_text())[name]["checks"]
    assert calls == []


def assert_matches_the_hermitian_build(model: dict, lam) -> None:
    # the gamma = 0 build is hermitian and exactly isospectral; the pin above
    # only records rounding, this holds the spectrum to the benchmark oracle's rule
    params = OscillatorParams(model["k1"], model["k2"], model["k3"])
    ref = np.linalg.eigvalsh(build_xy_hamiltonian(params, FockSpace(2, model["cutoff"])))
    lam = np.asarray(lam) @ [1.0, 1j]
    assert np.max(np.abs(lam - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))


def test_ill_conditioned_spectrum_matches_the_hermitian_build(tmp_path):
    model = CONFIGS["oscillator2d_ill_conditioned"]
    (lam,) = record(tmp_path, model)["spectra"]
    assert_matches_the_hermitian_build(model, lam)


def assert_matches_the_golden_spectrum(name: str, lam) -> None:
    if name in ORACLE_SPECTRA:
        assert_matches_the_hermitian_build(CONFIGS[name], lam)
        return
    (ref,) = json.loads(FIXTURE.read_text())[name]["spectra"]
    np.testing.assert_allclose(np.asarray(lam), np.asarray(ref), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_spectrum_command_matches_the_golden_spectra(tmp_path, name):
    got = record(tmp_path, CONFIGS[name], command="spectrum")
    assert got["exit_code"] == 0
    assert got["checks"] == []
    (lam,) = got["spectra"]
    assert_matches_the_golden_spectrum(name, lam)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_with_no_spectral_check_matches_the_golden_spectra(tmp_path, name):
    # the spectrum takes one route whichever checks run, so it matches with metric_pd alone
    got = record(tmp_path, CONFIGS[name], checks=["metric_pd"])
    assert got["exit_code"] == 0
    assert got["checks"] == [["metric_pd", True]]
    (lam,) = got["spectra"]
    assert_matches_the_golden_spectrum(name, lam)


def rerecord(names, fixture: Path = FIXTURE) -> None:
    """Re-record the entries ``names`` of ``fixture`` and keep every other one."""
    import tempfile

    unknown = set(names) - set(CONFIGS)
    if unknown:
        raise ValueError(f"no golden config named {sorted(unknown)}; known: {sorted(CONFIGS)}")
    pins = json.loads(fixture.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        pins.update({name: record(Path(tmp), CONFIGS[name]) for name in names})
    fixture.write_text(json.dumps(pins, indent=1) + "\n")


def test_rerecording_one_config_leaves_every_other_entry_as_it_was(tmp_path):
    fixture = tmp_path / "golden_reports.json"
    pins = json.loads(FIXTURE.read_text())
    pins["gradedMatrix"] = {"exit_code": -1, "checks": [], "spectra": []}
    fixture.write_text(json.dumps(pins, indent=1) + "\n")
    rerecord(["gradedMatrix"], fixture)
    got = json.loads(fixture.read_text())
    assert list(got) == list(pins)
    assert got["gradedMatrix"]["exit_code"] == 0
    assert {k: v for k, v in got.items() if k != "gradedMatrix"} == {
        k: v for k, v in pins.items() if k != "gradedMatrix"}
    with pytest.raises(ValueError, match="no golden config named"):
        rerecord(["nope"], fixture)


if __name__ == "__main__":
    import sys

    if len(sys.argv) < 2:
        print(f"usage: python tests/test_golden.py NAME...; names: {', '.join(CONFIGS)}")
        sys.exit(2)
    rerecord(sys.argv[1:])
