"""The correctness oracle flags wrong spectra, failed checks and bad exit codes."""
import json

import pytest

from metriq import cli
from oracle import judge
from workloads import make_inputs, reference_spectra

SMALL_SWEEP = {
    "model": {"kind": "oscillator2d", "k1": 1.2, "k2": 0.9, "k3": 0.4, "xi": 0.2, "cutoff": 6},
    "sweep": {"path": "gamma", "values": [0.0, 0.1, 0.15]},
}


def cli_output(tmp_path, capsys, config, command="run"):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = cli.main([command, str(path), "--seed", "7"])
    return capsys.readouterr().out, code


def judge_config(config, stdout, code, command="run"):
    return judge(command, config, reference_spectra(config), stdout, code)


def test_clean_sweep_passes(tmp_path, capsys):
    stdout, code = cli_output(tmp_path, capsys, SMALL_SWEEP)
    verdict = judge_config(SMALL_SWEEP, stdout, code)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (3, 0, [])


def test_perturbed_spectrum_is_flagged(tmp_path, capsys):
    stdout, code = cli_output(tmp_path, capsys, SMALL_SWEEP)
    report = json.loads(stdout)
    report["spectra"][1]["eigenvalues"][4][0] += 1e-7
    verdict = judge_config(SMALL_SWEEP, json.dumps(report), code)
    assert verdict.failed == 1
    assert len(verdict.problems) == 1
    assert "sweep value 0.1 " in verdict.problems[0]


def test_failed_check_fails_only_its_point(tmp_path, capsys):
    stdout, code = cli_output(tmp_path, capsys, SMALL_SWEEP)
    report = json.loads(stdout)
    entry = next(e for e in report["checks"] if e["detail"].startswith("[gamma=0.15]"))
    entry["passed"] = False
    verdict = judge_config(SMALL_SWEEP, json.dumps(report), 1)
    assert (verdict.failed, verdict.problems) == (1, [])
    # The same report with exit 0 contradicts its own verdicts.
    verdict = judge_config(SMALL_SWEEP, json.dumps(report), 0)
    assert verdict.failed == 1
    assert verdict.problems == ["exit code 0, but the report calls for 1"]


def test_point_without_checks_or_spectrum_fails(tmp_path, capsys):
    stdout, code = cli_output(tmp_path, capsys, SMALL_SWEEP)
    report = json.loads(stdout)
    report["checks"] = [e for e in report["checks"] if not e["detail"].startswith("[gamma=0]")]
    del report["spectra"][2]
    verdict = judge_config(SMALL_SWEEP, json.dumps(report), code)
    assert verdict.failed == 2


def test_unreadable_report_fails_every_point():
    verdict = judge_config(SMALL_SWEEP, "Traceback ...", 1)
    assert verdict.failed == 3
    assert verdict.problems and verdict.problems[0].startswith("no readable report")


def test_spectrum_command_is_judged_on_spectra_alone(tmp_path, capsys):
    config = {"model": dict(SMALL_SWEEP["model"], gamma=0.1)}
    stdout, code = cli_output(tmp_path, capsys, config, command="spectrum")
    verdict = judge_config(config, stdout, code, command="spectrum")
    assert (verdict.attempted, verdict.failed, verdict.problems) == (1, 0, [])


@pytest.mark.parametrize("name", ["chain_run", "chain_spectrum", "osc_sweep"])
def test_inputs_follow_the_seed(name):
    assert make_inputs(name, 5) == make_inputs(name, 5)
    assert make_inputs(name, 5) != make_inputs(name, 6)
