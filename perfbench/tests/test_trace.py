"""Traced runs: spans partition the root, peaks nest, and seed counts repeat."""
import json
import tracemalloc

import numpy as np
import pytest

import run
from tracer import ROOT, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, make_inputs

# Exact counts of one traced invocation, per workload.
SEED_COUNTS = {
    "chain_run": {
        "numpy.linalg.eig.calls": 5,
        "numpy.linalg.cond.calls": 2,
        "spinchain.build.calls": 2,
        "oscillator2d.build.calls": 0,
        "linops.spectrum.cli.calls": 1,
        "linops.spectrum.run_suite.calls": 3,
    },
    "chain_spectrum": {
        "numpy.linalg.eig.calls": 1,
        "numpy.linalg.cond.calls": 0,
        "spinchain.build.calls": 2,
        "oscillator2d.build.calls": 0,
        "linops.spectrum.cli.calls": 1,
        "linops.spectrum.run_suite.calls": 0,
    },
    "osc_sweep": {
        "numpy.linalg.eig.calls": 39,
        "numpy.linalg.cond.calls": 15,
        "spinchain.build.calls": 0,
        "oscillator2d.build.calls": 9,
        "linops.spectrum.cli.calls": 8,
        "linops.spectrum.run_suite.calls": 24,
    },
}


def traced_invocation(tmp_path, name, seed=1):
    config, metriq_seed = make_inputs(name, seed)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = [WORKLOADS[name].command, str(path), "--seed", str(metriq_seed)]
    return run.spawn(tmp_path, args, trace=True)


def test_self_times_sum_to_the_root_span(tmp_path):
    inv = traced_invocation(tmp_path, "osc_sweep")
    assert inv.exit_code == 0
    spans = inv.spans["spans"]
    assert inv.spans["missing"] == []
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == [ROOT]
    own = self_times(spans)
    assert min(own) >= 0.0
    root_s = roots[0]["end"] - roots[0]["start"]
    assert sum(own) == pytest.approx(root_s, rel=1e-9)
    for s in spans:
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


@pytest.mark.parametrize("name", sorted(SEED_COUNTS))
def test_seed_counts_reproduce(tmp_path, name):
    inv = traced_invocation(tmp_path, name)
    report = json.loads(inv.stdout)
    metrics = layer_metrics(inv.spans["spans"], report["checks"])
    assert {k: metrics[k] for k in SEED_COUNTS[name]} == SEED_COUNTS[name]
    assert all(metrics[f"verify.{c}.failed"] == 0 for c in
               ("metric_pd", "pseudo_hermiticity", "reality", "isospectrality", "eta_norm"))


def test_nested_peaks_fold_into_the_parent():
    tracer = Tracer()
    tracemalloc.start()
    try:
        outer = tracer.enter("outer")
        inner = tracer.enter("inner")
        block = np.ones(1 << 20)  # 8 MiB, freed before the inner span ends
        del block
        tracer.exit(inner)
        small = np.ones(1 << 17)  # 1 MiB, live when the outer span ends
        tracer.exit(outer)
        del small
    finally:
        tracemalloc.stop()
    mib = 1 << 20
    inner_peak, outer_peak = tracer.spans[1]["peak_bytes"], tracer.spans[0]["peak_bytes"]
    assert 8 * mib <= inner_peak < 9 * mib
    assert outer_peak >= inner_peak
