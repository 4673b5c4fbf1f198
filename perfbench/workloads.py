"""The benchmark's workloads: one metriq CLI invocation each, config from a seed.

The seed draws the deformation parameters (``gammas``, ``xis``, fields,
stiffnesses) inside ranges where every check passes with margin; the
program receives only the generated config and its own ``--seed``.

``reference_spectra`` is the oracle's side: the spectrum every sweep point
must reproduce, from ``eigvalsh`` of the hermitian ``w = 0`` counterpart
built with the package's public builders.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

N_SITES = 10  # dim 1024, the size the chain baselines are quoted at
OSC_CUTOFF = 16  # dim 289
# Eight points, all inside the range where eta_norm keeps a 5x margin to
# its tolerance over the seeds' stiffnesses; at gamma >= 0.42 it does not.
OSC_GAMMAS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35)


@dataclass(frozen=True)
class Workload:
    command: str  # metriq subcommand
    make_model: Callable[[random.Random], dict]
    sweep: dict | None = None


def _uniform(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    return [rng.uniform(lo, hi) for _ in range(n)]


def _chain(rng: random.Random, transverse: bool) -> dict:
    model = {
        "kind": "xxzAsymmetric",
        "n_sites": N_SITES,
        "gamma_exchange": rng.uniform(0.8, 1.2),
        "delta": rng.uniform(0.3, 0.9),
        "gammas": _uniform(rng, -0.3, 0.3, N_SITES),
        "xis": _uniform(rng, -0.5, 0.5, N_SITES),
    }
    if transverse:
        model["fields_a"] = _uniform(rng, 0.2, 0.6, N_SITES)
    return model


def _oscillator(rng: random.Random) -> dict:
    k1, k2 = rng.uniform(0.6, 1.6), rng.uniform(0.6, 1.6)
    # |k3| < 2 sqrt(k1 k2) keeps the untruncated spectrum real.
    k3 = rng.uniform(-0.8, 0.8) * 2.0 * (k1 * k2) ** 0.5
    return {
        "kind": "oscillator2d",
        "k1": k1,
        "k2": k2,
        "k3": k3,
        "xi": rng.uniform(-0.5, 0.5),
        "cutoff": OSC_CUTOFF,
    }


# Why each workload was chosen is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    "chain_run": Workload("run", lambda rng: _chain(rng, transverse=False)),
    "chain_spectrum": Workload("spectrum", lambda rng: _chain(rng, transverse=True)),
    "osc_sweep": Workload(
        "run", _oscillator, {"path": "gamma", "values": list(OSC_GAMMAS)}
    ),
}


def make_inputs(name: str, seed: int) -> tuple[dict, int]:
    """The config and the metriq ``--seed`` of workload ``name`` for ``seed``."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    config = {"model": workload.make_model(rng)}
    if workload.sweep is not None:
        config["sweep"] = workload.sweep
    return config, rng.randrange(2**31)


def reference_spectra(config: dict) -> list:
    """Sorted real reference spectrum for each sweep point of ``config``.

    The sweeps here only move the deformation, so every point shares the
    spectrum of the one hermitian counterpart.
    """
    import numpy as np

    from oracle import sweep_points

    model = config["model"]
    if model["kind"] == "xxzAsymmetric":
        from metriq.spinchain import SpinChainSpec, hermitian_counterpart

        spec = SpinChainSpec(
            n_sites=model["n_sites"],
            gamma_exchange=model["gamma_exchange"],
            delta=model["delta"],
            fields_a=tuple(model.get("fields_a", ())),
        )
        herm = hermitian_counterpart(spec)
    elif model["kind"] == "oscillator2d":
        from metriq.bosonic import FockSpace
        from metriq.oscillator2d import OscillatorParams, build_xy_hamiltonian

        params = OscillatorParams(model["k1"], model["k2"], model["k3"])
        herm = build_xy_hamiltonian(params, FockSpace(2, model["cutoff"]))
    else:
        raise ValueError(f"no reference for model kind {model['kind']!r}")
    ref = np.linalg.eigvalsh(herm)
    return [ref] * len(sweep_points(config))
