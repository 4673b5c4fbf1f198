"""Span tracing for one metriq CLI invocation, and the per-layer metrics.

The tracer wraps public functions at the name their caller looks them up
under (for example ``metriq.cli.run_suite`` or ``numpy.linalg.eig``), so no
file of the program changes.  Spans nest by call stack.  Each span records
its wall interval and, through ``tracemalloc``, the peak traced memory it
added above what was live when it started; the peak is reset at every span
and folded back into the enclosing one, so nested peaks stay correct.

``layer_metrics`` turns the recorded spans into the named per-layer metrics
listed in ``BENCHMARK.json``.
"""
from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

ROOT = "cli"

# (module, attribute, span name, site).  The site tells apart two callers
# of the same function, or the functions that make up one layer.
TRACED_NAMES = [
    ("metriq.cli", "parse_config", "cli.parse_config", None),
    ("metriq.cli", "run_suite", "verify.run_suite", None),
    ("metriq.cli", "spectrum", "linops.spectrum", "cli"),
    ("metriq.verify", "spectrum", "linops.spectrum", "run_suite"),
    ("metriq.verify", "evolve", "linops.evolve", None),
    ("metriq.verify", "is_pseudo_hermitian", "linops.is_pseudo_hermitian", None),
    ("metriq.verify", "matrix_sqrt_pd", "linops.matrix_sqrt_pd", None),
    ("metriq.verify", "to_hermitian", "linops.to_hermitian", None),
    ("metriq.oscillator2d", "ladder_ops", "bosonic.ladder_ops", None),
]
# The builder names the CLI looks up, by the layer that owns them.  Only a
# Hamiltonian builder counts as a build; the metric and phase builders next
# to it add to the layer's time.
BUILD_LAYERS = {
    "spinchain.build": (
        "build_xxz_asymmetric",
        "build_xxz_symmetric",
        "build_haldane_shastry",
        "build_fermion_quadratic",
        "build_zeta_metric",
        "fermion_metric",
        "chain_unitary",
    ),
    "oscillator2d.build": (
        "build_xy_hamiltonian",
        "oscillator_metric",
        "angular_momentum_diag",
    ),
}
HAMILTONIAN_BUILDERS = {
    "build_xxz_asymmetric",
    "build_xxz_symmetric",
    "build_haldane_shastry",
    "build_fermion_quadratic",
    "build_xy_hamiltonian",
}
TRACED_NAMES += [
    ("metriq.cli", fn, layer, fn) for layer, names in BUILD_LAYERS.items() for fn in names
]

LINALG = ("eig", "eigh", "eigvalsh", "cond", "solve")
TRACED_NAMES += [("numpy.linalg", fn, f"numpy.linalg.{fn}", None) for fn in LINALG]
# Decompositions whose cost grows as dim**3; their spans carry that count.
CUBIC = ("numpy.linalg.eig", "numpy.linalg.eigh")

CHECKS = ("metric_pd", "pseudo_hermiticity", "reality", "isospectrality", "eta_norm")

MIB = float(1 << 20)


class Tracer:
    """Records nested spans; ``install`` wraps every name in TRACED_NAMES."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[dict] = []

    def enter(self, name: str, site: str | None = None, d3: int = 0) -> dict:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self._stack[-1]
            parent["_peak"] = max(parent["_peak"], peak)
        tracemalloc.reset_peak()
        span = {
            "name": name,
            "site": site,
            "parent": self._stack[-1]["index"] if self._stack else None,
            "index": len(self.spans),
            "d3": d3,
            "_base": current,
            "_peak": current,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        span["_peak"] = max(span["_peak"], peak)
        span["peak_bytes"] = span["_peak"] - span["_base"]
        if self._stack:
            parent = self._stack[-1]
            parent["_peak"] = max(parent["_peak"], span["_peak"])

    def wrap(self, owner, attr: str, name: str, site: str | None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        cubic = name in CUBIC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            d3 = len(args[0]) ** 3 if cubic else 0
            span = self.enter(name, site, d3)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(span)

        setattr(owner, attr, traced)

    def install(self) -> None:
        for module, attr, name, site in TRACED_NAMES:
            self.wrap(importlib.import_module(module), attr, name, site)

    def records(self) -> list[dict]:
        """Closed spans without the bookkeeping fields."""
        return [
            {k: v for k, v in s.items() if not k.startswith("_")}
            for s in self.spans
        ]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _per_layer() -> list[tuple[str, str]]:
    names = [
        ("cli.self.s", "s"),
        ("cli.parse_config.s", "s"),
        ("cli.spectrum.s", "s"),
        ("spinchain.build.s", "s"),
        ("spinchain.build.calls", "count"),
        ("spinchain.build.peak_mb", "MiB"),
        ("oscillator2d.build.s", "s"),
        ("oscillator2d.build.calls", "count"),
        ("bosonic.ladder_ops.s", "s"),
        ("bosonic.ladder_ops.calls", "count"),
        ("verify.run_suite.s", "s"),
        ("verify.run_suite.peak_mb", "MiB"),
        ("verify.self.s", "s"),
    ]
    names += [(f"verify.{c}.failed", "count") for c in CHECKS]
    names += [
        ("linops.spectrum.s", "s"),
        ("linops.spectrum.cli.calls", "count"),
        ("linops.spectrum.run_suite.calls", "count"),
        ("linops.evolve.s", "s"),
        ("linops.is_pseudo_hermitian.s", "s"),
        ("linops.matrix_sqrt_pd.s", "s"),
        ("linops.to_hermitian.s", "s"),
    ]
    for fn in LINALG:
        names += [(f"numpy.linalg.{fn}.calls", "count"), (f"numpy.linalg.{fn}.s", "s")]
    names += [(f"{fn}.d3", "count") for fn in CUBIC]
    return names + [("trace.overhead_s", "s")]


# Every per-layer metric with its unit, in report order.
PER_LAYER = _per_layer()


def layer_metrics(spans: list[dict], checks: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, except ``trace.overhead_s``.

    A ``.s`` metric is self time, except for the three entry points the CLI
    calls into -- ``cli.parse_config``, ``cli.spectrum`` (the CLI's own
    spectrum call) and ``verify.run_suite`` -- whose ``.s`` is the whole time
    spent inside them; ``cli.self.s`` and ``verify.self.s`` are the self
    parts of the root and of ``run_suite``.  ``checks`` are the report's
    check entries and give the failure count per check.
    """
    m = {name: 0 for name, _ in PER_LAYER if name != "trace.overhead_s"}
    for s, own in zip(spans, self_times(spans)):
        name, site = s["name"], s["site"]
        total = s["end"] - s["start"]
        if name == ROOT:
            m["cli.self.s"] += own
        elif name == "cli.parse_config":
            m["cli.parse_config.s"] += total
        elif name == "verify.run_suite":
            m["verify.run_suite.s"] += total
            m["verify.self.s"] += own
        else:
            m[f"{name}.s"] += own
        if name == "linops.spectrum":
            m[f"linops.spectrum.{site}.calls"] += 1
            if site == "cli":
                m["cli.spectrum.s"] += total
        if f"{name}.calls" in m and (
            name not in BUILD_LAYERS or site in HAMILTONIAN_BUILDERS
        ):
            m[f"{name}.calls"] += 1
        if f"{name}.d3" in m:
            m[f"{name}.d3"] += s["d3"]
        if f"{name}.peak_mb" in m:
            m[f"{name}.peak_mb"] = max(m[f"{name}.peak_mb"], s["peak_bytes"] / MIB)
    for entry in checks:
        key = f"verify.{entry['name']}.failed"
        if key in m and not entry["passed"]:
            m[key] += 1
    return m
