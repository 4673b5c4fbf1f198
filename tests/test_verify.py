"""Check suite, report objects, and graded-matrix identities."""
import json

import numpy as np
import pytest

from metriq.bosonic import FockSpace
from metriq.linops import MetricSpec
from metriq.oscillator2d import (
    OscillatorParams,
    angular_momentum_diag,
    build_xy_hamiltonian,
    oscillator_metric,
)
from metriq.verify import (
    DEFAULT_SEED,
    DEFAULT_TOLERANCES,
    CheckResult,
    GradedMatrix,
    VerificationReport,
    graded_conjugation_check,
    pseudo_symmetric_symmetrize,
    run_suite,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def oscillator_fixture(cutoff=10):
    params = OscillatorParams(2.0, 1.0, 1.0, gamma=0.3, xi=0.2)
    space = FockSpace(2, cutoff)
    h = build_xy_hamiltonian(params, space)
    eta = oscillator_metric(params, space)
    u = np.exp(-1j * params.xi * angular_momentum_diag(space))
    return h, eta, u


def test_suite_passes_on_deformed_oscillator():
    h, eta, u = oscillator_fixture()
    report = run_suite(h, eta, u)
    assert report.all_passed
    assert [c.name for c in report.checks] == [
        "metric_pd",
        "pseudo_hermiticity",
        "reality",
        "isospectrality",
        "eta_norm",
    ]
    assert report.seed == DEFAULT_SEED
    assert report.wall_time_s >= 0.0
    for check in report.checks:
        assert check.residual <= check.tolerance


def test_suite_passes_on_hermitian_pair():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = g + g.conj().T
    report = run_suite(h, np.ones(6))
    assert report.all_passed


def test_failed_checks_are_entries_not_exceptions():
    report = run_suite(E12, np.ones(2))
    by_name = {c.name: c for c in report.checks}
    assert not report.all_passed
    assert by_name["metric_pd"].passed
    ph = by_name["pseudo_hermiticity"]
    assert not ph.passed
    np.testing.assert_allclose(ph.residual, np.sqrt(2.0) / 2.0, rtol=1e-12)
    en = by_name["eta_norm"]
    assert not en.passed and en.residual == np.inf
    assert en.detail.startswith("failed")


def test_check_subset_keeps_requested_order():
    h, eta, u = oscillator_fixture(cutoff=6)
    report = run_suite(h, eta, u, checks=["reality", "metric_pd"])
    assert [c.name for c in report.checks] == ["reality", "metric_pd"]


def test_tolerance_override_is_applied():
    report = run_suite(
        E12,
        np.ones(2),
        checks=["pseudo_hermiticity"],
        tolerances={"pseudo_hermiticity": 0.8},
    )
    check = report.checks[0]
    assert check.tolerance == 0.8
    assert check.passed


def test_unknown_names_are_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(E12, np.ones(2), checks=["bogus"])
    with pytest.raises(ValueError, match="unknown tolerance"):
        run_suite(E12, np.ones(2), tolerances={"bogus": 1.0})
    with pytest.raises(ValueError, match="dimension mismatch"):
        run_suite(E12, np.ones(3))


def test_extra_checks_are_appended():
    extra = CheckResult("custom", True, 0.0, 1.0, "hand-made")
    report = run_suite(E12, np.ones(2), checks=["metric_pd"], extra_checks=[extra])
    assert report.checks[-1] is extra


def test_report_shape():
    with pytest.raises(ValueError, match="at least one check"):
        VerificationReport((), 0.0, 1)
    report = run_suite(E12, np.ones(2), checks=["metric_pd"])
    d = report.checks[0].to_dict()
    assert d["name"] == "metric_pd"
    assert isinstance(d["passed"], bool)


def test_default_tolerances_are_frozen():
    assert DEFAULT_TOLERANCES == {
        "metric_pd": 1e-12,
        "pseudo_hermiticity": 1e-12,
        "reality": 1e-9,
        "isospectrality": 1e-10,
        "eta_norm": 1e-10,
    }


SMALL_MODELS = [
    {"kind": "oscillator2d", "k1": 2.0, "k2": 1.0, "k3": 1.0, "gamma": 0.2,
     "xi": 0.1, "cutoff": 4},
    {"kind": "bosonQuadratic", "alpha": [[2.0, 0.3], [0.3, 1.5]],
     "beta": [[0.4, 0.1], [0.1, -0.2]], "gammas": [0.3, -0.2],
     "xis": [0.1, 0.25], "cutoff": 3},
    {"kind": "lmg", "omega0": 1.0, "omega": 0.4, "gammas": [0.2, -0.1],
     "xis": [0.3, 0.0], "cutoff": 3},
    {"kind": "fermionQuadratic", "hopping": [[1.0, 0.3], [0.3, 0.8]],
     "pairing": [[0.0, 0.2], [-0.2, 0.0]], "gammas": [0.4, -0.1], "xis": [0.2, 0.1]},
    {"kind": "xxzAsymmetric", "n_sites": 3, "delta": 0.5,
     "gammas": [0.3, 0.0, -0.2], "xis": [0.1, 0.0, 0.2]},
    {"kind": "xxzSymmetric", "n_sites": 3, "delta": 0.5,
     "fields_a": [0.4, 0.4, 0.4], "gamma": 0.3, "xi": 0.1},
    {"kind": "haldaneShastry", "n_sites": 3, "gammas": [0.2, -0.1, 0.3],
     "xis": [0.0, 0.3, -0.2]},
    {"kind": "gradedMatrix", "core": [[1.0, 0.5], [0.5, -1.0]], "grades": [0.3, 0.0]},
]


@pytest.mark.parametrize("model", SMALL_MODELS, ids=lambda m: m["kind"])
def test_diagonal_path_matches_dense_reference(model):
    from metriq.cli import _build_model, parse_config
    from metriq.linops import (
        evolve,
        is_pseudo_hermitian,
        matrix_sqrt_pd,
        modified_inner,
        spectrum,
        to_hermitian,
    )

    built = _build_model(parse_config(json.dumps({"model": model})).model)
    h, w, u = built.h, built.w, built.u
    report = run_suite(h, w, u)
    got = {c.name: c.residual for c in report.checks}
    assert report.all_passed

    eta = np.diag(w)
    _, ph = is_pseudo_hermitian(h, eta)
    herm = to_hermitian(h, matrix_sqrt_pd(eta), None if u is None else np.diag(u))
    lam_h = spectrum(h).eigenvalues
    iso = np.max(np.abs(lam_h - spectrum(herm).eigenvalues)) / (1.0 + np.max(np.abs(lam_h)))
    rng = np.random.default_rng(DEFAULT_SEED)
    psi0 = rng.normal(size=len(w)) + 1j * rng.normal(size=len(w))
    psi0 /= np.linalg.norm(psi0)
    norms = np.array(
        [modified_inner(v, v, eta).real for v in evolve(h, psi0, np.linspace(0.0, 10.0, 32))]
    )
    eta_norm = np.max(np.abs(norms - norms[0])) / abs(norms[0])

    assert abs(got["pseudo_hermiticity"] - ph) <= 1e-13
    assert abs(got["isospectrality"] - iso) <= 1e-13
    assert abs(got["eta_norm"] - eta_norm) <= 1e-13


def test_isospectrality_fails_for_the_wrong_metric_root():
    # with 1/w the mapped form is rho^{-1} H rho: isospectral with H, not hermitian
    from metriq.cli import _build_model, parse_config

    built = _build_model(parse_config(json.dumps({"model": SMALL_MODELS[4]})).model)
    checks = {c.name: c for c in run_suite(built.h, 1.0 / built.w, built.u).checks}
    iso = checks["isospectrality"]
    assert not iso.passed
    assert iso.residual > 1e-3
    assert "hermiticity defect" in iso.detail
    assert checks["reality"].passed


def test_decomposition_is_shared_and_only_computed_when_needed(monkeypatch):
    import metriq.verify

    real_spectrum = metriq.verify.spectrum
    calls = []
    monkeypatch.setattr(
        metriq.verify, "spectrum", lambda h: calls.append(h) or real_spectrum(h)
    )
    h, eta, u = oscillator_fixture(cutoff=6)
    report = run_suite(h, eta, u)
    assert len(calls) == 1
    np.testing.assert_array_equal(
        report.decomposition.eigenvalues, real_spectrum(h).eigenvalues
    )
    subset = run_suite(h, eta, u, checks=["metric_pd", "pseudo_hermiticity"])
    assert subset.decomposition is None
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Graded matrices


def test_graded_matrix_trivial_grades():
    core = np.array([[1.0, 2.0], [2.0, -1.0]])
    m = GradedMatrix(core, [0.0, 0.0])
    np.testing.assert_allclose(m.realized, core, atol=0.0)
    np.testing.assert_allclose(m.metric_weights, [1.0, 1.0], atol=0.0)


def test_graded_matrix_two_by_two():
    m = GradedMatrix([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.0])
    np.testing.assert_allclose(
        m.realized,
        [[0.0, np.exp(0.5)], [np.exp(-0.5), 0.0]],
        rtol=1e-15,
    )
    sym = pseudo_symmetric_symmetrize(m)
    np.testing.assert_allclose(sym, m.core, rtol=1e-14)
    lam = np.sort(np.linalg.eigvals(m.realized).real)
    np.testing.assert_allclose(lam, [-1.0, 1.0], atol=1e-12)


def test_graded_matrix_spectrum_matches_core():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6))
    core = 0.5 * (a + a.T)
    m = GradedMatrix(core, rng.normal(size=6))
    lam = np.linalg.eigvals(m.realized)
    assert np.max(np.abs(lam.imag)) < 1e-10
    np.testing.assert_allclose(
        np.sort(lam.real), np.linalg.eigvalsh(core), atol=1e-10
    )
    np.testing.assert_allclose(
        pseudo_symmetric_symmetrize(m), core, atol=1e-13
    )


def test_graded_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        GradedMatrix(np.zeros((2, 3)), [0.0, 0.0])
    with pytest.raises(ValueError, match="length 2"):
        GradedMatrix(np.zeros((2, 2)), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"symmetric: entry \[0\]\[1\]"):
        GradedMatrix([[0.0, 1.0], [0.5, 0.0]], [0.0, 0.0])


def test_conjugation_check_zero_gamma():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert graded_conjugation_check(x, [3, 1, 0, 2], 0.0) == 0.0


def test_conjugation_check_single_entry_scaling():
    # one matrix element, grading step 1: conjugation scales it by e^gamma
    x = E12
    grading = np.diag([1, 0])
    assert graded_conjugation_check(x, grading, 0.4) < 1e-15
    rho_inv = np.diag(np.exp(0.4 * np.array([1.0, 0.0])))
    rho = np.diag(np.exp(-0.4 * np.array([1.0, 0.0])))
    scaled = (rho_inv @ x @ rho)[0, 1]
    assert scaled == pytest.approx(np.exp(0.4))


def test_conjugation_check_cycles():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    res = graded_conjugation_check(
        x, [2, -1, 0, 3, 1], 0.35, cycles=[(0, 2, 4), (1, 3)]
    )
    assert res < 1e-12


def test_conjugation_check_rejections():
    with pytest.raises(ValueError, match="must be diagonal"):
        graded_conjugation_check(E12, [[1, 1], [0, 0]], 0.1)
    with pytest.raises(ValueError, match="must be integers"):
        graded_conjugation_check(E12, [0.5, 0.0], 0.1)
    with pytest.raises(ValueError, match="length 2"):
        graded_conjugation_check(E12, [1, 0, 2], 0.1)
    with pytest.raises(ValueError, match="at least two"):
        graded_conjugation_check(E12, [1, 0], 0.1, cycles=[(0,)])
