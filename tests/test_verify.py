"""Check suite, report objects, and graded-matrix identities."""
import collections
import json
import re

import numpy as np
import pytest

from metriq.bosonic import FockSpace
from metriq.linops import BLOCK, MetricSpec, _Triplets, eigenvalues, spectrum
from metriq.oscillator2d import (
    OscillatorParams,
    build_xy_hamiltonian,
    oscillator_metric,
)
from metriq.verify import (
    DEFAULT_SEED,
    DEFAULT_TOLERANCES,
    REAL_FORM_TOL,
    GradedMatrix,
    VerificationReport,
    graded_conjugation_check,
    hermitian_form_eigenvalues,
    pseudo_symmetric_symmetrize,
    run_suite,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def oscillator_fixture(cutoff=10):
    params = OscillatorParams(2.0, 1.0, 1.0, gamma=0.3, xi=0.2)
    space = FockSpace(2, cutoff)
    h = build_xy_hamiltonian(params, space)
    return h, oscillator_metric(params, space)


def test_suite_passes_on_deformed_oscillator():
    h, eta = oscillator_fixture()
    report = run_suite(h, eta)
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
    h, eta = oscillator_fixture(cutoff=6)
    report = run_suite(h, eta, checks=["reality", "metric_pd"])
    assert [c.name for c in report.checks] == ["reality", "metric_pd"]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"checks": ["reality", "reality"]}, "duplicate check 'reality'"),
        ({"tolerances": {"reality": -1.0}}, "tolerance 'reality' must be positive and finite"),
        ({"tolerances": {"reality": np.nan}}, "tolerance 'reality' must be positive and finite"),
        ({"tolerances": {"reality": 0.0}}, "tolerance 'reality' must be positive and finite"),
        ({"tolerances": {"reality": np.inf}}, "tolerance 'reality' must be positive and finite"),
        ({"tolerances": {"reality": True}}, r"positive and finite, got True"),
        ({"tolerances": {"reality": "1e-3"}}, r"positive and finite, got '1e-3'"),
        ({"tolerances": {"reality": 10**400}}, r"positive and finite, got 1000"),
    ],
    ids=["duplicate", "negative", "nan", "zero", "inf", "bool", "str", "past-float"],
)
def test_run_suite_refuses_what_the_cli_refuses(kwargs, message):
    # one rule in verify refuses these for run_suite and for the CLI's checks block and --tol;
    # a tolerance is a real number, not anything float() reads
    with pytest.raises(ValueError, match=message):
        run_suite(E12 + E12.T, np.ones(2), **kwargs)


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
    # the probe's seed, though a bound certifies eta_norm here and no probe is drawn
    for seed, msg in ((-1, "seed must be non-negative, got -1"),
                      (1.5, "seed must be an integer, got 1.5")):
        with pytest.raises(ValueError, match=msg):
            run_suite(np.diag([1.0, 2.0]), np.ones(2), checks=["eta_norm"], seed=seed)
    # a numpy integer is a seed
    assert run_suite(E12, np.ones(2), checks=["eta_norm"], seed=np.int64(3)).seed == 3


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
    h, w = built.h.dense(), built.w
    report = run_suite(built.h, w)  # the CLI's route: H as its nonzeros
    got = {c.name: c for c in report.checks}
    assert report.all_passed

    eta = np.diag(w)
    herm = to_hermitian(h, matrix_sqrt_pd(eta))
    ph = np.linalg.norm(herm - herm.conj().T) / (1.0 + np.linalg.norm(herm))
    lam_h = spectrum(h).eigenvalues
    reality = np.max(np.abs(lam_h.imag) / (1.0 + np.abs(lam_h)))
    iso = np.max(np.abs(lam_h - spectrum(herm).eigenvalues)) / (1.0 + np.max(np.abs(lam_h)))
    rng = np.random.default_rng(DEFAULT_SEED)
    psi0 = rng.normal(size=len(w)) + 1j * rng.normal(size=len(w))
    psi0 /= np.linalg.norm(psi0)
    norms = np.array(
        [modified_inner(v, v, eta).real for v in evolve(h, psi0, np.linspace(0.0, 10.0, 32))]
    )
    eta_norm = np.max(np.abs(norms - norms[0])) / abs(norms[0])

    # pseudo_hermiticity is F's defect, measured; the three spectral checks are
    # certified, so each reads a bound, never below the dense measurement
    assert abs(got["pseudo_hermiticity"].residual - ph) <= 1e-13
    assert is_pseudo_hermitian(h, eta)[0]
    for name, dense in (("reality", reality), ("isospectrality", iso), ("eta_norm", eta_norm)):
        assert got[name].detail.startswith("certified")
        assert got[name].residual >= dense


def test_isospectrality_fails_for_the_wrong_metric_root():
    # with 1/w the mapped form is rho^{-1} H rho: isospectral with H, not hermitian
    from metriq.cli import _build_model, parse_config

    built = _build_model(parse_config(json.dumps({"model": SMALL_MODELS[4]})).model)
    checks = {c.name: c for c in run_suite(built.h, 1.0 / built.w).checks}
    iso = checks["isospectrality"]
    assert not iso.passed
    assert iso.residual > 1e-3
    assert "hermiticity defect" in iso.detail
    # F's defect bounds nothing here, so reality is read off H's spectrum, which is real
    assert checks["reality"].passed
    assert checks["reality"].detail.startswith("eig: ")


def test_a_hermitian_h_under_a_metric_that_does_not_fit_it_fails_isospectrality():
    # H itself is hermitian; F = rho H rho^{-1} is not, and the bounds read F
    rng = np.random.default_rng(3)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    checks = {c.name: c for c in run_suite(g + g.conj().T, rng.uniform(0.5, 2.0, 6)).checks}
    assert not checks["pseudo_hermiticity"].passed
    assert not checks["isospectrality"].passed
    assert checks["isospectrality"].detail.startswith("eig: ")
    assert checks["reality"].passed and checks["reality"].detail.startswith("eig: ")


def test_a_rotation_fails_reality_through_the_fallback():
    # eigenvalues +-i: F = H is anti-hermitian, so no bound certifies it
    (reality,) = run_suite([[0.0, 1.0], [-1.0, 0.0]], np.ones(2), checks=["reality"]).checks
    assert not reality.passed
    assert reality.residual == pytest.approx(0.5, rel=1e-12)
    assert reality.detail.startswith("eig: max |Im| 1.000e+00")


def test_decomposition_is_shared_and_only_computed_when_needed(monkeypatch):
    import metriq.verify

    calls, decomposed = collections.Counter(), []
    for name in ("spectrum", "_hermitian_form"):
        def counted(*args, _name=name, _real=getattr(metriq.verify, name), **kwargs):
            calls[_name] += 1
            decomposed.extend(args[:1] if _name == "spectrum" else ())
            return _real(*args, **kwargs)

        monkeypatch.setattr(metriq.verify, name, counted)
    h, eta = oscillator_fixture(cutoff=6)
    # one pass over F serves four checks; its bounds certify, so no eig runs
    assert run_suite(h, eta).all_passed
    assert calls == {"_hermitian_form": 1}
    calls.clear()
    run_suite(h, eta, checks=["metric_pd"])
    assert not calls
    # under a metric that does not fit H no bound certifies: the three spectral checks
    # fall back to one shared spectrum, of F's nonzeros, not H's
    run_suite(h, 1.0 / eta)
    assert calls == {"_hermitian_form": 1, "spectrum": 1}
    root = np.sqrt(1.0 / eta)
    (f,) = decomposed
    np.testing.assert_allclose(f.dense(), root[:, None] * h / root, rtol=1e-15, atol=0)


MISSED = {"reality": 1e-30, "isospectrality": 1e-16}  # tolerances no bound meets


@pytest.mark.parametrize(
    "weight, checks, tolerances, calls",
    [
        (None, None, MISSED, {"_eigenvalues": 1}),
        (None, ["isospectrality", "reality"], MISSED, {"_eigenvalues": 1}),
        (None, ["reality", "isospectrality", "eta_norm"], MISSED | {"eta_norm": 1e-30},
         {"spectrum": 1}),
        (0.0, None, {}, {"_eigenvalues": 1}),
    ],
    ids=["eta-norm-certifies", "eta-norm-not-selected", "all-three-miss", "no-finite-form"],
)
def test_no_point_solves_f_twice_and_only_the_eta_norm_decomposes(
        monkeypatch, weight, checks, tolerances, calls):
    # reality and isospectrality read only eigenvalues: one eigvals read of F's sectors, shared,
    # unless the eta-norm's bound missed and it decomposed F, which runs first so that they read
    # that decomposition's; where F has no finite form, reality reads _eigenvalues(H)
    import metriq.verify

    counted, args = collections.Counter(), []
    for name in ("spectrum", "_eigenvalues"):
        def count(a, _name=name, _real=getattr(metriq.verify, name)):
            counted[_name] += 1
            args.append(a)
            return _real(a)

        monkeypatch.setattr(metriq.verify, name, count)
    h, w = pseudo_hermitian_pair(BLOCK + 1, 5, seed=6)
    if weight is not None:
        w = np.where(np.arange(len(w)) == 0, weight, w)
    report = run_suite(h, w, checks=checks, tolerances=tolerances)
    assert counted == calls
    entries = {c.name: c for c in report.checks}
    assert entries["reality"].detail.startswith("eig: max |Im| ")
    if "eta_norm" in entries and weight is None:
        assert entries["eta_norm"].detail.startswith("eig:" if "spectrum" in calls else "cert")
    (a,) = args
    root = np.sqrt(w) if weight is None else np.ones(len(w))  # F, or H itself
    np.testing.assert_allclose(a.dense(), root[:, None] * h / root, rtol=1e-15, atol=0)



@pytest.mark.parametrize(
    "weight, checks, tolerances",
    [
        (None, ["reality"], {"reality": 1e-30}),
        (None, ["eta_norm", "reality"], {"reality": 1e-30, "eta_norm": 1e-30}),
        (0.0, ["reality"], {}),
    ],
    ids=["eigvals", "decomposition", "no-finite-form"],
)
def test_the_reality_fallback_names_its_sectors_from_the_walk_that_read_them(
        monkeypatch, weight, checks, tolerances):
    # the sector count and the largest sector in reality's detail come from the one walk of the
    # matrix whose eigenvalues it read (F, or H where F has no finite form), not from a second
    import metriq.linops
    import metriq.verify

    walked, real = [], metriq.linops._pattern_components
    for module in (metriq.linops, metriq.verify):
        monkeypatch.setattr(module, "_pattern_components", lambda t: walked.append(t) or real(t))
    h, w = pseudo_hermitian_pair(BLOCK + 1, 5, seed=6)
    if weight is not None:
        w = np.where(np.arange(len(w)) == 0, weight, w)
    reality = run_suite(h, w, checks=checks, tolerances=tolerances).checks[-1]
    # 129 indices in 5 interleaved sectors: four of 26 and one of 25
    assert re.fullmatch(r"eig: max \|Im\| \S+, 5 sectors, largest 26", reality.detail)
    assert len(walked) == 1

def pseudo_hermitian_pair(dim, n_sectors, seed):
    """``H = (U rho)^{-1} F (U rho)`` and its metric's weights, with ``F`` hermitian, nonzero
    only where ``i = j (mod n_sectors)``: interleaved sectors, so none is contiguous.  ``U`` is
    a random diagonal unitary, so ``rho H rho^{-1} = U F U^dag`` is hermitian too."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    idx = np.arange(dim)
    f = (g + g.conj().T) * (idx[:, None] % n_sectors == idx % n_sectors)
    w = rng.uniform(0.5, 2.0, dim)
    u = np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
    left = u * np.sqrt(w)
    return f / left[:, None] * left, w


def dense_residuals(h, w):
    """pseudo_hermiticity and isospectrality residuals from full-size matrices:
    the hermiticity defect of ``F``, and the larger of it and the eigenvalue deviation."""
    root = np.sqrt(w)
    form = root[:, None] * h / root
    defect = np.linalg.norm(form - form.conj().T) / (1.0 + np.linalg.norm(form))
    eigs = spectrum(h)
    lam_f = np.sort(np.concatenate(
        [np.linalg.eigvalsh(form[np.ix_(s.indices, s.indices)]) for s in eigs.sectors]
    ))
    lam_h = eigs.eigenvalues
    dev = np.max(np.abs(lam_h - lam_f)) / (1.0 + np.max(np.abs(lam_h)))
    return defect, max(dev, defect)


@pytest.mark.parametrize("n_sectors", [1, 5])
@pytest.mark.parametrize("dim", [1, BLOCK - 1, BLOCK + 1, 300])
def test_row_blocked_residuals_match_the_dense_formula(dim, n_sectors):
    h, w = pseudo_hermitian_pair(dim, n_sectors, seed=dim)
    # one entry in the last, partial row block breaks the identity
    bad = h.copy()
    bad[-1, max(0, dim - 1 - n_sectors)] += 1e-6j
    for mat, passed in ((h, True), (bad, False)):
        report = run_suite(mat, w, checks=["pseudo_hermiticity", "isospectrality", "reality"])
        ph, iso, reality = report.checks
        dense_ph, dense_iso = dense_residuals(mat, w)
        # only the fallback, which solves the sectors, names them
        assert (f"{min(dim, n_sectors)} sector" in reality.detail) is not passed
        assert ph.passed is iso.passed is passed
        assert abs(ph.residual - dense_ph) <= 1e-15
        if passed:  # certified: a bound, never below what it bounds
            assert iso.detail.startswith("certified") and iso.residual >= dense_iso
        else:  # on the fallback the residual is the dense measurement
            assert iso.detail.startswith("eig: ") and abs(iso.residual - dense_iso) <= 1e-15


def test_eig_residual_on_column_blocks_matches_the_dense_formula():
    # Upper bidiagonal with power-of-two entries: every product in A @ v is
    # exact, so the residual does not depend on the kernel that forms it.  The
    # eigenvalues come back in diagonal order, and the last two are 2^-30
    # apart, so the worst eigenvector is the last one, alone in its block.
    dim = BLOCK + 1
    d = np.arange(dim, dtype=float)
    d[-1] = d[-2] + 2.0**-30
    a = np.diag(d) + np.diag(np.full(dim - 1, 2.0**-4), 1)
    result = spectrum(a)
    (_, vals, vecs), = result.sectors
    dense = np.linalg.norm(a @ vecs - vecs * vals, axis=0) / np.linalg.norm(vecs, axis=0)
    assert np.argmax(dense) == BLOCK
    assert abs(result.residual - np.max(dense)) <= 1e-15


CHAIN_N10 = {"kind": "xxzAsymmetric", "n_sites": 10, "delta": 0.6,
             "gammas": [0.25, -0.1, 0.3, -0.2, 0.05, 0.15, -0.3, 0.1, -0.05, 0.2],
             "xis": [0.4, -0.2, 0.1, 0.0, -0.4, 0.3, 0.2, -0.1, 0.5, -0.3]}


def build_model(model):
    from metriq.cli import _build_model, parse_config

    return _build_model(parse_config(json.dumps({"model": model})).model)


def test_checks_hold_no_temporary_the_size_of_h():
    import tracemalloc

    built = build_model(CHAIN_N10)
    h = built.h.dense()
    tracemalloc.start()
    try:
        report = run_suite(
            built.h, built.w, checks=["pseudo_hermiticity", "isospectrality"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < h.nbytes


def test_spectrum_step_makes_only_the_real_sector_dense():
    import tracemalloc

    # transverse fields break total Sz: one sector of 1024, read as its real form
    built = build_model({**CHAIN_N10, "fields_a": [0.4] * 10})
    h, dim = built.h.dense(), built.h.dim
    tracemalloc.start()
    try:
        lam = hermitian_form_eigenvalues(built.h, built.w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lam) == dim and np.all(lam.imag == 0.0)
    assert peak < h.nbytes
    # the flip folds the real block into two halves of 512, built and solved one at a time:
    # one half (2 MiB) and the nonzeros, measured at 3.2 MiB; both halves at once would be 5.2
    assert peak < 4.5 * 2**20
    np.testing.assert_array_equal(lam, hermitian_form_eigenvalues(h, built.w))



def test_each_eigvalsh_holds_its_block_and_a_fixed_multiple_of_the_nonzeros(monkeypatch):
    import tracemalloc

    # fields that differ by site break the site reflection: the spin flip alone folds the one
    # sector of 1024 into two blocks of 512
    built = build_model({**CHAIN_N10, "fields_a": [0.4 + 0.02 * k for k in range(10)]})
    h = built.h
    triplets = h.rows.nbytes + h.cols.nbytes + h.vals.nbytes
    live, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: live.append(
        (len(a), tracemalloc.get_traced_memory()[0])) or real(a))
    tracemalloc.start()
    try:
        hermitian_form_eigenvalues(h, built.w)
    finally:
        tracemalloc.stop()
    assert [m for m, _ in live] == [512, 512]
    # beside each dense block (8 m^2 bytes) live F's values (half of H's triplet bytes) and the
    # two blocks' triplets (three quarters): measured at 1.39 times H's triplet bytes, and at
    # 2.19 while the sector's read and its index maps outlived the fold
    assert all(traced <= 8 * m * m + 1.5 * triplets for m, traced in live)

def test_hermitian_form_eigenvalues_leave_h_as_it_was():
    # F = [[1, 1], [1, 3]] is hermitian: its eigenvalues are read, and h keeps its entries
    h = np.array([[1.0, 2.0], [0.5, 3.0]], dtype=complex)
    lam = hermitian_form_eigenvalues(h, [1.0, 4.0])
    np.testing.assert_array_equal(h, [[1.0, 2.0], [0.5, 3.0]])
    np.testing.assert_allclose(lam, [2.0 - np.sqrt(2.0), 2.0 + np.sqrt(2.0)], rtol=1e-15)


def test_run_suite_reads_a_dense_h_as_the_cli_reads_its_nonzeros():
    for model in SMALL_MODELS + [CHAIN_N10, {**CHAIN_N10, "fields_a": [0.4] * 10}]:
        built = build_model(model)
        dense, triplets = (run_suite(h, built.w) for h in (built.h.dense(), built.h))
        assert [c.to_dict() for c in dense.checks] == [c.to_dict() for c in triplets.checks]
        np.testing.assert_array_equal(*(hermitian_form_eigenvalues(h, built.w)
                                        for h in (built.h.dense(), built.h)))


@pytest.mark.parametrize("n_sectors", [1, 5])
def test_hermitian_form_eigenvalues_take_eigvals_past_the_tolerance(monkeypatch, n_sectors):
    calls = collections.Counter()
    for name in ("eigvals", "eigvalsh"):
        def counted(a, _name=name, _real=getattr(np.linalg, name)):
            calls[_name] += 1
            return _real(a)

        monkeypatch.setattr(np.linalg, name, counted)
    h, w = pseudo_hermitian_pair(BLOCK + 1, n_sectors, seed=5)
    # one entry of the last sector, off by 1e-6: F's defect exceeds 1e-10, read before any
    # solve, so no eigvalsh runs
    bad = h.copy()
    bad[-1, -1 - n_sectors] += 1e-6
    for mat, branch in ((h, "eigvalsh"), (bad, "eigvals")):
        calls.clear()
        form = mat.copy()
        lam = hermitian_form_eigenvalues(form, w)
        assert calls == {branch: n_sectors}
        np.testing.assert_array_equal(form, mat)
        assert np.max(np.abs(lam - eigenvalues(mat))) <= 1e-12
    assert np.all(hermitian_form_eigenvalues(h.copy(), w).imag == 0.0)


def test_hermitian_form_eigenvalues_decompose_f_past_the_tolerance(monkeypatch):
    # run_suite's rule: a missed bound decomposes F's nonzeros, not H's, where F has a form
    import metriq.verify

    decomposed = []
    real_eigenvalues = metriq.verify._eigenvalues
    monkeypatch.setattr(metriq.verify, "_eigenvalues",
                        lambda a: decomposed.append(a) or real_eigenvalues(a))
    h, w = pseudo_hermitian_pair(BLOCK + 1, 5, seed=5)
    h[-1, -6] += 1e-6  # F's defect now exceeds the isospectrality tolerance
    lam = hermitian_form_eigenvalues(h, w)
    (f,) = decomposed
    root = np.sqrt(w)
    np.testing.assert_allclose(f.dense(), root[:, None] * h / root, rtol=1e-15, atol=0)
    assert np.max(np.abs(lam - eigenvalues(h))) <= 1e-12


def chain(n, **fields):
    built = build_model({**CHAIN_N10, "n_sites": n, "gammas": CHAIN_N10["gammas"][:n],
                         "xis": CHAIN_N10["xis"][:n], **fields})
    return built.h.dense(), built.w


def transverse_chain(n):
    return chain(n, fields_a=[0.4] * n)


def near_weyl_threshold(scale, m=64, seed=8):
    """Real symmetric ``S`` plus ``i eps A``, ``A`` antisymmetric, with ``eps`` at
    ``scale`` times the largest ``eps`` for which ``eigvalsh`` may read ``S``."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(m, m))
    sym, anti = g + g.T, g - g.T
    eps = REAL_FORM_TOL * (1.0 + np.linalg.norm(sym) / np.sqrt(m))
    eps /= np.sqrt(2.0) * np.linalg.norm(anti)
    return sym + 1j * scale * eps * anti, np.ones(m)


def flux_ring(m=8, flux=0.3, seed=9):
    """A hermitian hopping around an ``m``-cycle whose phases multiply to
    ``e^{i flux}``: no diagonal gauge makes it real."""
    a = np.diag(np.random.default_rng(seed).normal(size=m)).astype(complex)
    for j in range(m):
        a[j, (j + 1) % m] = np.exp(1j * flux / m)
        a[(j + 1) % m, j] = np.exp(-1j * flux / m)
    return a, np.ones(m)


@pytest.mark.parametrize(
    "case, real",
    [
        (lambda: transverse_chain(8), True),  # the paper's chains map to a real F
        (lambda: oscillator_fixture(cutoff=8), True),  # its chiral-basis F gauges to real
        (lambda: flux_ring(), False),
        (lambda: near_weyl_threshold(0.99), True),
        (lambda: near_weyl_threshold(1.01), False),
    ],
    ids=["transverse-chain", "oscillator2d", "flux", "below-threshold", "above-threshold"],
)
def test_hermitian_form_is_read_as_real_only_within_the_weyl_bound(monkeypatch, case, real):
    h, w = case()
    root = np.sqrt(w)
    form = root[:, None] * h / root
    dtypes = []
    numpy_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: dtypes.append(a.dtype) or numpy_eigvalsh(a)
    )
    lam = hermitian_form_eigenvalues(h.copy(), w)
    assert dtypes and set(dtypes) == {np.dtype(float if real else complex)}
    # the complex solve of the same F, sector by sector, agrees within the bound
    sectors = [s.indices for s in spectrum(h).sectors]
    ref = np.sort(np.concatenate([numpy_eigvalsh(form[np.ix_(s, s)]) for s in sectors]))
    assert np.max(np.abs(lam - ref)) <= REAL_FORM_TOL * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "case, tol, detail",
    [
        (lambda: chain(4), None, r"certified: max \|Im\| <= \d\.\d{3}e-\d\d"),
        (lambda: pseudo_hermitian_pair(BLOCK + 1, 5, seed=9), 1e-30,
         r"eig: max \|Im\| \S+, 5 sectors, largest 26"),
    ],
    ids=["chain", "complex-hermitian-form"],
)
def test_reality_detail_names_sectors_only_where_it_solves(case, tol, detail):
    # a certified entry reads F's defect and solves nothing; the fallback, the eigenvalues of
    # F's sectors, names how many it solved and the largest
    tolerances = None if tol is None else {"reality": tol}
    (reality,) = run_suite(*case(), checks=["reality"], tolerances=tolerances).checks
    assert re.fullmatch(detail, reality.detail)


# the stiffnesses of the benchmark's osc_sweep at seed 1 (perfbench/workloads.py)
OSC_SWEEP_SEED_1 = {"kind": "oscillator2d", "k1": 0.7343642441124012,
                    "k2": 1.4474337369372328, "k3": 0.8702380929005847,
                    "xi": -0.2449309742605783, "cutoff": 16}


def test_eta_norm_is_certified_where_the_eigen_expansion_drifts():
    built = build_model({**OSC_SWEEP_SEED_1, "gamma": 0.49})
    # the expansion in H's eigenvectors, cond(V) large, drifts past the tolerance
    rng = np.random.default_rng(DEFAULT_SEED)
    psi0 = rng.normal(size=len(built.w)) + 1j * rng.normal(size=len(built.w))
    traj = spectrum(built.h).evolve(psi0 / np.linalg.norm(psi0), np.linspace(0.0, 10.0, 32))
    norms = np.array([np.vdot(v, built.w * v).real for v in traj])
    assert np.max(np.abs(norms / norms[0] - 1.0)) > DEFAULT_TOLERANCES["eta_norm"]
    # the bound from F's defect holds for every state and passes
    report = run_suite(built.h, built.w)
    assert report.all_passed
    assert report.checks[-1].detail == "certified for every state on [0, 10]"


def kahan_bound(h, w):
    """The solve-free isospectrality residual by README's formula, from full-size matrices, and
    the deviation it bounds: ``H``'s eigenvalues against those of ``M``, the lower triangle of
    ``F`` mirrored, both sorted (each case below has a real spectrum), relative to
    ``1 + max |lam_H|``.  ``F`` is formed as the pass forms it, so ``M`` is what it bounds."""
    f = h * np.sqrt(w)[:, None] * (1.0 / np.sqrt(w))
    defect, norm = np.linalg.norm(f - f.conj().T), np.linalg.norm(f)
    dev = defect + np.sqrt(2.0) * 16 * np.finfo(float).eps * norm
    top = (norm - defect / np.sqrt(2.0)) / np.sqrt(len(w))  # <= max |lam_M|
    bound = max(dev / (1.0 + max(top - dev, 0.0)), defect / (1.0 + norm))
    lam_h = np.sort_complex(np.linalg.eigvals(h))
    lam_m = np.linalg.eigvalsh(np.tril(f) + np.tril(f, -1).conj().T)
    return bound, np.max(np.abs(lam_h - lam_m)) / (1.0 + np.max(np.abs(lam_h)))


def rounded_diagonal(dim=50, seed=13):
    """A real diagonal ``H`` under a random metric: ``F`` is ``H`` and hermitian, so its
    computed defect is 0, but forming it rounds some entries, which only the bound's
    rounding term covers."""
    rng = np.random.default_rng(seed)
    return np.diag(rng.uniform(-2.0, 2.0, dim)), rng.uniform(0.5, 2.0, dim), None


def defect_in_a_block(e=1e-11, b=0.5, dim=100):
    """``[[1, b + e], [b, 1]]`` beside the identity: ``F``'s eigenvalues ``1 +- sqrt(b (b + e))``
    sit ``~e / 2`` from ``M``'s ``1 +- b``, which only the defect term covers, since the
    identity makes ``||F||_F`` ten times the largest ``|lam|``."""
    h = np.eye(dim)
    h[0, 1], h[1, 0] = b + e, b
    return h, np.ones(dim), None


def far_from_hermitian():
    """``[[10, 1.5], [0.5, 10]]``, certified at a loosened tolerance: its defect is a tenth of
    ``||F||_F``, so ``top`` differs by 8 % without the ``- ||F - F^dag||_F / sqrt 2`` in it."""
    return np.array([[10.0, 1.5], [0.5, 10.0]]), np.ones(2), 1.0


def osc_sweep_at_gamma_0():
    built = build_model({**OSC_SWEEP_SEED_1, "gamma": 0.0})
    return built.h.dense(), built.w, None


@pytest.mark.parametrize(
    "case", [rounded_diagonal, defect_in_a_block, far_from_hermitian, osc_sweep_at_gamma_0],
    ids=["rounding", "defect", "far-from-hermitian", "osc-sweep-gamma-0"])
def test_isospectrality_bound_is_the_defect_plus_the_rounding_of_f(case):
    # the bound reads no eigenvalue: dev = ||F - F^dag||_F + sqrt 2 c eps ||F||_F, over
    # 1 + (||F||_F - ||F - F^dag||_F / sqrt 2) / sqrt dim - dev; each term of it shows in a case
    h, w, tol = case()
    tolerances = None if tol is None else {"isospectrality": tol}
    (iso,) = run_suite(h, w, checks=["isospectrality"], tolerances=tolerances).checks
    bound, deviation = kahan_bound(h, w)
    assert iso.passed and iso.detail.startswith("certified")
    assert iso.residual == pytest.approx(bound, rel=1e-12)
    assert 0.0 < deviation <= iso.residual


def hermitian_read(h, w=None):
    """F's triplets, sectors and pattern phases, as the spectrum forms them for ``h`` under
    the weights ``w``, all ones by default."""
    from metriq.linops import _pattern_components
    from metriq.verify import _hermitian_form

    h = _Triplets.of(h)
    sectors, d = _pattern_components(h)
    return _hermitian_form(h, np.ones(h.dim) if w is None else w).f, sectors, d


def sector_reads(model):
    built = build_model(model)
    return hermitian_read(built.h, built.w)


def full_blocks(f, sectors, d):
    """``eigvalsh`` of each sector's read made dense whole: the route before any fold."""
    from metriq.verify import _real_read

    return [np.linalg.eigvalsh(_real_read(f.sector(idx), d[idx])[0].dense()) for idx in sectors]



def concatenated_read(b, d):
    """:func:`_real_read` with the lower triangle mirrored by concatenation and one argsort, as
    it always was before the transpose lookup: the reference for both of its routes."""
    from metriq.linops import _real_form
    from metriq.verify import _weyl_floor

    bound = _weyl_floor(float(np.linalg.norm(b.vals)), b.dim) / np.sqrt(2.0)
    b, im = _real_form(b, None, bound) or _real_form(b, d, bound) or (b, None)
    low = b.rows >= b.cols
    r, c, v = b.rows[low], b.cols[low], b.vals[low]
    off = r > c
    rows, cols = np.concatenate([r, c[off]]), np.concatenate([c, r[off]])
    vals, order = np.concatenate([v, v[off].conj()]), np.argsort(rows * b.dim + cols)
    read = _Triplets(b.dim, rows[order], cols[order], vals[order])
    return read, None if im is None else np.sqrt(2.0) * im

def within_weyl(vals, full, moved):
    """``vals`` match ``full`` within ``moved``, plus ``sqrt(m) eps max |lam|`` for each of
    the two ``eigvalsh`` solves (at m = 4096 a fold and a full solve differ by up to 38 eps
    max |lam| beyond the part the fold dropped).  ``moved`` counts the backward error of
    the solve behind ``vals`` too; that of ``full`` it does not."""
    solves = 2.0 * np.sqrt(len(full)) * np.finfo(float).eps * np.max(np.abs(full), initial=1.0)
    return np.max(np.abs(np.sort(vals) - full)) <= moved + solves


def unit_references(f, sectors, d, units):
    """Per unit of :func:`_sector_eigenvalues`, its sectors' whole solves, sorted together."""
    full = full_blocks(f, sectors, d)
    return [np.sort(np.concatenate([full[k] for k in unit])) for unit, *_ in units]



def test_the_real_read_mirrors_as_the_concatenating_reference_does(monkeypatch):
    import metriq.verify

    reads, real = [], metriq.verify._real_read
    monkeypatch.setattr(metriq.verify, "_real_read",
                        lambda b, d: reads.append((b, d)) or real(b, d))
    # a library H: index 0 has no entry, an empty sector, and h[1, 3] is a nonzero whose
    # transpose is zero, far inside the isospectrality tolerance, so the read takes both routes
    h = np.diag(np.arange(6.0)).astype(complex)
    for i in range(1, 5):
        h[i, i + 1], h[i + 1, i] = 0.5 + 0.1j * i, 0.5 - 0.1j * i
    h[1, 3] = 1e-17
    run_suite(h, np.ones(6), checks=["isospectrality"], tolerances={"isospectrality": 1e-30})
    # and a chain's one sector, whose every entry has its transpose
    chain = build_model({**CHAIN_N10, "n_sites": 6, "gammas": CHAIN_N10["gammas"][:6],
                         "xis": CHAIN_N10["xis"][:6], "fields_a": [0.4] * 6})
    hermitian_form_eigenvalues(chain.h, chain.w)
    patterns = [set(zip(b.rows.tolist(), b.cols.tolist())) for b, _ in reads]
    assert set() in patterns and any((c, r) not in p for p in patterns for r, c in p)
    for b, d in reads:
        (read, drop), (expected, expected_drop) = real(b, d), concatenated_read(b, d)
        assert read.dim == expected.dim and drop == expected_drop
        for x, y in zip(read[1:], expected[1:]):
            assert x.dtype == y.dtype and np.array_equal(x, y)

def bit_reversal(n):
    return np.array([int(format(i, f"0{n}b")[::-1], 2) for i in range(2**n)])


def character_sizes(indices, dim, route):
    """The blocks a fold by ``route`` makes of the basis states ``indices``: by characters,
    ``(m + a chi(J) + b chi(R) + ab chi(JR)) / 4`` for ``J + R``, ``(m + a chi(P)) / 2`` for
    one ``P``, where ``chi`` counts the states each element fixes; empty blocks are left out."""
    n = dim.bit_length() - 1
    maps = {"J": np.arange(dim)[::-1], "R": bit_reversal(n)}
    maps["JR"] = maps["J"][maps["R"]]
    chi = {k: int(np.sum(p[indices] == indices)) for k, p in maps.items()}
    m, gens = len(indices), route.split("+")
    if gens == ["J", "R"]:
        sizes = [(m + a * chi["J"] + b * chi["R"] + a * b * chi["JR"]) // 4
                 for a in (1, -1) for b in (1, -1)]
    else:
        sizes = [(m + a * chi[gens[0]]) // 2 for a in (1, -1)]
    return [k for k in sizes if k], chi


HS_N8 = {"kind": "haldaneShastry", "n_sites": 8,
         "gammas": [0.2, -0.1, 0.3, 0.05, 0.1, -0.2, 0.0, 0.15],
         "xis": [0.1, 0.0, -0.2, 0.3, 0.2, -0.1, 0.05, 0.0]}
TRANSVERSE_N8 = {**CHAIN_N10, "n_sites": 8, "gammas": CHAIN_N10["gammas"][:8],
                 "xis": CHAIN_N10["xis"][:8], "fields_a": [0.4] * 8}


@pytest.mark.parametrize(
    "model, routes",
    [
        (TRANSVERSE_N8, {"J+R": 1}),
        ({**CHAIN_N10, "fields_a": [0.4] * 10}, {"J+R": 1}),
        # Sz sectors 1, 8, 28, 56, 70, 56, 28, 8, 1: the 70 alone, each other pair together;
        # R fixes both states of the pair of 1, so J alone folds it
        (HS_N8, {"J+R": 4, "J": 1}),
        (CHAIN_N10, {"J+R": 5, "J": 1}),
    ],
    ids=["transverse-n8", "transverse-n10", "haldane-shastry-n8", "sz-n10"],
)
def test_fold_and_mirror_match_the_full_blocks_within_the_weyl_term(model, routes):
    from metriq.verify import _sector_eigenvalues

    f, sectors, d = sector_reads(model)
    units = _sector_eigenvalues(f, sectors, d)
    assert collections.Counter(route for _, _, route, _ in units) == routes
    assert sorted(k for unit, *_ in units for k in unit) == list(range(len(sectors)))
    for (unit, vals, route, moved), full in zip(units, unit_references(f, sectors, d, units)):
        assert within_weyl(vals, full, moved)


@pytest.mark.parametrize("model", [TRANSVERSE_N8, {**CHAIN_N10, "fields_a": [0.4] * 10}, HS_N8],
                         ids=["transverse-n8", "transverse-n10", "haldane-shastry-n8"])
def test_the_fold_hands_eigvalsh_blocks_of_the_sizes_the_characters_give(monkeypatch, model):
    from metriq.verify import _sector_eigenvalues

    f, sectors, d = sector_reads(model)
    shapes, numpy_eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(len(a)) or numpy_eigvalsh(a))
    expected, fixed = [], 0
    for unit, vals, route, _ in _sector_eigenvalues(f, sectors, d):
        sizes, chi = character_sizes(np.concatenate([sectors[k] for k in unit]), f.dim, route)
        # J swaps a pair's sectors: its blocks a = -1 equal those of a = +1 and are not solved
        expected += sizes[:len(sizes) // len(unit)]
        fixed += chi["R"] + chi["JR"]
        assert len(vals) == sum(len(sectors[k]) for k in unit)
    assert shapes == expected and fixed > 0  # fixed points are present


@pytest.mark.parametrize(
    "model",
    [
        {**TRANSVERSE_N8, "fields_c": [1e-9] + [0.0] * 7},
        OSC_SWEEP_SEED_1 | {"gamma": 0.2, "cutoff": 10},
        SMALL_MODELS[1],  # bosonQuadratic
        SMALL_MODELS[2],  # lmg
    ],
    ids=["chain-field-c-1e-9", "oscillator2d", "bosonQuadratic", "lmg"],
)
def test_sectors_the_flip_does_not_keep_take_the_full_block(monkeypatch, model):
    from metriq.verify import _sector_eigenvalues

    f, sectors, d = sector_reads(model)
    full = full_blocks(f, sectors, d)
    calls = collections.Counter()
    numpy_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.update([a.shape]) or numpy_eigvalsh(a))
    units = _sector_eigenvalues(f, sectors, d)
    # lmg's only fold is J on two pairs of 1 x 1 sectors of 0, whose gap is exactly 0: each
    # pair folds into two equal blocks of 1, solved once
    pairs = [unit for unit, _, route, _ in units if route == "J"]
    assert len(pairs) == (2 if model["kind"] == "lmg" else 0)
    assert all(route == "real" or unit in pairs for unit, _, route, _ in units)
    assert calls == collections.Counter((len(sectors[unit[0]]),) * 2 for unit, *_ in units)
    for (unit, vals, *_), ref in zip(units, unit_references(f, sectors, d, units)):
        np.testing.assert_array_equal(np.sort(vals), ref)
        if unit not in pairs:
            np.testing.assert_array_equal(vals, full[unit[0]])


def test_an_odd_chain_has_no_self_mapped_sector_and_solves_each_mirrored_pair_once(monkeypatch):
    from metriq.verify import _sector_eigenvalues

    model = {**CHAIN_N10, "n_sites": 7, "gammas": CHAIN_N10["gammas"][:7],
             "xis": CHAIN_N10["xis"][:7]}
    f, sectors, d = sector_reads(model)
    calls = []
    numpy_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or numpy_eigvalsh(a))
    units = _sector_eigenvalues(f, sectors, d)
    # Sz = +-1/2, ..., +-7/2: sectors 1, 7, 21, 35, 35, 21, 7, 1, each tied to its mirror by J
    # into one unit whose two J blocks are equal, so each is solved once; R then folds the 7,
    # 21 and 35 of a J block, with 1, 3 and 3 palindromes fixed
    assert [(unit, route) for unit, _, route, _ in units] == [
        ([0, 7], "J"), ([1, 6], "J+R"), ([2, 5], "J+R"), ([3, 4], "J+R")]
    assert calls == [1, 4, 3, 12, 9, 19, 16]
    for (unit, vals, _, moved), full in zip(units, unit_references(f, sectors, d, units)):
        assert within_weyl(vals, full, moved)


def symmetric_under(case, scale, m=64, seed=11):
    """A real symmetric ``S`` that an involution ``P`` keeps, plus ``eps Q``, ``Q`` a symmetric
    part that ``P`` negates, with ``eps`` at ``scale`` times the largest for which the fold may
    read ``S``.  ``P`` is the index reversal ``J`` for a ``fold``, the bit reversal ``R`` (with
    8 fixed points) for a ``reflection``; for a ``pair``, the block diagonal
    ``(S', J S' J + eps Q)`` of two sectors that ``J`` swaps, ``S'`` any real symmetric block."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(m, m))
    flip = np.eye(m)[bit_reversal(6) if case == "reflection" else np.arange(m)[::-1]]
    base = g + g.T if case == "pair" else g + g.T + flip @ (g + g.T) @ flip
    odd = g + g.T - flip @ (g + g.T) @ flip
    # the read drops ||g - P g P||_F / 2: ||eps Q||_F, and of the pair's 2m, ||eps Q||_F / sqrt 2
    dropped = scale * REAL_FORM_TOL * (1.0 + np.linalg.norm(base) / np.sqrt(m))
    eps = dropped * (np.sqrt(2.0) if case == "pair" else 1.0) / np.linalg.norm(odd)
    if case == "pair":
        zero = np.zeros((m, m))
        return np.block([[base, zero], [zero, flip @ base @ flip + eps * odd]]), dropped
    return base + eps * odd, dropped


def solve_error(vals, m):
    """``eigvalsh``'s backward error on a block of size ``m`` that returned ``vals``:
    ``m eps ||b||_2``, with ``||b||_2 <= max |vals| / (1 - m eps)``."""
    eps = np.finfo(float).eps
    return m * eps * float(np.max(np.abs(vals))) / (1.0 - m * eps)


@pytest.mark.parametrize("case", ["fold", "pair", "reflection"])
@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_the_flip_is_read_only_within_the_weyl_floor_and_its_drop_is_bounded(case, scale):
    from metriq.verify import _sector_eigenvalues

    h, dropped = symmetric_under(case, scale)
    units = _sector_eigenvalues(*hermitian_read(h))
    eigenvalues, weyl = np.sort(np.concatenate([u[1] for u in units])), max(u[3] for u in units)
    routes = [route for _, _, route, _ in units]
    ref = np.sort(np.linalg.eigvalsh(h))
    if scale > 1:  # refused: each sector solved whole, as before, and its term is that solve's
        assert routes == ["real"] * (2 if case == "pair" else 1)
        blocks = np.split(np.arange(len(h)), len(routes))
        lam = [np.linalg.eigvalsh(h[s][:, s]) for s in blocks]
        np.testing.assert_array_equal(eigenvalues, np.sort(np.concatenate(lam)))
        assert weyl == max(solve_error(vals, len(vals)) for vals in lam)
    else:  # the Weyl term carries the drop, the rounding of the fold's sums and the solves'
        # error: each block of a J fold is of size len(h) / 2, and R's largest (64 + 8) / 2
        assert routes == ["R" if case == "reflection" else "J"]
        rounding = 5 * np.finfo(float).eps * np.linalg.norm(h)
        solves = solve_error(eigenvalues, 36 if case == "reflection" else len(h) // 2)
        assert 0.999 * dropped + solves <= weyl <= 1.001 * dropped + rounding + solves
        assert within_weyl(eigenvalues, ref, weyl)


def moved_along_the_top_eigenvector(scales, m=64, seed=12):
    """A small real symmetric ``S`` and ``S + eps v v^T`` for each scale, ``v`` the eigenvector
    of ``S``'s largest ``|lam|``: ``||eps v v^T||_F = eps`` is the scale times the Weyl floor
    under which a state point may take ``S``'s eigenvalues, and that eigenvalue moves by all of
    ``eps``.  ``S`` is small, so its solve's backward error is far below the floor."""
    rng = np.random.default_rng(seed)
    g = 1e-3 * rng.normal(size=(m, m))
    s = g + g.T
    lam, vecs = np.linalg.eigh(s)
    v = vecs[:, np.argmax(np.abs(lam))]
    floor = REAL_FORM_TOL * (1.0 + np.linalg.norm(s) / np.sqrt(m))
    return s, [s + scale * floor * np.outer(v, v) for scale in scales]


def eigvalsh_read(h, state):
    """The spectrum path's read of the dense ``h`` under unit weights, one point of a sweep
    that keeps ``state``."""
    from metriq.verify import _eigvalsh_read, _hermitian_form

    h = _Triplets.of(h)
    return _eigvalsh_read(_hermitian_form(h, np.ones(h.dim)), h, state)


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_a_sweep_point_takes_the_solved_eigenvalues_only_within_the_weyl_floor(monkeypatch, scale):
    s, (moved,) = moved_along_the_top_eigenvector([scale])
    state = [None]
    solved = eigvalsh_read(s, state)
    assert state[0] is solved
    calls = []
    numpy_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or numpy_eigvalsh(a))
    read = eigvalsh_read(moved, state)
    ref = numpy_eigvalsh(moved)
    if scale > 1:  # refused: solved anew, and it takes the solved point's place
        assert calls == [len(s)] and state[0] is read
        np.testing.assert_array_equal(read.eigenvalues, ref)
        return
    # admitted: nothing solved, the solved point stays the one to compare with
    assert calls == [] and state[0] is solved
    assert read.eigenvalues is solved.eigenvalues
    # the top eigenvalue moved by the whole gap, which only the gap's own term covers
    assert np.max(np.abs(read.eigenvalues - ref)) > 10.0 * solved.weyl
    gap = np.linalg.norm(moved - s)
    assert read.weyl == pytest.approx(solved.weyl + np.sqrt(2.0) * gap, rel=1e-12)
    assert within_weyl(read.eigenvalues, ref, read.weyl)


def test_a_sweep_point_is_held_to_the_last_point_solved_not_to_the_one_before():
    # each point lies 0.6 of the floor from the one before: the second is within the floor
    # of the first, the third only of the second, so it is solved, and the fourth reuses it
    s, moved = moved_along_the_top_eigenvector([0.6, 1.2, 1.8])
    state = [None]
    reads, held = [], []
    for h in [s, *moved]:
        reads.append(eigvalsh_read(h, state))
        held.append(state[0])
    assert held == [reads[0], reads[0], reads[2], reads[2]]
    assert reads[1].eigenvalues is reads[0].eigenvalues
    assert reads[3].eigenvalues is reads[2].eigenvalues
    for read, h in zip(reads, [s, *moved]):
        assert within_weyl(read.eigenvalues, np.linalg.eigvalsh(h), read.weyl)


def test_a_sweep_point_of_another_pattern_is_solved_anew_though_its_values_match():
    # both hold 1, 2, 2, 2, 3 in row order, at other positions: sectors {0, 1}, {2} and
    # {0, 2}, {1}, and other eigenvalues
    first = np.array([[1.0, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    second = np.array([[1.0, 0.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, 3.0]])
    state = [None]
    eigvalsh_read(first, state)
    read = eigvalsh_read(second, state)
    assert state[0] is read
    np.testing.assert_allclose(read.eigenvalues, np.linalg.eigvalsh(second), rtol=0, atol=1e-14)


def test_eta_norm_bound_covers_the_fastest_growing_state_to_the_grid_end():
    # F = eps [[0, 1], [-1, 0]] has eigenvalues +-i eps: the state (1, i) / sqrt(2)
    # grows as e^{eps t}, its norm by e^{20 eps} - 1 at t = 10
    eps = 2e-12
    (eta,) = run_suite(eps * np.array([[0.0, 1.0], [-1.0, 0.0]]), np.ones(2),
                       checks=["eta_norm"]).checks
    assert eta.passed and eta.detail.startswith("certified")
    assert eta.residual >= np.expm1(20.0 * eps)


def test_every_certified_bound_carries_the_rounding_of_f():
    # F is formed entry by entry with a relative error of up to 5u (u = eps / 2), which
    # its computed defect need not show; the bounds must add it, here held at twice that
    h, w = pseudo_hermitian_pair(40, 1, seed=4)
    root = np.sqrt(w)
    form = root[:, None] * h / root
    norm2 = np.sqrt(np.abs(form).sum(axis=0).max() * np.abs(form).sum(axis=1).max())
    rounding = 5.0 * np.finfo(float).eps * norm2
    report = run_suite(h, w, checks=["reality", "eta_norm"])
    reality, eta = report.checks
    assert reality.detail.startswith("certified") and eta.detail.startswith("certified")
    assert reality.residual >= rounding
    assert eta.residual >= np.expm1(10.0 * 2.0 * rounding)


@pytest.mark.parametrize("gamma", [0.6, 0.7, 0.8, 1.5, 3.0])
def test_pseudo_hermiticity_sees_a_defect_in_the_lightest_row(gamma):
    # one entry of the lightest row off by half its value; kappa = e^{40 gamma}, up to
    # e^120 (1.3e52), the most the overflow guard admits for this mode
    from metriq.linops import COND_LIMIT, is_pseudo_hermitian

    built = build_model({"kind": "bosonQuadratic", "alpha": [[2.0]], "beta": [[0.5]],
                         "gammas": [gamma], "cutoff": 20})
    h = built.h.dense()
    h[20, 18] *= 1.5
    assert np.argmin(built.w) == 20
    (ph,) = run_suite(h, built.w, checks=["pseudo_hermiticity"]).checks
    # F's rows weigh alike, so the residual does not shrink as kappa grows
    assert not ph.passed and ph.residual == pytest.approx(3.03e-2, rel=1e-2)
    # eta H weighs that row by its weight: at gamma = 0.8 its defect is below tolerance;
    # the dense API refuses a metric past its condition limit
    if np.max(built.w) / built.w[20] < COND_LIMIT:
        assert is_pseudo_hermitian(h, np.diag(built.w))[0] is (gamma == 0.8)


@pytest.mark.parametrize("weight", [0.0, -1.0])
def test_hermitian_form_eigenvalues_read_h_itself_past_a_weight_out_of_range(weight):
    # a finite weight that is not positive: F has no finite form, so H goes to
    # eigenvalues and is left as it was
    h, w = pseudo_hermitian_pair(BLOCK + 1, 5, seed=6)
    w = w.copy()
    w[0] = weight
    form = h.copy()
    lam = hermitian_form_eigenvalues(form, w)
    assert np.array_equal(form, h)
    assert np.array_equal(lam, eigenvalues(h))


@pytest.mark.parametrize("weight", [0.0, -1.0])
def test_a_weight_out_of_range_fails_the_checks_that_need_f_as_entries(monkeypatch, weight):
    # F has no finite form: pseudo_hermiticity, isospectrality and eta_norm fail naming the
    # weight, metric_pd fails on it, and reality alone reads _eigenvalues(H) instead
    import metriq.verify

    decomposed = []
    real_eigenvalues = metriq.verify._eigenvalues
    monkeypatch.setattr(metriq.verify, "_eigenvalues",
                        lambda a: decomposed.append(a) or real_eigenvalues(a))
    h, w = pseudo_hermitian_pair(BLOCK + 1, 5, seed=6)
    w = w.copy()
    w[0] = weight
    report = run_suite(h, w)
    verdicts = [(c.name, c.passed) for c in report.checks]
    assert verdicts == [("metric_pd", False), ("pseudo_hermiticity", False), ("reality", True),
                        ("isospectrality", False), ("eta_norm", False)]
    no_form = f"failed: F has no finite form: weight w[0] = {weight:.3e} is not positive"
    assert [report.checks[k].detail for k in (1, 3, 4)] == [no_form] * 3
    assert report.checks[2].detail.startswith("eig:")
    (read,) = decomposed
    assert np.array_equal(read.dense(), h)
    again = run_suite(h, w)
    assert [c.to_dict() for c in again.checks] == [c.to_dict() for c in report.checks]


@pytest.mark.parametrize(
    "w, message",
    [
        ([1.0], "dimension mismatch"),  # would broadcast over H
        ([1.0, 1.0], "dimension mismatch"),
        ([1.0, np.nan, 1.0, 1.0], "real, finite 1-D"),
        ([1.0, np.inf, 1.0, 1.0], "real, finite 1-D"),
        (np.array([1.0 + 0.5j, 1.0, 1.0, 1.0]), "real, finite 1-D"),
    ],
    ids=["length-1", "length-2", "nan", "inf", "complex"],
)
def test_malformed_weights_are_rejected_by_both_entry_points(w, message):
    h, _ = pseudo_hermitian_pair(4, 1, seed=7)
    for entry in (run_suite, hermitian_form_eigenvalues):
        form = h.copy()
        with pytest.raises(ValueError, match=message):
            entry(form, w)
        assert np.array_equal(form, h)


def test_the_package_re_exports_each_modules_public_names():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import metriq
    from metriq import bosonic, linops, oscillator2d, spinchain, verify

    modules = (linops, bosonic, oscillator2d, spinchain, verify)
    assert metriq.__all__ == ["__version__", *(name for m in modules for name in m.__all__)]
    assert len(set(metriq.__all__)) == len(metriq.__all__)
    for m in modules:
        for name in m.__all__:
            obj = getattr(m, name)
            assert getattr(metriq, name) is obj
            assert getattr(obj, "__module__", m.__name__) == m.__name__
    # the CLI, and argparse with it, stays out of the package import
    env = dict(os.environ, PYTHONPATH=str(Path(metriq.__file__).parents[1]))
    code = "import sys, metriq; assert not {'metriq.cli', 'argparse'} & set(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_no_public_callable_takes_a_private_parameter():
    import inspect

    import metriq
    import metriq.cli
    import metriq.verify

    private = {}
    for module in (metriq, metriq.verify, metriq.cli):
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                continue  # their signatures are BaseException's, which inspect cannot read
            if callable(obj):
                params = inspect.signature(obj).parameters
                private[name] = [p for p in params if p.startswith("_")]
    assert {"hermitian_form_eigenvalues", "SpectrumResult", "RunConfig"} <= set(private)
    assert {name: p for name, p in private.items() if p} == {}


def _plain_records():
    """Each plain record of the package, with one value per field in field order."""
    from metriq import cli
    from metriq.bosonic import BogoliubovResult
    from metriq.linops import InnerProductSpace
    from metriq.oscillator2d import ComplexFrequencies, RotatedFrame
    from metriq.verify import CheckResult

    eye = np.eye(2)
    return [
        (CheckResult, dict(name="reality", passed=True, residual=1e-15, tolerance=1e-10,
                           detail="")),
        (BogoliubovResult, dict(omegas=np.array([1.0, 2.0]), pairing_residual=0.0,
                                d_min_eigenvalue=0.5)),
        (InnerProductSpace, dict(metric=eye, rho=eye, rho_inverse=eye)),
        (ComplexFrequencies, dict(m_w1_sq=1 + 0.5j, m_w2_sq=2 - 0.5j, m_w3_sq=0.25j)),
        (RotatedFrame, dict(theta=0.1, kappa_plus=2.0, kappa_minus=1.0)),
        (cli.ModelSpec, dict(kind="oscillator2d", params={"cutoff": 4})),
        (cli.SweepSpec, dict(path="gamma", values=(0.0, 0.1))),
        (cli.OutputSpec, dict(path="out", format="csv")),
        (cli._Built, dict(h=_Triplets.of(eye), w=np.ones(2), form=None)),
    ]


@pytest.mark.parametrize("cls, fields", [pytest.param(cls, fields, id=cls.__name__)
                                         for cls, fields in _plain_records()])
def test_a_plain_record_is_immutable_compares_by_field_and_reprs_its_fields(cls, fields):
    record = cls(**fields)
    with pytest.raises(AttributeError):
        setattr(record, next(iter(fields)), None)
    assert record == cls(**fields)  # the same field objects: arrays compare by identity
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"


def test_every_dataclass_validates_or_holds_private_state():
    # a record that only holds its fields is a NamedTuple; a dataclass must earn its
    # generated code with a __post_init__, its own __init__ or an init=False field
    import dataclasses
    import inspect

    from metriq import bosonic, cli, linops, oscillator2d, spinchain, verify

    plain, seen = [], set()
    for module in (linops, bosonic, oscillator2d, spinchain, verify, cli):
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or not dataclasses.is_dataclass(cls):
                continue
            seen.add(name)
            if not ("__post_init__" in vars(cls)
                    or cls.__init__.__code__.co_filename != "<string>"
                    or any(not f.init for f in dataclasses.fields(cls))):
                plain.append(f"{module.__name__}.{name}")
    assert {"MetricSpec", "SpectrumResult", "FockSpace", "RunConfig", "GradedMatrix",
            "BosonQuadraticForm"} <= seen
    assert plain == []


def test_only_the_finite_rule_calls_isfinite_on_an_input():
    # linops._finite is the one finiteness rule for inputs; the combined rules state their own
    # messages, and a computed condition number `cond` is no input
    import ast
    import pathlib

    import metriq

    rules = {"linops._finite", "linops._coefficients", "verify._weights", "verify._selection"}

    def calls(node, scope):
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            inner = f"{scope}.{child.name}" if named else scope
            if (isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] == "isfinite"
                    and ast.unparse(child.args[0]) != "cond"):
                yield inner
            yield from calls(child, inner)

    found = [where for path in sorted(pathlib.Path(metriq.__file__).parent.glob("*.py"))
             for where in calls(ast.parse(path.read_text()), path.stem)]
    assert [where for where in found if where not in rules] == []
    assert "linops._finite" in found


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


def test_graded_matrix_guards_each_exponential_where_it_is_taken():
    # every factor exp(g_i - g_j) of the realized matrix is 1, each weight exp(-2 g_i) e^-2000
    m = GradedMatrix([[1.0, 0.5], [0.5, -1.0]], [1000.0, 1000.0])
    np.testing.assert_array_equal(m.realized, m.core)
    for call in (
        lambda: m.metric_weights,
        lambda: pseudo_symmetric_symmetrize(m),
        lambda: GradedMatrix(m.core, [60.5, -60.5]).realized,  # factor e^121
    ):
        with pytest.raises(ValueError, match="exceeds overflow guard"):
            call()


def test_graded_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        GradedMatrix(np.zeros((2, 3)), [0.0, 0.0])
    with pytest.raises(ValueError, match="length 2"):
        GradedMatrix(np.zeros((2, 2)), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="grades must be finite"):
        GradedMatrix(np.zeros((2, 2)), [0.0, np.nan])
    with pytest.raises(ValueError, match=r"core must be finite and symmetric: core\[0\]\[1\] = 1, "
                                         r"core\[1\]\[0\] = 0.5"):
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


def test_conjugation_check_is_relative_to_the_scaled_entries():
    # entries grow to e^{43.5}; the identity still holds to rounding
    rng = np.random.default_rng(10)
    x = rng.normal(size=(30, 30))
    res = graded_conjugation_check(x, np.arange(30), 1.5, cycles=[(0, 29, 15), (3, 27)])
    assert res <= 1e-14


def test_conjugation_check_rejections():
    with pytest.raises(ValueError, match="gamma must be finite"):
        graded_conjugation_check(E12, [1, 0], np.nan)
    with pytest.raises(ValueError, match="must be diagonal"):
        graded_conjugation_check(E12, [[1, 1], [0, 0]], 0.1)
    with pytest.raises(ValueError, match="must be integers"):
        graded_conjugation_check(E12, [0.5, 0.0], 0.1)
    with pytest.raises(ValueError, match="length 2"):
        graded_conjugation_check(E12, [1, 0, 2], 0.1)
    with pytest.raises(ValueError, match="at least two"):
        graded_conjugation_check(E12, [1, 0], 0.1, cycles=[(0,)])
