"""Acceptance suite: one test per shipped criterion, tolerances pinned.

Run with ``pytest -v`` for the per-criterion pass/fail lines, or with
``-s`` to also see the one-line numeric summaries.
"""
import itertools
import json

import numpy as np
import pytest

from metriq.bosonic import (
    BosonQuadraticForm,
    FockSpace,
    StabilityError,
    bogoliubov_frequencies,
    build_lmg,
    build_quadratic_hamiltonian,
    quadratic_spectrum,
    total_number_indices,
)
from metriq.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    ModelSpec,
    OutputSpec,
    RunConfig,
    SweepSpec,
    main,
    parse_config,
    serialize_config,
)
from metriq.linops import (
    MetricSpec,
    anticommutator,
    eta_adjoint,
    evolve,
    is_pseudo_hermitian,
    matrix_sqrt_pd,
    modified_inner,
    spectrum,
)
from metriq.oscillator2d import (
    OscillatorParams,
    angular_momentum_diag,
    build_xy_hamiltonian,
    cartesian_operators,
    lambda_pm,
    lz_ladder_identity,
    normal_mode_frequencies,
    oscillator_metric,
    transformed_canonical_ops,
)
from metriq.spinchain import (
    FermionQuadraticSpec,
    SpinChainSpec,
    build_fermion_quadratic,
    build_haldane_shastry,
    build_xxz_asymmetric,
    build_zeta_metric,
    fermion_ops,
    gradient_ws,
    hermitian_counterpart,
)
from metriq.verify import (
    GradedMatrix,
    graded_conjugation_check,
    pseudo_symmetric_symmetrize,
)

TWO_MODE_FORM = BosonQuadraticForm(
    [[2.0, 0.3], [0.3, 1.5]],
    [[0.4, 0.1], [0.1, -0.2]],
    MetricSpec([0.3, -0.2], [0.1, 0.25]),
)


def _report(num: int, message: str) -> None:
    print(f"PASS criterion {num:02d}: {message}")


def _sorted_real(h: np.ndarray) -> np.ndarray:
    return spectrum(h).eigenvalues.real


def test_criterion_01_metric_machinery():
    rng = np.random.default_rng(101)
    worst_sq = 0.0
    worst_inv = 0.0
    for _ in range(100):
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        eta = g @ g.conj().T + np.eye(16)
        space = matrix_sqrt_pd(eta)
        worst_sq = max(
            worst_sq,
            np.linalg.norm(space.rho @ space.rho - eta) / np.linalg.norm(eta),
        )
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        twice = eta_adjoint(eta_adjoint(a, eta), eta)
        worst_inv = max(
            worst_inv, np.linalg.norm(twice - a) / np.linalg.norm(a)
        )
    assert worst_sq < 1e-12
    assert worst_inv < 1e-12
    _report(1, f"sqrt residual {worst_sq:.2e}, involution {worst_inv:.2e} over 100 metrics")


def test_criterion_02_deformed_oscillator():
    params = OscillatorParams(2.0, 1.0, 1.0, gamma=0.3, xi=0.2)
    omega_plus, omega_minus = normal_mode_frequencies(params)

    def lowest(cutoff, count):
        space = FockSpace(2, cutoff)
        h = build_xy_hamiltonian(params, space)
        eta = np.diag(oscillator_metric(params, space))
        return h, eta, spectrum(h).eigenvalues[:count]

    h, eta, lam10 = lowest(24, 10)
    # (a) pseudo-hermiticity
    passed, residual = is_pseudo_hermitian(h, eta)
    assert passed and residual < 1e-12
    # (b) reality of the lowest ten
    assert np.max(np.abs(lam10.imag)) < 1e-9
    # (c) normal-mode ladder, truncation-certified against a smaller cutoff
    grid = [
        (na + 0.5) * omega_plus + (nb + 0.5) * omega_minus
        for na, nb in itertools.product(range(12), repeat=2)
    ]
    closed10 = np.sort(grid)[:10]
    np.testing.assert_allclose(lam10.real, closed10, atol=1e-7)
    _, _, lam10_small = lowest(22, 10)
    np.testing.assert_allclose(lam10_small.real, closed10, atol=1e-7)
    assert np.max(np.abs(lam10.real - lam10_small.real)) < 1e-9
    # (d) deformation leaves the whole truncated spectrum alone
    undeformed = OscillatorParams(2.0, 1.0, 1.0)
    h0 = build_xy_hamiltonian(undeformed, FockSpace(2, 24))
    np.testing.assert_allclose(
        spectrum(h).eigenvalues, spectrum(h0).eigenvalues, atol=1e-8
    )
    # (e) the two frequency conventions differ by exactly 1/sqrt(2)
    lp, lm = lambda_pm(params)
    ratio = np.array([lp / omega_plus, lm / omega_minus])
    np.testing.assert_allclose(ratio, 1.0 / np.sqrt(2.0), rtol=1e-12)
    _report(
        2,
        f"residual {residual:.2e}, lowest-10 ladder to 1e-7, "
        f"lambda/omega ratio {ratio[0]:.12f}",
    )


def test_criterion_03_lz_ladder():
    space = FockSpace(2, 16)
    worst = max(
        lz_ladder_identity(space, n, m)
        for n in range(11)
        for m in range(11 - n)
    )
    assert worst < 1e-13
    _report(3, f"worst ladder residual {worst:.2e} for n+m <= 10")


def test_criterion_04_bogoliubov():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        g = rng.normal(size=(3, 3))
        alpha = g @ g.T + np.eye(3)
        b = rng.normal(size=(3, 3))
        beta = 0.1 * (b + b.T)
        form = BosonQuadraticForm(alpha, beta, MetricSpec(rng.normal(size=3) * 0.3))
        res = bogoliubov_frequencies(form)
        assert res.d_min_eigenvalue > 0
        worst = max(worst, res.pairing_residual)
    assert worst < 1e-10

    # dense two-mode check against the closed-form ladder
    space = FockSpace(2, 20)
    h = build_quadratic_hamiltonian(space, TWO_MODE_FORM)
    lam = spectrum(h).eigenvalues
    occs = list(itertools.product(range(6), repeat=2))
    closed = np.sort(quadratic_spectrum(TWO_MODE_FORM, occs))[:5]
    np.testing.assert_allclose(lam[:5].real, closed, atol=1e-6)
    assert np.max(np.abs(lam[:5].imag)) < 1e-9

    with pytest.raises(StabilityError) as err:
        bogoliubov_frequencies(
            BosonQuadraticForm([[1.0]], [[1.5]], MetricSpec([0.0]))
        )
    assert err.value.d_min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    _report(
        4,
        f"pairing residual {worst:.2e} over 50 forms, "
        f"unstable d_min {err.value.d_min_eigenvalue:.2f}",
    )


def test_criterion_05_swanson_spacing():
    form = BosonQuadraticForm([[2.0]], [[0.5]], MetricSpec([0.3]))
    h = build_quadratic_hamiltonian(FockSpace(1, 40), form)
    lam = _sorted_real(h)
    spacing = np.diff(lam[:7])
    np.testing.assert_allclose(spacing, np.sqrt(3.75), atol=1e-8)
    _report(5, f"level spacing {spacing[0]:.10f} vs sqrt(3.75) {np.sqrt(3.75):.10f}")


def test_criterion_06_lmg_sectors():
    space = FockSpace(2, 20)
    h0 = build_lmg(space, MetricSpec([0.0, 0.0]), 1.0, 0.4)
    hg = build_lmg(space, MetricSpec([0.4, -0.2]), 1.0, 0.4)
    worst = 0.0
    for total in range(21):
        ix = total_number_indices(space, total)
        assert len(ix) == total + 1
        lam0 = np.sort(np.linalg.eigvals(h0[np.ix_(ix, ix)]).real)
        lamg = np.sort(np.linalg.eigvals(hg[np.ix_(ix, ix)]).real)
        worst = max(worst, float(np.max(np.abs(lam0 - lamg))))
    assert worst < 1e-10
    _report(6, f"sector spectra agree to {worst:.2e} up to dimension 21")


def test_criterion_07_xxz_chains():
    rng = np.random.default_rng(707)
    worst_iso = 0.0
    worst_imag = 0.0
    worst_norm = 0.0
    times = np.linspace(0.0, 10.0, 32)
    for n in range(2, 11):
        spec = SpinChainSpec(
            n_sites=n,
            gamma_exchange=float(rng.normal()),
            delta=float(rng.normal()),
            fields_a=tuple(rng.normal(size=n) * 0.3),
            fields_b=tuple(rng.normal(size=n) * 0.3),
            fields_c=tuple(rng.normal(size=n) * 0.3),
            ws=tuple(rng.normal(size=n) * 0.3),
        )
        eigs_a = spectrum(build_xxz_asymmetric(spec))  # for the spectrum and the evolution
        lam_a = eigs_a.eigenvalues
        lam_h = np.linalg.eigvalsh(hermitian_counterpart(spec))
        worst_iso = max(worst_iso, float(np.max(np.abs(lam_a - lam_h))))
        worst_imag = max(worst_imag, float(np.max(np.abs(lam_a.imag))))

        eta = np.diag(build_zeta_metric(spec))
        psi0 = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        psi0 /= np.linalg.norm(psi0)
        traj = eigs_a.evolve(psi0, times)
        norms = np.array([modified_inner(v, v, eta).real for v in traj])
        worst_norm = max(
            worst_norm, float(np.max(np.abs(norms - norms[0])) / norms[0])
        )
    assert worst_iso < 1e-10
    assert worst_imag < 1e-9
    assert worst_norm < 1e-10

    # Dirac norm is *not* conserved for a biased chain
    biased = SpinChainSpec(
        n_sites=6, delta=0.5, ws=gradient_ws(6, 0.0, 0.3)
    )
    h = build_xxz_asymmetric(biased)
    psi0 = rng.normal(size=biased.dim) + 1j * rng.normal(size=biased.dim)
    psi0 /= np.linalg.norm(psi0)
    traj = evolve(h, psi0, times)
    dirac = np.linalg.norm(traj, axis=1)
    dirac_dev = float(np.max(np.abs(dirac - 1.0)))
    assert dirac_dev > 1e-3
    _report(
        7,
        f"N=2..10 isospectral to {worst_iso:.2e}, eta-norm drift {worst_norm:.2e}, "
        f"Dirac drift {dirac_dev:.2e}",
    )


def test_criterion_08_xx_free_fermions():
    n = 8
    spec = SpinChainSpec(n_sites=n)
    lam = np.sort(_sorted_real(build_xxz_asymmetric(spec)))
    t = np.zeros((n, n))
    for i in range(n - 1):
        t[i, i + 1] = t[i + 1, i] = spec.gamma_exchange
    eps = np.linalg.eigvalsh(t)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    sums = np.sort(bits @ eps)
    np.testing.assert_allclose(lam, sums, atol=1e-10)
    _report(8, f"256 spin levels match occupation sums to {np.max(np.abs(lam - sums)):.2e}")


def test_criterion_09_haldane_shastry():
    rng = np.random.default_rng(909)
    worst = 0.0
    for n in range(2, 7):
        lam0 = spectrum(build_haldane_shastry(n, MetricSpec([0.0] * n))).eigenvalues
        metric = MetricSpec(rng.normal(size=n) * 0.4, rng.normal(size=n) * 0.4)
        lam_w = spectrum(build_haldane_shastry(n, metric)).eigenvalues
        worst = max(worst, float(np.max(np.abs(lam0 - lam_w))))
    assert worst < 1e-10
    lam2 = _sorted_real(build_haldane_shastry(2, MetricSpec([0.0, 0.0])))
    np.testing.assert_allclose(lam2, [-0.375, 0.125, 0.125, 0.125], atol=1e-12)
    _report(9, f"deformed ring isospectral to {worst:.2e} for N=2..6")


def test_criterion_10_fermion_quadratic():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for n in range(2, 7):
        g = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        spec = FermionQuadraticSpec(
            0.5 * (g + g.T),
            0.5 * (b - b.T),
            MetricSpec(rng.normal(size=n) * 0.3, rng.normal(size=n) * 0.3),
        )
        lam = spectrum(build_fermion_quadratic(spec)).eigenvalues
        lam_h = spectrum(build_fermion_quadratic(spec, deformed=False)).eigenvalues
        worst = max(worst, float(np.max(np.abs(lam - lam_h))))
    assert worst < 1e-10

    n = 6
    ops = [fermion_ops(n, i) for i in range(n)]
    eye = np.eye(2**n)
    zero = np.zeros((2**n, 2**n))
    for i in range(n):
        for j in range(n):
            want = eye if i == j else zero
            assert np.array_equal(anticommutator(ops[i][0], ops[j][1]), want)
            assert np.array_equal(anticommutator(ops[i][0], ops[j][0]), zero)
    _report(10, f"N=2..6 isospectral to {worst:.2e}, anticommutators exact at N=6")


def test_criterion_11_graded_identities():
    rng = np.random.default_rng(1111)
    worst_conj = 0.0
    for _ in range(5):
        x = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        grading = rng.integers(-3, 4, size=20)
        worst_conj = max(
            worst_conj,
            graded_conjugation_check(x, grading, 0.3, cycles=[(0, 5, 11), (2, 17)]),
        )
    assert worst_conj < 1e-13

    worst_sym = 0.0
    worst_spec = 0.0
    for _ in range(5):
        a = rng.normal(size=(8, 8))
        m = GradedMatrix(0.5 * (a + a.T), rng.normal(size=8))
        sym = pseudo_symmetric_symmetrize(m)
        worst_sym = max(worst_sym, float(np.max(np.abs(sym - sym.T))))
        lam = np.linalg.eigvals(m.realized)
        assert np.max(np.abs(lam.imag)) < 1e-10
        worst_spec = max(
            worst_spec,
            float(np.max(np.abs(np.sort(lam.real) - np.linalg.eigvalsh(m.core)))),
        )
    assert worst_sym < 1e-13
    assert worst_spec < 1e-10
    _report(
        11,
        f"conjugation {worst_conj:.2e}, symmetrization {worst_sym:.2e}, "
        f"spectrum {worst_spec:.2e}",
    )


def test_criterion_12_transformed_operators():
    space = FockSpace(2, 12)
    w = 0.3 + 0.2j
    X, Y, PX, PY, _ = transformed_canonical_ops(space, w)
    x, y, px, py = cartesian_operators(space)
    sq_dev = np.linalg.norm(X @ X + Y @ Y - (x @ x + y @ y))
    assert sq_dev < 1e-12

    table = space.occupation_table()
    inside = np.nonzero(table.sum(axis=1) <= space.cutoff - 2)[0]
    comm = X @ PX - PX @ X - 1j * np.eye(space.dim)
    comm_dev = float(np.max(np.abs(comm[np.ix_(inside, inside)])))
    assert comm_dev < 1e-12

    rho = np.exp(-w.real * angular_momentum_diag(space))
    conj = (rho[:, None] * X) * (1.0 / rho)[None, :]
    rot_dev = float(
        np.max(np.abs(conj - (x * np.cos(w.imag) - y * np.sin(w.imag))))
    )
    assert rot_dev < 1e-12
    _report(
        12,
        f"squares {sq_dev:.2e}, commutator {comm_dev:.2e}, rotation {rot_dev:.2e}",
    )


def test_criterion_13_cli_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the config's relative output path lands here
    config = RunConfig(
        model=ModelSpec(
            "bosonQuadratic",
            {
                "alpha": [[2.0, 0.3], [0.3, 1.5]],
                "beta": [[0.4, 0.1], [0.1, -0.2]],
                "gammas": [0.3, -0.2],
                "xis": [0.1, 0.25],
                "cutoff": 6,
            },
        ),
        checks=("metric_pd", "pseudo_hermiticity", "reality", "bogoliubov"),
        sweep=SweepSpec("gammas[0]", (0.0, 0.3)),
        output=OutputSpec("out", "csv"),
    )
    assert parse_config(serialize_config(config)) == config

    passing = tmp_path / "passing.json"
    passing.write_text(serialize_config(config))
    assert main(["verify", str(passing)]) == EXIT_OK
    assert json.loads((tmp_path / "out" / "report.json").read_text())["checks"]

    failing = tmp_path / "failing.json"
    failing.write_text(
        json.dumps(
            {
                "model": {
                    "kind": "bosonQuadratic",
                    "alpha": [[1.0]],
                    "beta": [[1.5]],
                    "gammas": [0.0],
                    "cutoff": 6,
                },
                "checks": ["bogoliubov"],
            }
        )
    )
    assert main(["verify", str(failing)]) == EXIT_CHECK_FAILED

    broken = tmp_path / "broken.json"
    broken.write_text('{"model": {"kind": "bosonQuadratic"}}')
    assert main(["run", str(broken)]) == EXIT_CONFIG_ERROR
    _report(13, "round-trip identity and exit codes 0/1/2 exercised")
