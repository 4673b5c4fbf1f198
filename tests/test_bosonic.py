"""Fock spaces, deformed quadratic boson forms, Bogoliubov, LMG."""
import warnings

import numpy as np
import pytest

from metriq.bosonic import (
    BosonQuadraticForm,
    FockSpace,
    StabilityError,
    bogoliubov_frequencies,
    build_lmg,
    build_metric,
    build_quadratic_hamiltonian,
    ladder_ops,
    number_op,
    quadratic_spectrum,
    schwinger_su2,
    tilde_ops,
    total_number_indices,
)
from metriq.linops import MetricSpec, eta_adjoint, is_pseudo_hermitian, spectrum
from metriq.oscillator2d import (
    OscillatorParams,
    angular_momentum_diag,
    build_xy_hamiltonian,
    cartesian_operators,
    complex_frequencies,
    matrix_element_equivalence,
    oscillator_metric,
    transformed_canonical_ops,
)
from metriq.spinchain import (
    FermionQuadraticSpec,
    PseudoSpinSite,
    SpinChainSpec,
    build_fermion_quadratic,
    build_haldane_shastry,
    build_xxz_asymmetric,
    hermitian_counterpart,
    pseudo_spin_ops,
    site_occupations,
    spin_orbit_check,
)
from metriq.verify import run_suite
from test_spinchain import pseudo_hermiticity_entrywise

SWANSON = BosonQuadraticForm([[2.0]], [[0.5]], MetricSpec([0.3], [0.2]))
OMEGA_SWANSON = np.sqrt(3.75)  # sqrt(alpha^2 - beta^2)

TWO_MODE = BosonQuadraticForm(
    [[2.0, 0.3], [0.3, 1.5]],
    [[0.4, 0.1], [0.1, -0.2]],
    MetricSpec([0.3, -0.2], [0.1, 0.25]),
)


def test_fock_space_indexing_round_trip():
    space = FockSpace(3, 4)
    assert space.dim == 125
    for idx in (0, 7, 31, 124):
        assert space.index(space.occupations(idx)) == idx
    # mode 0 varies fastest
    assert space.index((1, 0, 0)) == 1
    assert space.index((0, 1, 0)) == 5
    table = space.occupation_table()
    assert table.shape == (125, 3)
    np.testing.assert_array_equal(table[7], space.occupations(7))


def test_fock_space_validation():
    with pytest.raises(ValueError, match="cap"):
        FockSpace(4, 12)
    with pytest.raises(ValueError, match="cutoff"):
        FockSpace(1, 0)
    space = FockSpace(2, 3)
    with pytest.raises(ValueError, match="outside"):
        space.index((4, 0))
    with pytest.raises(ValueError, match="mode"):
        ladder_ops(space, 2)


def test_single_mode_lowering_matrix():
    space = FockSpace(1, 2)
    a, adag = ladder_ops(space, 0)
    expected = np.array(
        [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex
    )
    np.testing.assert_allclose(a, expected, atol=1e-15)
    np.testing.assert_allclose(adag, expected.conj().T, atol=1e-15)


def test_canonical_commutators_below_cutoff():
    space = FockSpace(2, 5)
    a1, a1d = ladder_ops(space, 0)
    a2, a2d = ladder_ops(space, 1)
    # [a1, a2^dag] = 0 exactly for distinct modes
    np.testing.assert_allclose(a1 @ a2d - a2d @ a1, 0.0, atol=0.0)
    # [a, a^dag]|n> = |n> for occupations below the cutoff
    comm = a1 @ a1d - a1d @ a1
    for idx in range(space.dim):
        occ = space.occupations(idx)
        if occ[0] < space.cutoff:
            vec = space.basis_vector(occ)
            np.testing.assert_allclose(comm @ vec, vec, atol=1e-14)


def test_tilde_ops_scaling_and_adjoint():
    space = FockSpace(1, 6)
    ms = MetricSpec([0.7])
    a, _ = ladder_ops(space, 0)
    at, atd = tilde_ops(space, ms, 0)
    np.testing.assert_allclose(at, np.exp(-0.7) * a, atol=1e-14)
    np.testing.assert_allclose(atd, np.exp(0.7) * a.conj().T, atol=1e-14)
    eta = np.diag(build_metric(space, ms))
    adj = eta_adjoint(at, eta)
    assert np.linalg.norm(adj - atd) < 1e-12 * (1.0 + np.linalg.norm(atd))
    # gamma = 0 reduces to the bare pair
    at0, atd0 = tilde_ops(space, MetricSpec([0.0]), 0)
    np.testing.assert_allclose(at0, a, atol=0.0)


def test_build_metric_values():
    space = FockSpace(1, 2)
    np.testing.assert_allclose(
        np.diag(build_metric(space, MetricSpec([0.0]))), np.eye(3), atol=0.0
    )
    eta = build_metric(space, MetricSpec([0.5]))
    np.testing.assert_allclose(
        eta, [1.0, np.exp(-1.0), np.exp(-2.0)], atol=1e-15
    )
    assert np.all(build_metric(space, MetricSpec([3.0])) > 0)


def test_build_metric_overflow_guard():
    space = FockSpace(1, 30)
    with pytest.raises(ValueError, match="guard"):
        build_metric(space, MetricSpec([2.5]))


@pytest.mark.parametrize(
    "call",
    [
        # exp(+-800) on the assembled x and y mixing
        pytest.param(lambda: transformed_canonical_ops(FockSpace(2, 4), 800.0),
                     id="transformed_canonical_ops"),
        # the product metric exp(-2 * 400 * Lz)
        pytest.param(lambda: spin_orbit_check(1, 0.5, 400.0, 0.1), id="spin_orbit_check"),
        # past cosh's range too: the metric is refused before the rotated triples are formed
        pytest.param(lambda: spin_orbit_check(1, 0.5, 800.0, 0.1), id="spin_orbit_check-800"),
        # exp(-2 gamma Lz) with the truncated plain-basis Lz, which spans +-4.9 at cutoff 4
        pytest.param(lambda: matrix_element_equivalence(
            FockSpace(2, 4), np.eye(25), 20.0, [((0, 0), (0, 0))]),
            id="matrix_element_equivalence"),
        # cosh and sinh of the complex rotation: Re(beta) is the exponent
        pytest.param(lambda: pseudo_spin_ops(PseudoSpinSite(1.0, 800.0)), id="pseudo_spin_ops"),
        # a NaN exponent is no factor within e^{+-120} either
        pytest.param(lambda: matrix_element_equivalence(
            FockSpace(2, 4), np.eye(25), np.nan, [((0, 0), (0, 0))]),
            id="matrix_element_equivalence-nan"),
    ],
)
def test_entry_points_refuse_an_exponent_past_the_overflow_guard(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow guard"):
            call()


def test_quadratic_form_validation():
    ms = MetricSpec([0.1, 0.2])
    with pytest.raises(ValueError, match=r"alpha\[0\]\[1\]"):
        BosonQuadraticForm([[1.0, 0.5], [0.3, 1.0]], np.zeros((2, 2)), ms)
    with pytest.raises(ValueError, match="2x2"):
        BosonQuadraticForm([[1.0]], np.zeros((2, 2)), ms)
    # frozen: a validated field cannot be swapped for one the constructor would refuse
    form = BosonQuadraticForm(np.eye(2), np.zeros((2, 2)), ms)
    with pytest.raises(AttributeError):
        form.alpha = np.array([[1.0, 0.5], [0.3, 1.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FockSpace(0, 3), "modes must be at least 1, got 0"),
        (lambda: FockSpace(2, 3).index((1,)), "expected 2 occupations, got 1"),
        (lambda: FockSpace(2, 3).occupations(16), r"basis index 16 outside \[0, 16\)"),
        (lambda: build_metric(FockSpace(2, 3), MetricSpec([0.1])),
         "metric has 1 modes but the space has 2"),
        (lambda: schwinger_su2(FockSpace(3, 2), MetricSpec([0.0] * 3)), "exactly two modes"),
        (lambda: total_number_indices(FockSpace(2, 3), -1), "total occupation"),
        (lambda: quadratic_spectrum(SWANSON, [(-1,)]), "occupations must be non-negative"),
        (lambda: BosonQuadraticForm([1.0, 0.0], np.zeros((2, 2)), MetricSpec([0.1, 0.2])),
         r"alpha must be 2x2, got \(2,\)"),
        (lambda: BosonQuadraticForm([[np.nan]], [[0.0]], MetricSpec([0.1])),
         r"alpha must be finite and symmetric: alpha\[0\]\[0\] = nan"),
        (lambda: BosonQuadraticForm(np.eye(2), [[0.0, 1.0], [0.0, np.inf]], MetricSpec([0.1, 0.2])),
         r"beta must be finite and symmetric: beta\[0\]\[1\] = 1, beta\[1\]\[0\] = 0"),
    ],
    ids=["modes", "index-length", "occupations-index", "metric-modes", "su2-modes",
         "total", "levels", "alpha-shape", "alpha-nan", "beta-asymmetric"],
)
def test_each_refusal_names_its_field(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_number_operator_limit():
    # alpha = omega, beta = 0: symmetric ordering gives exactly omega (n + 1/2) for any w
    omega = 1.3
    space = FockSpace(1, 8)
    form = BosonQuadraticForm([[omega]], [[0.0]], MetricSpec([0.4], [0.3]))
    h = build_quadratic_hamiltonian(space, form)
    np.testing.assert_allclose(
        h, omega * (number_op(space, 0) + 0.5 * np.eye(space.dim)), atol=1e-14
    )


def test_hermitian_limit_at_zero_deformation():
    space = FockSpace(2, 4)
    form = BosonQuadraticForm(
        TWO_MODE.alpha, TWO_MODE.beta, MetricSpec([0.0, 0.0])
    )
    h = build_quadratic_hamiltonian(space, form)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


def test_quadratic_hamiltonian_is_pseudo_hermitian():
    space = FockSpace(2, 6)
    h = build_quadratic_hamiltonian(space, TWO_MODE)
    eta = np.diag(build_metric(space, TWO_MODE.metric))
    passed, residual = is_pseudo_hermitian(h, eta)
    assert passed and residual < 1e-12


def test_swanson_spectrum_spacing_and_reality():
    space = FockSpace(1, 40)
    h = build_quadratic_hamiltonian(space, SWANSON)
    lam = spectrum(h).eigenvalues
    assert np.max(np.abs(lam.imag[:10])) < 1e-9
    spacings = np.diff(lam.real[:8])
    np.testing.assert_allclose(spacings, OMEGA_SWANSON, atol=1e-8)


def test_bogoliubov_free_mode_and_swanson():
    free = BosonQuadraticForm([[1.7]], [[0.0]], MetricSpec([0.0]))
    res = bogoliubov_frequencies(free)
    np.testing.assert_allclose(res.omegas, [1.7], atol=1e-14)
    res = bogoliubov_frequencies(SWANSON)
    np.testing.assert_allclose(res.omegas, [OMEGA_SWANSON], atol=1e-12)
    assert res.pairing_residual < 1e-12
    assert res.d_min_eigenvalue == pytest.approx(1.5)  # alpha - beta


def test_bogoliubov_rejects_unstable_form():
    form = BosonQuadraticForm([[1.0]], [[1.5]], MetricSpec([0.2]))
    with pytest.raises(StabilityError) as err:
        bogoliubov_frequencies(form)
    assert err.value.d_min_eigenvalue == pytest.approx(-0.5)


def test_bogoliubov_two_mode_frozen_values():
    res = bogoliubov_frequencies(TWO_MODE)
    np.testing.assert_allclose(res.omegas, [1.34089865, 2.10047395], atol=1e-7)
    assert res.pairing_residual < 1e-10
    assert res.d_min_eigenvalue == pytest.approx(1.1699264745632272, abs=1e-10)


def test_quadratic_spectrum_closed_form():
    np.testing.assert_allclose(
        quadratic_spectrum(SWANSON, [(0,)]), [0.5 * OMEGA_SWANSON], atol=1e-12
    )
    assert quadratic_spectrum(SWANSON, [(0,)])[0] == pytest.approx(0.96825, abs=5e-6)
    res = bogoliubov_frequencies(TWO_MODE)
    np.testing.assert_allclose(
        quadratic_spectrum(TWO_MODE, [(0, 0), (1, 0), (0, 1)]),
        [
            0.5 * res.omegas.sum(),
            1.5 * res.omegas[0] + 0.5 * res.omegas[1],
            0.5 * res.omegas[0] + 1.5 * res.omegas[1],
        ],
        atol=1e-12,
    )
    with pytest.raises(ValueError, match="occupations"):
        quadratic_spectrum(SWANSON, [(0, 0)])


def test_closed_form_matches_dense_lowest_levels():
    space = FockSpace(2, 14)
    h = build_quadratic_hamiltonian(space, TWO_MODE)
    lam = spectrum(h).eigenvalues
    levels = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    exact = np.sort(quadratic_spectrum(TWO_MODE, levels))
    np.testing.assert_allclose(lam.real[:5], exact, atol=1e-6)


def test_hermitian_equivalent_is_real_symmetric():
    from metriq.linops import matrix_sqrt_pd, to_hermitian

    space = FockSpace(1, 12)
    h = build_quadratic_hamiltonian(space, SWANSON)
    eta = np.diag(build_metric(space, SWANSON.metric))
    occ = space.occupation_table()
    u = np.diag(np.exp(-1j * occ @ np.asarray(SWANSON.metric.xis)))
    out = to_hermitian(h, matrix_sqrt_pd(eta), u)
    assert np.linalg.norm(out - out.conj().T) < 1e-12 * np.linalg.norm(out)
    assert np.linalg.norm(out.imag) < 1e-12 * np.linalg.norm(out)


def test_schwinger_su2_algebra():
    space = FockSpace(2, 6)
    ms = MetricSpec([0.4, 0.0])
    jp, jm, jz = schwinger_su2(space, ms)
    eta = np.diag(build_metric(space, ms))
    adj = eta_adjoint(jm, eta)
    assert np.linalg.norm(adj - jp) < 1e-12 * (1.0 + np.linalg.norm(jp))
    # scale factor relative to the undeformed pair: e^{gamma1 - gamma2}
    jp0, _, _ = schwinger_su2(space, MetricSpec([0.0, 0.0]))
    ratio = jp[space.index((1, 0)), space.index((0, 1))] / jp0[
        space.index((1, 0)), space.index((0, 1))
    ]
    assert ratio == pytest.approx(1.49182, abs=1e-5)
    # su(2) commutators on sub-cutoff states
    comm = jp @ jm - jm @ jp - 2.0 * jz
    commz = jz @ jp - jp @ jz - jp
    for idx in range(space.dim):
        occ = space.occupations(idx)
        if sum(occ) < space.cutoff:
            vec = space.basis_vector(occ)
            assert np.linalg.norm(comm @ vec) < 1e-13
            assert np.linalg.norm(commz @ vec) < 1e-13


def test_lmg_limits_and_sector_isospectrality():
    space = FockSpace(2, 8)
    plain = build_lmg(space, MetricSpec([0.0, 0.0]), 1.0, 0.3)
    np.testing.assert_allclose(plain, plain.conj().T, atol=1e-13)

    # omega = 0: diagonal with j_z values
    diag = build_lmg(space, MetricSpec([0.2, -0.1]), 2.0, 0.0)
    occ = space.occupation_table()
    np.testing.assert_allclose(
        np.diag(diag).real, 2.0 * 0.5 * (occ[:, 0] - occ[:, 1]), atol=1e-14
    )

    deformed = build_lmg(space, MetricSpec([0.4, -0.2]), 1.0, 0.3)
    for total in range(space.cutoff + 1):
        sector = total_number_indices(space, total)
        lam_p = np.sort(np.linalg.eigvals(plain[np.ix_(sector, sector)]).real)
        lam_d = np.sort(np.linalg.eigvals(deformed[np.ix_(sector, sector)]).real)
        np.testing.assert_allclose(lam_d, lam_p, atol=1e-10)


def test_lmg_guards_only_the_terms_truncation_keeps():
    # J+-^2 has no entry at cutoff 1, so its exponent 2 * (35 + 35) = 140 is
    # never taken; the metric's own exponent is 70, within the guard
    space = FockSpace(2, 1)
    metric = MetricSpec([35.0, -35.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = build_lmg(space, metric, 1.0, 0.4)
        w = build_metric(space, metric)
    occ = space.occupation_table()
    np.testing.assert_array_equal(h, np.diag(0.5 * (occ[:, 0] - occ[:, 1])))
    assert pseudo_hermiticity_entrywise(h, w) == 0.0
    # run_suite reads the identity off F, whose entries do not grow with kappa = e^140
    (check,) = run_suite(h, w, checks=["pseudo_hermiticity"]).checks
    assert check.passed and check.residual == 0.0


def kron_lowering(space, mode):
    """Reference lowering matrix of one mode, kron-embedded (mode 0 least significant)."""
    d = space.cutoff + 1
    ns = np.arange(1, d)
    a = np.zeros((d, d), dtype=complex)
    a[ns - 1, ns] = np.sqrt(ns)
    return np.kron(np.eye(d ** (space.modes - 1 - mode)), np.kron(a, np.eye(d**mode)))


def reference_quadratic(space, form):
    ws = form.metric.ws
    low = [kron_lowering(space, k) for k in range(space.modes)]
    up = [a.conj().T for a in low]
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(space.modes):
        for j in range(space.modes):
            h += 0.5 * form.alpha[i, j] * (
                np.exp(ws[i] - ws[j]) * up[i] @ low[j] + np.exp(ws[j] - ws[i]) * up[j] @ low[i]
            )
            h += 0.5 * form.beta[i, j] * (
                np.exp(-(ws[i] + ws[j])) * low[i] @ low[j] + np.exp(ws[i] + ws[j]) * up[i] @ up[j]
            )
    return h + 0.5 * np.trace(form.alpha) * np.eye(space.dim)


def reference_su2(space, metric):
    g1, g2 = metric.gammas
    a1, a2 = kron_lowering(space, 0), kron_lowering(space, 1)
    jp = np.exp(g1 - g2) * a1.conj().T @ a2
    jm = np.exp(g2 - g1) * a2.conj().T @ a1
    occ = space.occupation_table()
    return jp, jm, np.diag(0.5 * (occ[:, 0] - occ[:, 1]).astype(complex))


def reference_cartesian(space):
    ap, am = kron_lowering(space, 0), kron_lowering(space, 1)
    a1 = (ap + am) / np.sqrt(2.0)
    a2 = 1j * (ap - am) / np.sqrt(2.0)
    x = (a1 + a1.conj().T) / np.sqrt(2.0)
    y = (a2 + a2.conj().T) / np.sqrt(2.0)
    px = 1j * (a1.conj().T - a1) / np.sqrt(2.0)
    py = 1j * (a2.conj().T - a2) / np.sqrt(2.0)
    return x, y, px, py


def reference_xy(params, space):
    f = complex_frequencies(params)
    x, y, px, py = reference_cartesian(space)
    kinetic = (px @ px + py @ py) / (2.0 * params.m)
    return kinetic + 0.5 * (
        f.m_w1_sq * x @ x + f.m_w2_sq * y @ y + f.m_w3_sq * 0.5 * (x @ y + y @ x)
    )


def test_boson_assembly_matches_kron_reference():
    def close(h, ref):
        tol = 1e-14 * (1.0 + np.abs(ref).max())
        np.testing.assert_allclose(h, ref, rtol=0, atol=tol)

    rng = np.random.default_rng(6)
    space = FockSpace(3, 4)
    for k in range(space.modes):
        a, adag = ladder_ops(space, k)
        close(a, kron_lowering(space, k))
        close(adag, kron_lowering(space, k).conj().T)
    alpha, beta = rng.normal(size=(2, 3, 3))
    metric = MetricSpec(rng.normal(size=3) * 0.3, rng.normal(size=3) * 0.3)
    form = BosonQuadraticForm(alpha + alpha.T, beta + beta.T, metric)
    close(build_quadratic_hamiltonian(space, form), reference_quadratic(space, form))
    space = FockSpace(2, 6)
    metric = MetricSpec([0.3, -0.2], [0.1, 0.25])
    ref = reference_su2(space, metric)
    for op, r in zip(schwinger_su2(space, metric), ref):
        close(op, r)
    jp, jm, jz = ref
    close(build_lmg(space, metric, 1.1, 0.4), 1.1 * jz + 0.4 * (jm @ jm + jp @ jp))
    for op, r in zip(cartesian_operators(space), reference_cartesian(space)):
        close(op, r)
    for params in (
        OscillatorParams(1.0, 1.0, 0.0, gamma=0.2, xi=0.1),
        OscillatorParams(2.0, 1.0, 1.0, m=1.3, gamma=-0.3, xi=0.4),
    ):
        close(build_xy_hamiltonian(params, space), reference_xy(params, space))


def test_boson_builders_reach_the_dim_cap():
    three = BosonQuadraticForm(
        np.diag([2.0, 1.5, 1.2]) + 0.2 * (1 - np.eye(3)),
        0.3 * np.eye(3) + 0.1 * (1 - np.eye(3)),
        MetricSpec([0.3, -0.2, 0.1], [0.1, 0.2, -0.3]),
    )
    metric = MetricSpec([0.3, -0.2], [0.1, 0.25])
    params = OscillatorParams(2.0, 1.0, 1.0, gamma=0.3, xi=0.1)
    cases = [
        (FockSpace(2, 63), lambda s: build_quadratic_hamiltonian(s, TWO_MODE), TWO_MODE.metric),
        (FockSpace(3, 15), lambda s: build_quadratic_hamiltonian(s, three), three.metric),
        (FockSpace(2, 63), lambda s: build_lmg(s, metric, 1.0, 0.4), metric),
        (FockSpace(2, 63), lambda s: build_xy_hamiltonian(params, s), None),
    ]
    for space, build, ms in cases:
        assert space.dim == 4096
        w = oscillator_metric(params, space) if ms is None else build_metric(space, ms)
        assert pseudo_hermiticity_entrywise(build(space), w) < 1e-12


def deformation_case(name):
    """Deformed operators, their ``w = 0`` builds, the charge table ``Q`` and ``ws``.

    ``Q`` and ``ws`` are those the model's CLI builder passes to ``similarity``.
    """
    space = FockSpace(2, 6)
    occ = space.occupation_table()
    ms, flat = TWO_MODE.metric, MetricSpec([0.0, 0.0])
    rng = np.random.default_rng(9)
    n = 4
    sites = MetricSpec(rng.normal(size=n) * 0.3, rng.normal(size=n) * 0.3)
    spins = 0.5 - site_occupations(n)
    if name == "bosonQuadratic":
        forms = (TWO_MODE, BosonQuadraticForm(TWO_MODE.alpha, TWO_MODE.beta, flat))
        return *([build_quadratic_hamiltonian(space, f)] for f in forms), occ, ms.ws
    if name == "lmg":  # H reads the real gammas only
        real = MetricSpec(ms.gammas)
        return [build_lmg(space, real, 1.1, 0.4)], [build_lmg(space, flat, 1.1, 0.4)], occ, real.ws
    if name == "fermionQuadratic":
        hop, pair = rng.normal(size=(2, n, n))
        spec = FermionQuadraticSpec(hop + hop.T, pair - pair.T, sites)
        h, h0 = (build_fermion_quadratic(spec, deformed=d) for d in (True, False))
        return [h], [h0], site_occupations(n), sites.ws
    if name == "xxzAsymmetric":
        fields = (tuple(rng.normal(size=n)) for _ in range(3))
        spec = SpinChainSpec(n, 0.7, 0.4, *fields, ws=tuple(sites.ws))
        return [build_xxz_asymmetric(spec)], [hermitian_counterpart(spec)], spins, sites.ws
    if name == "haldaneShastry":
        h, h0 = (build_haldane_shastry(n, m) for m in (sites, MetricSpec([0.0] * n)))
        return [h], [h0], spins, sites.ws
    lz = angular_momentum_diag(space)[:, None]
    w = 0.3 + 0.2j
    if name == "oscillator2d":
        deformed = OscillatorParams(2.0, 1.0, 1.0, m=1.3, gamma=w.real, xi=w.imag)
        bare = OscillatorParams(2.0, 1.0, 1.0, m=1.3)
        return *([build_xy_hamiltonian(p, space)] for p in (deformed, bare)), lz, [w]
    if name == "tilde_ops":
        tilde = [op for k in (0, 1) for op in tilde_ops(space, ms, k)]
        plain = [op for k in (0, 1) for op in ladder_ops(space, k)]
        return tilde, plain, occ, ms.gammas
    assert name == "transformed_canonical_ops"
    return transformed_canonical_ops(space, w)[:4], cartesian_operators(space), lz, [w]


@pytest.mark.parametrize(
    "name",
    [
        "bosonQuadratic",
        "lmg",
        "fermionQuadratic",
        "xxzAsymmetric",
        "haldaneShastry",
        "oscillator2d",
        "tilde_ops",
        "transformed_canonical_ops",
    ],
)
def test_every_deformation_is_the_similarity_of_the_hermitian_build(name):
    # one rule: the deformed operator is s H_0 s^{-1} with s = exp(Q w)
    ops, bare, q, ws = deformation_case(name)
    s = np.exp(q @ np.asarray(ws))
    for op, op0 in zip(ops, bare, strict=True):
        tol = 1e-14 * (1.0 + np.abs(op).max())
        np.testing.assert_allclose(op, s[:, None] * op0 / s, rtol=0, atol=tol)
