"""Spin-1/2 chains, pseudo-spin triples, lattice fermions, presets."""
import numpy as np
import pytest

from metriq.linops import (
    anticommutator,
    is_pseudo_hermitian,
    matrix_sqrt_pd,
    spectrum,
)
from metriq.spinchain import (
    MAX_SITES,
    FermionQuadraticSpec,
    MetricSpec,
    PseudoSpinSite,
    SpinChainSpec,
    build_fermion_quadratic,
    build_haldane_shastry,
    build_xxz_asymmetric,
    build_xxz_symmetric,
    build_zeta_metric,
    chain_unitary,
    fermion_metric,
    fermion_ops,
    gradient_ws,
    hermitian_counterpart,
    pseudo_spin_ops,
    site_spin_ops,
    spin_matrices,
    spin_orbit_check,
    suq2_limit,
)


def random_chain_spec(rng, n, scale=0.3):
    return SpinChainSpec(
        n_sites=n,
        gamma_exchange=float(rng.normal()),
        delta=float(rng.normal()),
        fields_a=tuple(rng.normal(size=n) * scale),
        fields_b=tuple(rng.normal(size=n) * scale),
        fields_c=tuple(rng.normal(size=n) * scale),
        ws=tuple(rng.normal(size=n) * scale + 1j * rng.normal(size=n) * scale),
    )


def random_quadratic_spec(rng, n, scale=0.3):
    hop = rng.normal(size=(n, n))
    pair = rng.normal(size=(n, n))
    metric = MetricSpec(rng.normal(size=n) * scale, rng.normal(size=n) * scale)
    return FermionQuadraticSpec(hop + hop.T, pair - pair.T, metric)


def kron_site(op, site, n):
    """Reference embedding of a one-site operator; site 0 is the most significant factor."""
    return np.kron(np.eye(2**site), np.kron(op, np.eye(2 ** (n - 1 - site))))


def kron_site_spin_ops(n, site):
    return tuple(kron_site(op, site, n) for op in spin_matrices(0.5))


def kron_fermion_ops(n, site):
    """Reference Jordan-Wigner pair: a ``diag(1, -1)`` string on the earlier sites."""
    c = np.eye(1, dtype=complex)
    for k in range(n):
        if k < site:
            c = np.kron(c, np.diag([1.0, -1.0]))
        else:
            c = np.kron(c, [[0.0, 1.0], [0.0, 0.0]] if k == site else np.eye(2))
    return c, c.conj().T


@pytest.mark.parametrize("n", range(1, 7))
def test_site_operators_match_the_kron_builders(n):
    for site in range(n):
        for got, ref in zip(site_spin_ops(n, site), kron_site_spin_ops(n, site)):
            assert np.array_equal(got, ref)
        for got, ref in zip(fermion_ops(n, site), kron_fermion_ops(n, site)):
            assert np.array_equal(got, ref)


def reference_xxz(spec, deformed=True):
    """XXZ chain summed from the kron-embedded site operators."""
    n = spec.n_sites
    ws = np.asarray(spec.ws) if deformed else np.zeros(n, dtype=complex)
    ops = [kron_site_spin_ops(n, i) for i in range(n)]
    pm = [(sx + 1j * sy, sx - 1j * sy) for sx, sy, _ in ops]
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n - 1):
        (spi, smi), (spj, smj) = pm[i], pm[i + 1]
        dw = ws[i] - ws[i + 1]
        h += spec.gamma_exchange * (np.exp(dw) * spi @ smj + np.exp(-dw) * smi @ spj)
        h += spec.delta * ops[i][2] @ ops[i + 1][2]
    for i, (sx, sy, sz) in enumerate(ops):
        a, b, c = spec.fields_a[i], spec.fields_b[i], spec.fields_c[i]
        cw, sw = np.cosh(ws[i]), np.sinh(ws[i])
        h += (a * cw - 1j * b * sw) * sx + (b * cw + 1j * a * sw) * sy + c * sz
    return h


def reference_haldane_shastry(n, metric, sign):
    ws = metric.ws
    ops = [kron_site_spin_ops(n, i) for i in range(n)]
    pm = [(sx + 1j * sy, sx - 1j * sy) for sx, sy, _ in ops]
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            (spi, smi), (spj, smj) = pm[i], pm[j]
            tij = (
                0.5 * np.exp(ws[i] - ws[j]) * spi @ smj
                + 0.5 * np.exp(ws[j] - ws[i]) * smi @ spj
                + ops[i][2] @ ops[j][2]
            )
            h += sign * tij / (2.0 * np.sin(np.pi * (i - j) / n) ** 2)
    return h


def reference_fermion_quadratic(spec):
    n = spec.n_sites
    ws = np.asarray(spec.metric.ws)
    ops = [kron_fermion_ops(n, i) for i in range(n)]
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i, (ci, cid) in enumerate(ops):
        for j, (cj, cjd) in enumerate(ops):
            h += spec.hopping[i, j] * np.exp(ws[i] - ws[j]) * cid @ cj
            h += 0.5 * spec.pairing[i, j] * (
                np.exp(ws[i] + ws[j]) * cid @ cjd + np.exp(-(ws[i] + ws[j])) * cj @ ci
            )
    return h


@pytest.mark.parametrize("n", range(1, 7))
def test_assembly_matches_kron_reference(n):
    rng = np.random.default_rng(10 + n)
    spec = random_chain_spec(rng, n)
    # S^+- of a transverse field carry (a -+ ib) e^{+-w} / 2; the reference mixes cosh and sinh
    h = build_xxz_asymmetric(spec)
    tol = 1e-14 * (1.0 + np.abs(h).max())
    np.testing.assert_allclose(h, reference_xxz(spec), rtol=0, atol=tol)
    assert np.array_equal(hermitian_counterpart(spec), reference_xxz(spec, False))
    # bonds, Ising terms and fields_c are bitwise those of the reference
    ising = SpinChainSpec(
        n, spec.gamma_exchange, spec.delta, fields_c=spec.fields_c, ws=spec.ws
    )
    assert np.array_equal(build_xxz_asymmetric(ising), reference_xxz(ising))
    assert np.array_equal(hermitian_counterpart(ising), reference_xxz(ising, False))
    fq = random_quadratic_spec(rng, n)
    h = build_fermion_quadratic(fq)
    tol = 1e-14 * (1.0 + np.abs(h).max())
    np.testing.assert_allclose(h, reference_fermion_quadratic(fq), rtol=0, atol=tol)
    if n < 2:
        return
    metric = MetricSpec(rng.normal(size=n) * 0.3, rng.normal(size=n) * 0.3)
    for sign in (1, -1):
        h = build_haldane_shastry(n, metric, sign)
        tol = 1e-14 * (1.0 + np.abs(h).max())
        ref = reference_haldane_shastry(n, metric, sign)
        np.testing.assert_allclose(h, ref, rtol=0, atol=tol)


def pseudo_hermiticity_entrywise(h, w, rows=512):
    """max |H^dag eta - eta H| / (1 + max |eta H|) for eta = diag(w), by row blocks."""
    worst = scale = 0.0
    for r in range(0, len(w), rows):
        lhs = h[:, r : r + rows].conj().T * w
        rhs = w[r : r + rows, None] * h[r : r + rows]
        worst = max(worst, np.abs(lhs - rhs).max())
        scale = max(scale, np.abs(rhs).max())
    return worst / (1.0 + scale)


def test_builders_reach_the_site_cap():
    n = MAX_SITES
    rng = np.random.default_rng(12)
    spec = random_chain_spec(rng, n)
    w = build_zeta_metric(spec).real.copy()
    assert pseudo_hermiticity_entrywise(build_xxz_asymmetric(spec), w) < 1e-12
    metric = MetricSpec(spec.gammas, spec.xis)
    assert pseudo_hermiticity_entrywise(build_haldane_shastry(n, metric), w) < 1e-12
    fq = random_quadratic_spec(rng, n)
    w = fermion_metric(fq).real.copy()
    assert pseudo_hermiticity_entrywise(build_fermion_quadratic(fq), w) < 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PseudoSpinSite(0.7, 0.1), "j must be a positive half-integer"),
        (lambda: PseudoSpinSite(0.5, complex(np.inf, 0.0)), "beta must be finite"),
        (lambda: SpinChainSpec(2, fields_b=(0.1, np.nan)), "fields_b contains non-finite"),
        (lambda: SpinChainSpec(2, delta=np.inf), "gamma_exchange and delta must be finite"),
        (lambda: build_haldane_shastry(3, MetricSpec([0.0] * 3), sign=2),
         r"sign must be \+1 or -1"),
        (lambda: build_haldane_shastry(3, MetricSpec([0.0] * 2)),
         "metric has 2 sites but the chain has 3"),
        (lambda: suq2_limit(1, 0.3), "the boundary-field preset needs at least two sites"),
        (lambda: suq2_limit(3, np.nan), "q must be finite"),
        (lambda: FermionQuadraticSpec([[0.7, np.inf], [np.inf, 0.7]], np.zeros((2, 2)),
                                      MetricSpec([0.1, 0.2])),
         r"hopping must be finite and symmetric: hopping\[0\]\[1\] = inf"),
        (lambda: FermionQuadraticSpec(np.eye(2), [[0.0, 0.5], [0.5, 0.0]], MetricSpec([0.1, 0.2])),
         r"pairing must be finite and antisymmetric: pairing\[0\]\[1\] = 0.5, "
         r"pairing\[1\]\[0\] = 0.5"),
    ],
    ids=["j", "beta", "fields", "couplings", "ring-sign", "ring-metric", "suq2-sites",
         "suq2-q", "hopping-inf", "pairing-symmetric"],
)
def test_each_refusal_names_its_field(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_site_spin_ops_basics():
    sx, sy, sz = site_spin_ops(1, 0)
    np.testing.assert_allclose(sz, np.diag([0.5, -0.5]), atol=0.0)
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=0.0)
    # operators on different sites commute exactly
    sx1, _, _ = site_spin_ops(2, 0)
    _, sy2, _ = site_spin_ops(2, 1)
    np.testing.assert_allclose(sx1 @ sy2 - sy2 @ sx1, 0.0, atol=0.0)
    with pytest.raises(ValueError):
        site_spin_ops(2, 2)


def test_spin_matrices_higher_j():
    sx, sy, sz = spin_matrices(1.0)
    np.testing.assert_allclose(np.diag(sz), [1.0, 0.0, -1.0], atol=0.0)
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-15)
    with pytest.raises(ValueError):
        spin_matrices(0.7)


def test_pseudo_spin_ops_reduce_at_zero():
    tx, ty, tz = pseudo_spin_ops(PseudoSpinSite(j=0.5, beta=0.0))
    sx, sy, sz = spin_matrices(0.5)
    np.testing.assert_allclose(tx, sx, atol=0.0)
    np.testing.assert_allclose(ty, sy, atol=0.0)
    np.testing.assert_allclose(tz, sz, atol=0.0)


def test_pseudo_spin_casimir_and_algebra():
    tx, ty, tz = pseudo_spin_ops(PseudoSpinSite(j=1.0, beta=0.4 + 0.1j))
    sx, sy, sz = spin_matrices(1.0)
    casimir = tx @ tx + ty @ ty + tz @ tz
    target = sx @ sx + sy @ sy + sz @ sz
    assert np.linalg.norm(casimir - target) < 1e-13
    np.testing.assert_allclose(tx @ ty - ty @ tx, 1j * tz, atol=1e-14)


def test_pseudo_spin_metric_hermiticity():
    delta = 0.4
    tx, ty, tz = pseudo_spin_ops(PseudoSpinSite(j=0.5, beta=delta))
    sz_diag = np.diag(spin_matrices(0.5)[2]).real
    zeta = np.diag(np.exp(-2.0 * delta * sz_diag).astype(complex))
    for t in (tx, ty, tz):
        passed, residual = is_pseudo_hermitian(t, zeta)
        assert passed and residual < 1e-12


def test_zeta_metric_values():
    np.testing.assert_allclose(
        np.diag(build_zeta_metric(SpinChainSpec(n_sites=2))), np.eye(4), atol=0.0
    )
    eta = build_zeta_metric(SpinChainSpec(n_sites=1, ws=(0.5,)))
    np.testing.assert_allclose(
        eta, [np.exp(-0.5), np.exp(0.5)], atol=1e-15
    )
    rng = np.random.default_rng(0)
    eta = build_zeta_metric(random_chain_spec(rng, 4))
    assert np.all(eta.real > 0)


def test_xx_two_site_spectrum():
    lam = spectrum(build_xxz_asymmetric(SpinChainSpec(n_sites=2))).eigenvalues
    np.testing.assert_allclose(lam.real, [-1.0, 0.0, 0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(lam.imag, 0.0, atol=1e-14)
    # a real hopping bias leaves the spectrum untouched
    lam2 = spectrum(
        build_xxz_asymmetric(SpinChainSpec(n_sites=2, ws=(0.6, 0.0)))
    ).eigenvalues
    np.testing.assert_allclose(lam2, lam, atol=1e-12)


def test_gradient_preset_gives_uniform_weights():
    # gamma_k = gamma - k*phi: every bond carries the same e^{+-phi}
    n, phi = 4, 0.35
    ws = gradient_ws(n, 0.2, phi)
    np.testing.assert_allclose(
        np.diff([w.real for w in ws]), -phi, atol=1e-15
    )
    spec = SpinChainSpec(n_sites=n, gamma_exchange=0.9, delta=0.4, ws=ws)
    h = build_xxz_asymmetric(spec)
    expected = np.zeros_like(h)
    for i in range(n - 1):
        sxi, syi, szi = site_spin_ops(n, i)
        sxj, syj, szj = site_spin_ops(n, i + 1)
        sp_i, sm_i = sxi + 1j * syi, sxi - 1j * syi
        sp_j, sm_j = sxj + 1j * syj, sxj - 1j * syj
        expected += 0.9 * (
            np.exp(phi) * sp_i @ sm_j + np.exp(-phi) * sm_i @ sp_j
        )
        expected += 0.4 * szi @ szj
    np.testing.assert_allclose(h, expected, atol=1e-14)


def test_asymmetric_chain_is_pseudo_hermitian():
    rng = np.random.default_rng(1)
    spec = random_chain_spec(rng, 5)
    h = build_xxz_asymmetric(spec)
    eta = np.diag(build_zeta_metric(spec))
    passed, residual = is_pseudo_hermitian(h, eta)
    assert passed and residual < 1e-12


def test_isospectrality_with_hermitian_counterpart():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5, 6):
        spec = random_chain_spec(rng, n)
        lam_a = spectrum(build_xxz_asymmetric(spec)).eigenvalues
        h = hermitian_counterpart(spec)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
        lam_h = spectrum(h).eigenvalues
        np.testing.assert_allclose(lam_a, lam_h, atol=1e-10)
        assert np.max(np.abs(lam_a.imag)) < 1e-9


def test_conjugation_reproduces_counterpart():
    rng = np.random.default_rng(3)
    spec = random_chain_spec(rng, 3)
    h_a = build_xxz_asymmetric(spec)
    space = matrix_sqrt_pd(np.diag(build_zeta_metric(spec)))
    u = np.diag(chain_unitary(spec))
    left = u @ space.rho
    conj = left @ h_a @ np.linalg.inv(left)
    assert np.linalg.norm(conj - hermitian_counterpart(spec)) < 1e-12


def test_counterpart_trivial_and_ising_limits():
    spec = SpinChainSpec(n_sites=3, delta=0.7, fields_a=(0.2, 0.3, 0.4))
    np.testing.assert_allclose(
        hermitian_counterpart(spec), build_xxz_asymmetric(spec), atol=0.0
    )
    # Gamma = B = C = 0 with uniform A: transverse-field Ising form
    a = 0.6
    spec = SpinChainSpec(
        n_sites=3,
        gamma_exchange=0.0,
        delta=0.5,
        fields_a=(a, a, a),
        ws=(0.3, 0.1, -0.2),
    )
    h = hermitian_counterpart(spec)
    expected = np.zeros_like(h)
    for i in range(2):
        expected += 0.5 * site_spin_ops(3, i)[2] @ site_spin_ops(3, i + 1)[2]
    for i in range(3):
        expected += a * site_spin_ops(3, i)[0]
    np.testing.assert_allclose(h, expected, atol=1e-14)


def test_symmetric_chain():
    with pytest.raises(ValueError, match="equal"):
        build_xxz_symmetric(SpinChainSpec(n_sites=2, ws=(0.1, 0.2)))
    # A = B = 0: hermitian for any uniform w
    spec = SpinChainSpec(n_sites=3, delta=0.5, ws=(0.4, 0.4, 0.4))
    h = build_xxz_symmetric(spec)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
    # fields switch the non-hermiticity on, spectrum stays real
    spec = SpinChainSpec(
        n_sites=2, delta=0.5, fields_a=(1.0, 1.0), ws=(0.4, 0.4)
    )
    h = build_xxz_symmetric(spec)
    assert np.linalg.norm(h - h.conj().T) > 0.1
    lam = spectrum(h).eigenvalues
    assert np.max(np.abs(lam.imag)) < 1e-12
    np.testing.assert_allclose(
        lam, spectrum(hermitian_counterpart(spec)).eigenvalues, atol=1e-10
    )


def test_haldane_shastry_two_sites():
    h = build_haldane_shastry(2, MetricSpec([0.0, 0.0]))
    lam = spectrum(h).eigenvalues
    np.testing.assert_allclose(
        lam.real, [-0.375, 0.125, 0.125, 0.125], atol=1e-14
    )
    # sign flip negates
    h_neg = build_haldane_shastry(2, MetricSpec([0.0, 0.0]), sign=-1)
    np.testing.assert_allclose(h_neg, -h, atol=0.0)


def test_haldane_shastry_deformation_is_isospectral():
    rng = np.random.default_rng(4)
    for n in (3, 4, 5):
        gammas = rng.normal(size=n) * 0.3
        xis = rng.normal(size=n) * 0.3
        lam_0 = spectrum(
            build_haldane_shastry(n, MetricSpec([0.0] * n))
        ).eigenvalues
        lam_w = spectrum(
            build_haldane_shastry(n, MetricSpec(gammas, xis))
        ).eigenvalues
        np.testing.assert_allclose(lam_w, lam_0, atol=1e-10)


def test_fermion_ops_algebra():
    c, cdag = fermion_ops(1, 0)
    np.testing.assert_allclose(c, [[0, 1], [0, 0]], atol=0.0)
    n = 3
    ops = [fermion_ops(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            ci, cid = ops[i]
            cj, cjd = ops[j]
            want = np.eye(2**n) if i == j else np.zeros((2**n, 2**n))
            np.testing.assert_allclose(anticommutator(ci, cjd), want, atol=0.0)
            np.testing.assert_allclose(anticommutator(ci, cj), 0.0, atol=0.0)
    # nilpotency
    np.testing.assert_allclose(ops[1][1] @ ops[1][1], 0.0, atol=0.0)


def test_fermion_quadratic_single_level():
    spec = FermionQuadraticSpec([[0.7]], [[0.0]], MetricSpec([0.3]))
    lam = spectrum(build_fermion_quadratic(spec)).eigenvalues
    np.testing.assert_allclose(lam.real, [0.0, 0.7], atol=1e-14)
    with pytest.raises(ValueError, match="antisymmetric"):
        FermionQuadraticSpec([[0.7]], [[0.5]], MetricSpec([0.3]))


def test_fermion_quadratic_fixture_isospectral():
    hopping = [[1.0, 0.3], [0.3, 0.8]]
    pairing = [[0.0, 0.2], [-0.2, 0.0]]
    spec = FermionQuadraticSpec(hopping, pairing, MetricSpec([0.4, -0.1]))
    h = build_fermion_quadratic(spec)
    eta = np.diag(fermion_metric(spec))
    passed, residual = is_pseudo_hermitian(h, eta)
    assert passed and residual < 1e-12
    lam = spectrum(h).eigenvalues
    assert np.max(np.abs(lam.imag)) < 1e-12
    plain = FermionQuadraticSpec(hopping, pairing, MetricSpec([0.0, 0.0]))
    lam_0 = spectrum(build_fermion_quadratic(plain)).eigenvalues
    np.testing.assert_allclose(lam, lam_0, atol=1e-10)
    # undeformed build is hermitian
    h0 = build_fermion_quadratic(plain)
    np.testing.assert_allclose(h0, h0.conj().T, atol=1e-14)


def test_suq2_preset():
    spec = suq2_limit(4, 0.0)
    assert spec.delta == 1.0
    assert spec.fields_c == (0.0, 0.0, 0.0, 0.0)
    spec = suq2_limit(4, 0.5)
    assert spec.delta == pytest.approx(1.1276259652063807)
    assert spec.fields_c[0] == pytest.approx(-0.5210953054937474)
    assert spec.fields_c[-1] == pytest.approx(0.5210953054937474)
    assert spec.fields_c[1] == spec.fields_c[2] == 0.0
    # deformations leave the preset spectrum alone
    lam_0 = spectrum(build_xxz_asymmetric(spec)).eigenvalues
    deformed = suq2_limit(4, 0.5, ws=gradient_ws(4, 0.3, 0.2, 0.1))
    lam_w = spectrum(build_xxz_asymmetric(deformed)).eigenvalues
    np.testing.assert_allclose(lam_w, lam_0, atol=1e-10)


def test_spin_orbit_residuals():
    assert spin_orbit_check(1.0, 0.5, 0.0, 0.0) == 0.0
    assert spin_orbit_check(1.0, 0.5, 0.3, 0.3, 0.1, 0.1) < 1e-12
    assert spin_orbit_check(1.0, 0.5, 0.3, 0.7) < 1e-12


def test_chain_size_guard():
    with pytest.raises(ValueError, match="12"):
        SpinChainSpec(n_sites=13)
