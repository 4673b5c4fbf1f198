"""Metric algebra: adjoints, square roots, spectra, evolution."""
import numpy as np
import pytest

from metriq.linops import (
    DefectiveMatrixError,
    MetricSpec,
    NotHermitianError,
    NotPositiveDefiniteError,
    SingularMetricError,
    as_operator,
    as_state,
    commutator,
    eigenvalues,
    eta_adjoint,
    evolve,
    is_pseudo_hermitian,
    map_observable,
    matrix_sqrt_pd,
    modified_inner,
    spectrum,
    to_hermitian,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def random_metric(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g.conj().T @ g + np.eye(dim)


def test_metric_spec_defaults_and_ws():
    ms = MetricSpec([0.3, -0.2], [0.1, 0.25])
    assert ms.n == 2
    np.testing.assert_allclose(ms.ws, [0.3 + 0.1j, -0.2 + 0.25j])
    # xis default to zero
    np.testing.assert_allclose(MetricSpec([0.5]).ws, [0.5 + 0.0j])


def test_metric_spec_rejects_bad_input():
    with pytest.raises(ValueError, match="length"):
        MetricSpec([0.1, 0.2], [0.3])
    with pytest.raises(ValueError):
        MetricSpec([])
    with pytest.raises(ValueError, match="finite"):
        MetricSpec([np.inf])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: as_operator(np.zeros((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
        (lambda: as_operator(np.zeros((0, 0))), "operator dimension must be positive"),
        (lambda: as_operator([[np.inf]]), "operator must be finite"),
        (lambda: as_state(np.zeros((2, 2))), "expected a 1-D state vector"),
        (lambda: as_state(np.zeros(3), 2), "state has length 3, operator expects 2"),
        (lambda: as_state([1.0, np.nan]), "state must be finite"),
        (lambda: spectrum(np.diag([1.0, 2.0])).evolve([1.0, 0.0], [[0.0, 1.0]]),
         "times must be a 1-D sequence"),
        (lambda: spectrum(np.diag([1.0, 2.0])).evolve([1.0, 0.0], [0.0, np.inf]),
         "times must be finite"),
        (lambda: MetricSpec([np.nan]), "gammas must be finite"),
        (lambda: MetricSpec([0.1], [np.inf]), "xis must be finite"),
    ],
    ids=["operator-shape", "operator-empty", "operator-inf", "state-shape", "state-length",
         "state-nan", "times-shape", "times-inf", "gammas-nan", "xis-inf"],
)
def test_each_refusal_names_its_field(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_eta_adjoint_identity_metric_is_dagger():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_allclose(eta_adjoint(a, np.eye(4)), a.conj().T, atol=1e-14)


def test_eta_adjoint_weighted_unit_matrix():
    # eta = diag(e^{-1}, 1): the (1,2) unit matrix maps to e^{-1} E21
    eta = np.diag([np.exp(-1.0), 1.0])
    expected = np.exp(-1.0) * E12.T
    np.testing.assert_allclose(eta_adjoint(E12, eta), expected, atol=1e-15)


def test_eta_adjoint_fixes_commuting_hermitian():
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    eta = np.diag([0.5, 1.0, 2.0])
    np.testing.assert_allclose(eta_adjoint(a, eta), a, atol=1e-15)


def test_eta_adjoint_is_involution():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        eta = random_metric(rng, 6)
        twice = eta_adjoint(eta_adjoint(a, eta), eta)
        assert np.linalg.norm(twice - a) <= 1e-12 * (1.0 + np.linalg.norm(a))


def test_eta_adjoint_error_cases():
    with pytest.raises(ValueError, match="dimension mismatch"):
        eta_adjoint(np.eye(3), np.eye(2))
    with pytest.raises(NotHermitianError):
        eta_adjoint(np.eye(2), E12 + np.eye(2))
    with pytest.raises(SingularMetricError):
        eta_adjoint(np.eye(2), np.diag([1.0, 1e-15]))


def test_is_pseudo_hermitian_cases():
    passed, residual = is_pseudo_hermitian(np.diag([1.0, 2.0]), np.eye(2))
    assert passed and residual == 0.0

    gamma = 0.3
    a = np.exp(gamma) * E12 + np.exp(-gamma) * E12.T
    eta = np.diag([np.exp(-2 * gamma), 1.0])
    passed, residual = is_pseudo_hermitian(a, eta)
    assert passed and residual < 1e-15

    passed, residual = is_pseudo_hermitian(E12, np.eye(2))
    assert not passed and residual > 0.1


def test_matrix_sqrt_pd_diagonal_cases():
    space = matrix_sqrt_pd(np.eye(3))
    np.testing.assert_allclose(space.rho, np.eye(3), atol=1e-14)
    space = matrix_sqrt_pd(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(space.rho, np.diag([2.0, 3.0]), atol=1e-14)


def test_matrix_sqrt_pd_random_residual():
    rng = np.random.default_rng(2)
    eta = random_metric(rng, 8)
    space = matrix_sqrt_pd(eta)
    reside = np.linalg.norm(space.rho @ space.rho - eta) / np.linalg.norm(eta)
    assert reside < 1e-12
    # rho hermitian PD and rho_inverse actually inverts it
    np.testing.assert_allclose(space.rho, space.rho.conj().T, atol=1e-13)
    assert np.linalg.eigvalsh(space.rho)[0] > 0
    np.testing.assert_allclose(space.rho @ space.rho_inverse, np.eye(8), atol=1e-12)


def test_matrix_sqrt_pd_rejections():
    with pytest.raises(NotPositiveDefiniteError) as err:
        matrix_sqrt_pd(np.diag([1.0, -0.5]))
    assert err.value.min_eigenvalue == pytest.approx(-0.5)
    with pytest.raises(NotHermitianError):
        matrix_sqrt_pd(np.eye(2) + E12)


def test_modified_inner_values():
    e1 = np.array([1.0, 0.0])
    assert modified_inner(e1, e1, np.eye(2)) == pytest.approx(1.0)
    eta = np.diag([np.exp(-1.0), 1.0])  # gamma = 0.5
    assert modified_inner(e1, e1, eta) == pytest.approx(np.exp(-1.0))


def test_modified_inner_is_an_inner_product():
    rng = np.random.default_rng(3)
    eta = random_metric(rng, 5)
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    phi = rng.normal(size=5) + 1j * rng.normal(size=5)
    chi = rng.normal(size=5) + 1j * rng.normal(size=5)
    # conjugate symmetry, linearity in the second slot, positivity
    assert modified_inner(psi, phi, eta) == pytest.approx(
        np.conj(modified_inner(phi, psi, eta))
    )
    lhs = modified_inner(psi, 2.0 * phi + 1j * chi, eta)
    rhs = 2.0 * modified_inner(psi, phi, eta) + 1j * modified_inner(psi, chi, eta)
    assert lhs == pytest.approx(rhs)
    assert modified_inner(psi, psi, eta).real > 0


def test_modified_inner_gram_schmidt_orthogonality():
    rng = np.random.default_rng(4)
    eta = random_metric(rng, 4)
    v1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    v2 = rng.normal(size=4) + 1j * rng.normal(size=4)
    v2 = v2 - v1 * (modified_inner(v1, v2, eta) / modified_inner(v1, v1, eta))
    assert abs(modified_inner(v1, v2, eta)) < 1e-14


def test_to_hermitian_identity_case():
    h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    space = matrix_sqrt_pd(np.eye(2))
    np.testing.assert_allclose(to_hermitian(h, space, np.eye(2)), h, atol=1e-14)


def test_to_hermitian_weighted_hopping_becomes_symmetric():
    gamma = 0.3
    h = np.exp(gamma) * E12 + np.exp(-gamma) * E12.T
    space = matrix_sqrt_pd(np.diag([np.exp(-2 * gamma), 1.0]))
    out = to_hermitian(h, space)
    np.testing.assert_allclose(out, np.array([[0, 1], [1, 0]]), atol=1e-14)


def test_to_hermitian_preserves_spectrum():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    space = matrix_sqrt_pd(random_metric(rng, 7))
    lam_in = spectrum(h).eigenvalues
    lam_out = spectrum(to_hermitian(h, space)).eigenvalues
    np.testing.assert_allclose(lam_out, lam_in, atol=1e-10)


def test_to_hermitian_rejects_non_unitary():
    space = matrix_sqrt_pd(np.eye(2))
    with pytest.raises(ValueError, match="not unitary"):
        to_hermitian(np.eye(2), space, 2.0 * np.eye(2))


def test_map_observable_cases():
    # commuting observable is unchanged
    space = matrix_sqrt_pd(np.diag([0.5, 2.0]))
    b = np.diag([1.0, -1.0]).astype(complex)
    np.testing.assert_allclose(map_observable(b, space), b, atol=1e-14)

    # Pauli-x picks up e^{+-gamma} off-diagonal weights
    gamma = 0.4
    space = matrix_sqrt_pd(np.diag([np.exp(-gamma), np.exp(gamma)]))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array([[0.0, np.exp(gamma)], [np.exp(-gamma), 0.0]])
    mapped = map_observable(sx, space)
    np.testing.assert_allclose(mapped, expected, atol=1e-14)
    passed, _ = is_pseudo_hermitian(mapped, space.metric)
    assert passed


def test_map_observable_preserves_commutators():
    rng = np.random.default_rng(6)
    space = matrix_sqrt_pd(random_metric(rng, 5))
    b1 = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b1 = 0.5 * (b1 + b1.conj().T)
    b2 = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b2 = 0.5 * (b2 + b2.conj().T)
    lhs = commutator(map_observable(b1, space), map_observable(b2, space))
    # i[B1,B2] is hermitian, so it can go through the same map
    rhs = map_observable(1j * commutator(b1, b2), space) / 1j
    assert np.linalg.norm(lhs - rhs) < 1e-12 * (1.0 + np.linalg.norm(rhs))


def test_map_observable_requires_hermitian():
    space = matrix_sqrt_pd(np.eye(2))
    with pytest.raises(NotHermitianError):
        map_observable(E12, space)


def test_spectrum_examples():
    np.testing.assert_allclose(
        spectrum(np.diag([3.0, 1.0, 2.0])).eigenvalues, [1, 2, 3], atol=1e-14
    )
    np.testing.assert_allclose(
        spectrum(E12 + E12.T).eigenvalues, [-1, 1], atol=1e-14
    )
    a = np.array([[0.0, np.exp(0.5)], [np.exp(-0.5), 0.0]])
    np.testing.assert_allclose(spectrum(a).eigenvalues, [-1, 1], atol=1e-14)


def test_spectrum_sort_order_and_residual():
    vals = np.array([1.0 + 1.0j, 1.0 - 1.0j, -2.0, 0.5])
    res = spectrum(np.diag(vals))
    np.testing.assert_allclose(res.eigenvalues, [-2.0, 0.5, 1 - 1j, 1 + 1j])
    assert res.residual < 1e-14
    assert res.max_imag_abs == pytest.approx(1.0)
    assert not res.is_real()
    assert spectrum(np.eye(3)).is_real()


def hidden_blocks(rng, sizes):
    """A random non-normal complex block-diagonal matrix under a random permutation."""
    dim = sum(sizes)
    a = np.zeros((dim, dim), dtype=complex)
    start = 0
    for d in sizes:
        a[start:start + d, start:start + d] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        start += d
    perm = rng.permutation(dim)
    blocks = np.split(np.argsort(perm), np.cumsum(sizes)[:-1])
    return a[np.ix_(perm, perm)], blocks


def test_spectrum_finds_hidden_sectors():
    rng = np.random.default_rng(7)
    a, blocks = hidden_blocks(rng, (4, 7, 1))
    res = spectrum(a)
    expected = sorted((np.sort(b) for b in blocks), key=lambda b: b[0])
    assert len(res.sectors) == 3
    for sector, idx in zip(res.sectors, expected):
        assert np.array_equal(sector.indices, idx)
    vals = np.linalg.eigvals(a)
    vals = vals[np.lexsort((vals.imag, vals.real))]
    scale = 1.0 + np.max(np.abs(vals))
    assert np.max(np.abs(res.eigenvalues - vals)) <= 1e-12 * scale

    psi0 = rng.normal(size=len(a)) + 1j * rng.normal(size=len(a))
    times = np.linspace(0.0, 1.0, 5)
    dense_vals, dense_vecs = np.linalg.eig(a)
    coeff = np.linalg.solve(dense_vecs, psi0)
    dense = np.array([dense_vecs @ (np.exp(-1j * dense_vals * t) * coeff) for t in times])
    np.testing.assert_allclose(res.evolve(psi0, times), dense, rtol=0, atol=1e-12)


def test_eigenvalues_match_spectrum():
    a, _ = hidden_blocks(np.random.default_rng(7), (4, 7, 1))
    ref = spectrum(a).eigenvalues
    lam = eigenvalues(a)
    assert np.max(np.abs(lam - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))
    a[2, 5] = np.nan
    with pytest.raises(ValueError, match="operator must be finite"):
        eigenvalues(a)


def test_tiny_coupling_joins_sectors():
    rng = np.random.default_rng(8)
    a = np.zeros((5, 5), dtype=complex)
    a[:2, :2] = rng.normal(size=(2, 2))
    a[2:, 2:] = rng.normal(size=(3, 3))
    assert len(spectrum(a).sectors) == 2
    a[1, 3] = 1e-300
    (sector,) = spectrum(a).sectors
    assert np.array_equal(sector.indices, np.arange(5))


def gauged_real_pair(dim, n_sectors, seed):
    """``H = D^* G D``: ``G`` real, non-normal, with a real spectrum, nonzero only
    where ``i = j (mod n_sectors)``; ``D`` random phases.  Returns ``H, G``."""
    rng = np.random.default_rng(seed)
    g = np.zeros((dim, dim))
    idx = np.arange(dim)
    for k in range(min(dim, n_sectors)):
        s = idx[idx % n_sectors == k]
        basis = np.eye(len(s)) + 0.3 * rng.normal(size=(len(s), len(s))) / np.sqrt(len(s))
        lam = rng.uniform(-2.0, 2.0, len(s))
        g[np.ix_(s, s)] = basis @ np.diag(lam) @ np.linalg.inv(basis)
    d = np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
    return d.conj()[:, None] * g * d, g


def flux_ring(m=3, flux=0.3):
    """Hopping around an ``m``-cycle whose phases multiply to ``e^{i flux}``."""
    a = np.diag(np.arange(m, dtype=complex))
    for j in range(m):
        a[j, (j + 1) % m] = np.exp(1j * flux / m)
        a[(j + 1) % m, j] = np.exp(-1j * flux / m)
    return a


def record_solver_dtypes(monkeypatch):
    """Wrap ``np.linalg.eig`` and ``eigvals``; return the list of their input dtypes."""
    dtypes = []
    for name in ("eig", "eigvals"):
        def recorded(a, _real=getattr(np.linalg, name)):
            dtypes.append(a.dtype)
            return _real(a)

        monkeypatch.setattr(np.linalg, name, recorded)
    return dtypes


@pytest.mark.parametrize("n_sectors", [1, 5])
def test_a_matrix_real_up_to_a_phase_gauge_is_solved_in_real_arithmetic(
    monkeypatch, n_sectors
):
    h, _ = gauged_real_pair(150, n_sectors, seed=11)
    ref_vals, ref_vecs = np.linalg.eig(h)  # complex, before the solvers are wrapped
    ref = ref_vals[np.lexsort((ref_vals.imag, ref_vals.real))]
    dtypes = record_solver_dtypes(monkeypatch)
    res = spectrum(h)
    lam = eigenvalues(h)
    assert len(dtypes) == 2 * n_sectors and set(dtypes) == {np.dtype(float)}
    scale = 1.0 + np.max(np.abs(ref))
    for got in (res.eigenvalues, lam):
        assert got.dtype == complex
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale
    # checked on H's own blocks: ||H v - lam v|| of the mapped-back eigenvectors
    assert res.residual <= 1e-13 * scale

    rng = np.random.default_rng(12)
    psi0 = rng.normal(size=len(h)) + 1j * rng.normal(size=len(h))
    times = np.linspace(0.0, 1.0, 5)
    coeff = np.linalg.solve(ref_vecs, psi0)
    dense = np.array([ref_vecs @ (np.exp(-1j * ref_vals * t) * coeff) for t in times])
    np.testing.assert_allclose(res.evolve(psi0, times), dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_sectors", [1, 5])
def test_evolve_reads_the_condition_number_off_the_real_eigenvectors(monkeypatch, n_sectors):
    # a sector solved as real G keeps conj(d) * v_G; D is unitary, so the real v_G
    # has the same singular values
    h, _ = gauged_real_pair(150, n_sectors, seed=11)
    res = spectrum(h)
    ref = np.concatenate([np.linalg.svd(s.eigenvectors, compute_uv=False) for s in res.sectors])
    seen = []
    numpy_svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        seen.append((a.dtype, numpy_svd(a, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(np.linalg, "svd", recorded)
    res.evolve(np.ones(len(h)), [0.0, 1.0])
    assert [dtype for dtype, _ in seen] == [np.dtype(float)] * n_sectors
    sigma = np.concatenate([s for _, s in seen])
    np.testing.assert_allclose(np.sort(sigma), np.sort(ref), rtol=0, atol=1e-13 * ref.max())
    np.testing.assert_allclose(sigma.max() / sigma.min(), ref.max() / ref.min(), rtol=1e-10)


def test_a_one_sided_entry_gives_its_phase_through_its_conjugate(monkeypatch):
    # lower bidiagonal: each index is reached through a[j, i] with a[i, j] == 0
    g = np.diag(np.arange(6.0)) + np.diag(np.full(5, 0.5), -1)
    d = np.exp(1j * np.random.default_rng(14).uniform(-np.pi, np.pi, 6))
    h = d.conj()[:, None] * g * d
    dtypes = record_solver_dtypes(monkeypatch)
    res = spectrum(h)
    assert dtypes == [np.dtype(float)]
    np.testing.assert_allclose(res.eigenvalues, np.arange(6.0), rtol=0, atol=1e-13)
    assert res.residual <= 1e-14


def test_a_flux_through_a_cycle_keeps_the_complex_path(monkeypatch):
    a = flux_ring()
    ref = np.sort(np.linalg.eigvalsh(a)).astype(complex)
    dtypes = record_solver_dtypes(monkeypatch)
    res = spectrum(a)
    assert dtypes == [np.dtype(complex)]
    np.testing.assert_allclose(res.eigenvalues, ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(eigenvalues(a), ref, rtol=0, atol=1e-14)
    assert dtypes == [np.dtype(complex)] * 2


@pytest.mark.parametrize("scale, real", [(0.99, True), (1.01, False)])
def test_the_real_path_needs_im_g_within_eps_of_g(monkeypatch, scale, real):
    # Positive off-diagonal entries leave every phase 1, so G is H; its
    # imaginary part is on the diagonal, which no gauge moves.
    rng = np.random.default_rng(13)
    re = rng.uniform(0.1, 1.0, size=(40, 40))
    im = np.diag(rng.normal(size=40))
    t = scale * np.finfo(float).eps * np.linalg.norm(re) / np.linalg.norm(im)
    dtypes = record_solver_dtypes(monkeypatch)
    spectrum(re + 1j * t * im)
    eigenvalues(re + 1j * t * im)
    assert dtypes == [np.dtype(float if real else complex)] * 2


def test_evolve_rejects_a_defective_sector():
    a = np.zeros((3, 3), dtype=complex)
    a[:2, :2] = E12
    a[2, 2] = 2.0
    res = spectrum(a)
    assert len(res.sectors) == 2
    with pytest.raises(DefectiveMatrixError):
        res.evolve(np.ones(3), [0.0, 1.0])


def test_evolve_zero_and_hermitian():
    psi0 = np.array([1.0, 1.0j]) / np.sqrt(2)
    times = np.linspace(0.0, 5.0, 7)
    traj = evolve(np.zeros((2, 2)), psi0, times)
    np.testing.assert_allclose(traj, np.tile(psi0, (7, 1)), atol=1e-14)

    h = np.array([[1.0, 0.5], [0.5, -0.3]], dtype=complex)
    traj = evolve(h, psi0, times)
    norms = np.linalg.norm(traj, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # t = 0 row is bitwise the initial state
    assert np.array_equal(traj[0], psi0)


def test_evolve_conserves_eta_norm_not_dirac_norm():
    gamma = 0.4
    h = np.exp(gamma) * E12 + np.exp(-gamma) * E12.T
    eta = np.diag([np.exp(-2 * gamma), 1.0])
    psi0 = np.array([1.0, 0.5 + 0.25j])
    times = np.linspace(0.0, 10.0, 32)
    traj = evolve(h, psi0, times)
    eta_norms = [modified_inner(v, v, eta).real for v in traj]
    np.testing.assert_allclose(eta_norms, eta_norms[0], rtol=1e-10)
    dirac = np.linalg.norm(traj, axis=1)
    assert np.max(np.abs(dirac - dirac[0])) > 1e-3


def test_evolve_rejects_defective_generator():
    with pytest.raises(DefectiveMatrixError):
        evolve(E12, np.array([1.0, 0.0]), [0.0, 1.0])
