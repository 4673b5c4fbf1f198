"""2D oscillator with complex cross-stiffness, worked in the chiral basis."""
import numpy as np
import pytest

from metriq.bosonic import FockSpace, ladder_ops
from metriq.linops import is_pseudo_hermitian, spectrum
from metriq.oscillator2d import (
    OscillatorParams,
    angular_momentum_diag,
    build_xy_hamiltonian,
    cartesian_operators,
    complex_frequencies,
    lambda_pm,
    lz_ladder_identity,
    matrix_element_equivalence,
    normal_mode_frequencies,
    oscillator_metric,
    recover_stiffness,
    rotation_angle,
    spacing_ratio,
    transformed_canonical_ops,
)

# The standing anisotropic fixture used throughout: k = (2, 1, 1), m = 1.
ANISO = OscillatorParams(2.0, 1.0, 1.0, gamma=0.3, xi=0.2)
LAMBDA_PLUS = 0.5 * np.sqrt(3.0 + np.sqrt(2.0))   # 1.0505014948077294
LAMBDA_MINUS = 0.5 * np.sqrt(3.0 - np.sqrt(2.0))  # 0.6296400633748827
OMEGA_PLUS = np.sqrt((3.0 + np.sqrt(2.0)) / 2.0)  # 1.4856334612503004
OMEGA_MINUS = np.sqrt((3.0 - np.sqrt(2.0)) / 2.0)  # 0.8904455170382141


def test_params_regime_flag():
    assert ANISO.in_real_regime
    assert not OscillatorParams(1.0, 1.0, 3.0).in_real_regime
    assert not OscillatorParams(-1.0, 1.0, 0.0).in_real_regime
    with pytest.raises(ValueError, match="mass"):
        OscillatorParams(1.0, 1.0, 0.0, m=0.0)
    assert ANISO.w == pytest.approx(0.3 + 0.2j)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: OscillatorParams(1.0, 1.0, 0.0, xi=np.nan), "xi must be finite"),
        (lambda: rotation_angle(1.0, np.inf, 0.0), "k2 must be finite"),
        (lambda: normal_mode_frequencies(OscillatorParams(1.0, 1.0, 3.0)),
         "normal modes require k1 > 0, k2 > 0 and 4 k1 k2 > k3"),
        (lambda: angular_momentum_diag(FockSpace(1, 4)), "needs a two-mode Fock space"),
        (lambda: transformed_canonical_ops(FockSpace(2, 4), complex(0.1, np.nan)),
         "w must be finite"),
        (lambda: lz_ladder_identity(FockSpace(2, 6), -1, 0),
         "n and m must be non-negative, got -1 and 0"),
        (lambda: matrix_element_equivalence(FockSpace(2, 2), np.eye(4), 0.1, []),
         "ahat is 4-dimensional, the Fock space 9"),
    ],
    ids=["params-nan", "stiffness-inf", "regime", "modes", "w-nan", "quanta", "ahat-dim"],
)
def test_each_refusal_names_its_field(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_complex_frequencies_hermitian_limit():
    f = complex_frequencies(OscillatorParams(2.0, 1.0, 1.0))
    np.testing.assert_allclose([f.m_w1_sq, f.m_w2_sq, f.m_w3_sq], [2, 1, 1], atol=0.0)


def test_complex_frequencies_isotropy_survives_deformation():
    f = complex_frequencies(OscillatorParams(1.0, 1.0, 0.0, gamma=0.4, xi=0.3))
    np.testing.assert_allclose(f.m_w1_sq, 1.0, atol=1e-14)
    np.testing.assert_allclose(f.m_w2_sq, 1.0, atol=1e-14)
    np.testing.assert_allclose(f.m_w3_sq, 0.0, atol=1e-14)


def test_complex_frequencies_cross_term_value():
    f = complex_frequencies(OscillatorParams(2.0, 1.0, 0.0, gamma=0.3))
    assert f.m_w3_sq == pytest.approx(1j * np.sinh(0.6), abs=1e-14)


def test_stiffness_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k1, k2, k3 = rng.normal(size=3) * 2.0
        w = complex(rng.normal() * 0.5, rng.normal() * 0.5)
        p = OscillatorParams(k1, k2, k3, gamma=w.real, xi=w.imag)
        back = recover_stiffness(complex_frequencies(p), w)
        np.testing.assert_allclose(back, [k1, k2, k3], atol=1e-12)


def test_lambda_pm_values():
    np.testing.assert_allclose(
        lambda_pm(OscillatorParams(1.0, 1.0, 0.0)),
        [np.sqrt(2) / 2, np.sqrt(2) / 2],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        lambda_pm(OscillatorParams(2.0, 1.0, 1.0)),
        [LAMBDA_PLUS, LAMBDA_MINUS],
        atol=1e-14,
    )
    with pytest.raises(ValueError, match="requires"):
        lambda_pm(OscillatorParams(1.0, 1.0, 3.0))


def test_normal_mode_frequencies():
    np.testing.assert_allclose(
        normal_mode_frequencies(OscillatorParams(1.0, 1.0, 0.0)), [1.0, 1.0]
    )
    np.testing.assert_allclose(
        normal_mode_frequencies(OscillatorParams(2.0, 1.0, 1.0)),
        [OMEGA_PLUS, OMEGA_MINUS],
        atol=1e-14,
    )
    # decoupled limit
    np.testing.assert_allclose(
        normal_mode_frequencies(OscillatorParams(4.0, 1.0, 0.0)),
        [2.0, 1.0],
        atol=1e-14,
    )


def test_spacing_ratio_is_inverse_root_two():
    np.testing.assert_allclose(
        spacing_ratio(OscillatorParams(2.0, 1.0, 1.0)),
        [1 / np.sqrt(2)] * 2,
        atol=1e-14,
    )


def test_rotation_angle():
    frame = rotation_angle(2.0, 1.0, 1.0)
    assert frame.theta == pytest.approx(np.pi / 8)
    assert rotation_angle(1.0, 1.0, 0.7).theta == pytest.approx(np.pi / 4)
    assert rotation_angle(2.0, 1.0, 0.0).theta == 0.0
    assert rotation_angle(1.0, 1.0, 0.0).theta == 0.0
    # rotating by theta kills the stiffness off-diagonal
    c, s = np.cos(frame.theta), np.sin(frame.theta)
    r = np.array([[c, s], [-s, c]])
    k = np.array([[2.0, 0.5], [0.5, 1.0]])
    rotated = r @ k @ r.T
    assert abs(rotated[0, 1]) < 1e-14
    np.testing.assert_allclose(
        np.sort(np.diag(rotated)), [frame.kappa_minus, frame.kappa_plus], atol=1e-14
    )


def test_isotropic_spectrum():
    space = FockSpace(2, 10)
    h = build_xy_hamiltonian(OscillatorParams(1.0, 1.0, 0.0), space)
    lam = spectrum(h).eigenvalues
    np.testing.assert_allclose(lam.real[:6], [1, 2, 2, 3, 3, 3], atol=1e-12)
    np.testing.assert_allclose(lam.imag[:6], 0.0, atol=1e-13)


def test_deformed_hamiltonian_pseudo_hermitian_and_real():
    space = FockSpace(2, 12)
    h = build_xy_hamiltonian(ANISO, space)
    eta = np.diag(oscillator_metric(ANISO, space))
    passed, residual = is_pseudo_hermitian(h, eta)
    assert passed and residual < 1e-12
    lam = spectrum(h).eigenvalues
    assert lam.real[0] == pytest.approx(0.5 * (OMEGA_PLUS + OMEGA_MINUS), abs=1e-7)
    assert np.max(np.abs(lam.imag[:10])) < 1e-9


def test_deformed_spectrum_equals_undeformed():
    space = FockSpace(2, 12)
    lam_w = spectrum(build_xy_hamiltonian(ANISO, space)).eigenvalues
    lam_0 = spectrum(
        build_xy_hamiltonian(OscillatorParams(2.0, 1.0, 1.0), space)
    ).eigenvalues
    np.testing.assert_allclose(lam_w, lam_0, atol=1e-8)


def test_lowest_levels_follow_normal_modes():
    space = FockSpace(2, 16)
    lam = spectrum(build_xy_hamiltonian(ANISO, space)).eigenvalues.real
    exact = np.sort(
        [
            (np_ + 0.5) * OMEGA_PLUS + (nm + 0.5) * OMEGA_MINUS
            for np_ in range(4)
            for nm in range(4)
        ]
    )[:6]
    np.testing.assert_allclose(lam[:6], exact, atol=1e-7)


def test_transformed_ops_identity_at_zero():
    space = FockSpace(2, 8)
    X, Y, PX, PY, LZ = transformed_canonical_ops(space, 0.0)
    x, y, px, py = cartesian_operators(space)
    np.testing.assert_allclose(X, x, atol=1e-14)
    np.testing.assert_allclose(Y, y, atol=1e-14)
    np.testing.assert_allclose(PX, px, atol=1e-14)
    np.testing.assert_allclose(PY, py, atol=1e-14)
    np.testing.assert_allclose(np.diag(LZ), angular_momentum_diag(space), atol=1e-14)


def test_transformed_ops_preserve_squares_and_commutators():
    space = FockSpace(2, 10)
    w = 0.3 + 0.2j
    X, Y, PX, PY, _ = transformed_canonical_ops(space, w)
    x, y, px, py = cartesian_operators(space)
    assert np.linalg.norm(X @ X + Y @ Y - (x @ x + y @ y)) < 1e-12
    assert np.linalg.norm(PX @ PX + PY @ PY - (px @ px + py @ py)) < 1e-12
    # [X, PX] = i on the sub-cutoff subspace
    comm = X @ PX - PX @ X
    table = space.occupation_table()
    inside = np.nonzero(table.sum(axis=1) <= space.cutoff - 2)[0]
    eye = np.eye(space.dim)
    dev = np.max(np.abs((comm - 1j * eye)[np.ix_(inside, inside)]))
    assert dev < 1e-12


def test_rho_conjugation_rotates_position():
    space = FockSpace(2, 10)
    gamma, xi = 0.3, 0.2
    X, *_ = transformed_canonical_ops(space, gamma + 1j * xi)
    x, y, _, _ = cartesian_operators(space)
    lz = angular_momentum_diag(space)
    rho = np.exp(-gamma * lz)
    conj = (rho[:, None] * X) * (1.0 / rho)[None, :]
    expected = x * np.cos(xi) - y * np.sin(xi)
    assert np.max(np.abs(conj - expected)) < 1e-12


@pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (2, 3)])
def test_lz_ladder_identity_cases(n, m):
    space = FockSpace(2, 8)
    assert lz_ladder_identity(space, n, m) < 1e-13


def test_lz_ladder_identity_cutoff_guard():
    space = FockSpace(2, 4)
    with pytest.raises(ValueError, match="cutoff"):
        lz_ladder_identity(space, 2, 2)


def dense_matrix_element_equivalence(space, ahat, w, pairs):
    """The dense formula: Lz from ladder products, exp(z Lz) as full matrices.

    Returns the worst deviation, relative to ``1 + ||Psi'|| ||eta A Psi||``,
    and the largest ``|<psi', h psi>|``, its scale.
    """
    a1, a1d = ladder_ops(space, 0)
    a2, a2d = ladder_ops(space, 1)
    vals, vecs = np.linalg.eigh(1j * (a1 @ a2d - a1d @ a2))

    def lz_exp(z):
        return (vecs * np.exp(z * vals)) @ vecs.conj().T

    grow, eta = lz_exp(w), lz_exp(-2.0 * w.real)
    h = lz_exp(-w) @ ahat @ grow
    worst = scale = 0.0
    for bra_q, ket_q in pairs:
        bra, ket = space.basis_vector(bra_q), space.basis_vector(ket_q)
        grown, scaled = grow @ bra, eta @ (ahat @ (grow @ ket))
        lhs = np.vdot(grown, scaled)
        rhs = np.vdot(bra, h @ ket)
        bound = np.linalg.norm(grown) * np.linalg.norm(scaled)
        worst, scale = max(worst, abs(lhs - rhs) / (1.0 + bound)), max(scale, abs(rhs))
    return worst, scale


def test_matrix_element_equivalence_matches_the_dense_formula():
    space = FockSpace(2, 8)
    rng = np.random.default_rng(11)
    ahat = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
    pairs = [((0, 0), (0, 0)), ((1, 2), (3, 0)), ((0, 5), (4, 1)), ((7, 7), (2, 6))]
    w = 0.3 + 0.2j
    got = matrix_element_equivalence(space, ahat, w, pairs)
    ref, scale = dense_matrix_element_equivalence(space, ahat, w, pairs)
    assert abs(got - ref) <= 1e-12 * (1.0 + scale)


def test_matrix_element_equivalence_is_relative_to_the_element_bound():
    # exp(+-gamma Lz) reaches e^{+-7.2} here; the absolute deviation is ~4e-3
    space = FockSpace(2, 24)
    rng = np.random.default_rng(11)
    ahat = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
    pairs = [((0, 0), (0, 0)), ((1, 2), (3, 0)), ((0, 24), (24, 0)), ((20, 3), (5, 17))]
    assert matrix_element_equivalence(space, ahat, 0.3 + 0.1j, pairs) <= 1e-14


def test_matrix_element_equivalence():
    space = FockSpace(2, 12)
    pairs = [((0, 0), (0, 0)), ((1, 0), (1, 0)), ((0, 1), (1, 0)), ((2, 0), (0, 2))]
    # w = 0 is the identity case
    assert matrix_element_equivalence(space, np.eye(space.dim), 0.0, pairs) == 0.0
    # eta-orthonormality of the transformed states (identity observable)
    assert matrix_element_equivalence(space, np.eye(space.dim), 0.3, pairs) < 1e-11
    # number operator
    occ = space.occupation_table()
    nop = np.diag((occ[:, 0] + occ[:, 1]).astype(complex))
    assert matrix_element_equivalence(space, nop, 0.3, pairs) < 1e-11
