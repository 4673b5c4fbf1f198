"""Planar oscillator with complex cross-coupled frequencies.

The model starts from an ordinary anisotropic oscillator with stiffnesses
``(k1, k2, k3)`` and applies a complex rotation of the plane controlled by
``w = gamma + 1j * xi``.  The rotated Hamiltonian has complex frequency
combinations but remains hermitian with respect to the metric
``exp(-2 gamma Lz)`` built from the angular momentum.

All Fock-space functions here work in the *chiral* two-mode basis (left and
right circular quanta), where ``Lz = n_plus - n_minus`` is diagonal.  That
choice keeps the metric diagonal, so pseudo-hermiticity and isospectrality
survive the occupation cutoff exactly instead of only approximately.  Mode 0
carries angular momentum +1 per quantum, mode 1 carries -1; the Cartesian
ladder pair is recovered as ``a1 = (a_+ + a_-)/sqrt(2)``,
``a2 = 1j (a_+ - a_-)/sqrt(2)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .bosonic import FockSpace, _assemble, _dense, _guard_overflow, similarity
from .linops import _finite, as_operator

__all__ = [
    "OscillatorParams",
    "ComplexFrequencies",
    "RotatedFrame",
    "complex_frequencies",
    "recover_stiffness",
    "lambda_pm",
    "normal_mode_frequencies",
    "spacing_ratio",
    "rotation_angle",
    "angular_momentum_diag",
    "cartesian_operators",
    "oscillator_metric",
    "build_xy_hamiltonian",
    "transformed_canonical_ops",
    "lz_ladder_identity",
    "matrix_element_equivalence",
]


@dataclass(frozen=True)
class OscillatorParams:
    """Stiffnesses, mass and deformation of the planar oscillator.

    The spectrum is guaranteed real (before truncation) in the regime
    ``k1 > 0``, ``k2 > 0``, ``4 k1 k2 > k3**2``; see ``in_real_regime``.
    """

    k1: float
    k2: float
    k3: float
    m: float = 1.0
    gamma: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "m", "gamma", "xi"):
            _finite(name, getattr(self, name))
        if self.m <= 0:
            raise ValueError("mass must be positive")

    @property
    def w(self) -> complex:
        return complex(self.gamma, self.xi)

    @property
    def in_real_regime(self) -> bool:
        return self.k1 > 0 and self.k2 > 0 and 4.0 * self.k1 * self.k2 > self.k3**2


class ComplexFrequencies(NamedTuple):
    """The three complex combinations ``m w1^2, m w2^2, m w3^2``."""

    m_w1_sq: complex
    m_w2_sq: complex
    m_w3_sq: complex


class RotatedFrame(NamedTuple):
    """Principal-axis angle and the rotated (diagonal) stiffnesses."""

    theta: float
    kappa_plus: float
    kappa_minus: float


def complex_frequencies(params: OscillatorParams) -> ComplexFrequencies:
    """Frequency combinations of the complex-rotated oscillator.

    ``m w1^2 = k1 cosh^2 w - k2 sinh^2 w - 1j k3 cosh w sinh w`` and its two
    partners.  At ``w = 0`` they reduce to ``(k1, k2, k3)``; for any ``w``
    the inverse map :func:`recover_stiffness` returns the stiffnesses.
    """
    w = params.w
    c, s = np.cosh(w), np.sinh(w)
    k1, k2, k3 = params.k1, params.k2, params.k3
    return ComplexFrequencies(
        m_w1_sq=k1 * c**2 - k2 * s**2 - 1j * k3 * c * s,
        m_w2_sq=k2 * c**2 - k1 * s**2 + 1j * k3 * c * s,
        m_w3_sq=2j * (k1 - k2) * c * s + k3 * (c**2 + s**2),
    )


def recover_stiffness(freqs: ComplexFrequencies, w: complex) -> tuple[float, float, float]:
    """Invert :func:`complex_frequencies` at known ``w``.

    The linear system has unit determinant (``cosh^2 2w - sinh^2 2w``), so
    the inversion is exact; tiny imaginary parts from rounding are dropped.
    """
    p = np.cosh(2 * w)
    q = np.sinh(2 * w)
    total = freqs.m_w1_sq + freqs.m_w2_sq
    diff = freqs.m_w1_sq - freqs.m_w2_sq
    cross = freqs.m_w3_sq
    k_diff = p * diff + 1j * q * cross
    k3 = -1j * q * diff + p * cross
    k1 = 0.5 * (total + k_diff)
    k2 = 0.5 * (total - k_diff)
    return float(k1.real), float(k2.real), float(k3.real)


def lambda_pm(params: OscillatorParams) -> tuple[float, float]:
    """Closed-form constants ``(k1 + k2 +/- sqrt(k3^2 + (k1-k2)^2))^{1/2} / (2 sqrt(m))``.

    Requires the real-spectrum regime.  Note these equal the normal-mode
    frequencies divided by sqrt(2); see :func:`spacing_ratio`.
    """
    if not params.in_real_regime:
        raise ValueError(
            "lambda_pm requires k1 > 0, k2 > 0 and 4 k1 k2 > k3^2"
        )
    k1, k2, k3 = params.k1, params.k2, params.k3
    root = np.sqrt(k3**2 + (k1 - k2) ** 2)
    lp = np.sqrt(k1 + k2 + root) / (2.0 * np.sqrt(params.m))
    lm = np.sqrt(k1 + k2 - root) / (2.0 * np.sqrt(params.m))
    return float(lp), float(lm)


def rotation_angle(k1: float, k2: float, k3: float) -> RotatedFrame:
    """Principal-axis rotation of the stiffness matrix ``[[k1, k3/2], [k3/2, k2]]``.

    ``theta = atan(k3 / (k1 - k2)) / 2`` for distinct diagonal entries and
    ``pi/4`` for the degenerate coupled case; rotating by ``theta`` kills
    the off-diagonal coupling.
    """
    for name, v in (("k1", k1), ("k2", k2), ("k3", k3)):
        _finite(name, v)
    if k1 == k2:
        theta = 0.0 if k3 == 0.0 else np.pi / 4.0
    else:
        theta = 0.5 * np.arctan(k3 / (k1 - k2))
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    stiff = np.array([[k1, 0.5 * k3], [0.5 * k3, k2]])
    diag = rot.T @ stiff @ rot
    return RotatedFrame(
        theta=float(theta),
        kappa_plus=float(max(diag[0, 0], diag[1, 1])),
        kappa_minus=float(min(diag[0, 0], diag[1, 1])),
    )


def normal_mode_frequencies(params: OscillatorParams) -> tuple[float, float]:
    """Decoupled-mode frequencies ``sqrt(kappa_pm / m)`` (larger first).

    ``kappa_pm`` are the eigenvalues of the stiffness matrix; these are the
    spacings actually observed in the converged spectrum.
    """
    if not params.in_real_regime:
        raise ValueError(
            "normal modes require k1 > 0, k2 > 0 and 4 k1 k2 > k3^2"
        )
    frame = rotation_angle(params.k1, params.k2, params.k3)
    return (
        float(np.sqrt(frame.kappa_plus / params.m)),
        float(np.sqrt(frame.kappa_minus / params.m)),
    )


def spacing_ratio(params: OscillatorParams) -> tuple[float, float]:
    """Ratios ``lambda_pm / omega_pm`` (algebraically ``1/sqrt(2)`` each)."""
    lp, lm = lambda_pm(params)
    op, om = normal_mode_frequencies(params)
    return lp / op, lm / om


# ---------------------------------------------------------------------------
# Chiral-basis Fock realization


def _require_two_modes(space: FockSpace) -> None:
    if space.modes != 2:
        raise ValueError("the planar oscillator needs a two-mode Fock space")


def angular_momentum_diag(space: FockSpace) -> np.ndarray:
    """Diagonal of ``Lz`` in the chiral basis: ``n_plus - n_minus``."""
    _require_two_modes(space)
    occ = space.occupation_table()
    return (occ[:, 0] - occ[:, 1]).astype(float)


# (x, y, px, py) as linear forms in (a_+, a_-, a_+^dag, a_-^dag)
_CHIRAL = (("a", 0), ("a", 1), ("ad", 0), ("ad", 1))
_CARTESIAN = 0.5 * np.array(
    [[1, 1, 1, 1], [1j, -1j, -1j, 1j], [-1j, -1j, 1j, 1j], [1, -1, 1, -1]]
)
_XY_TERMS = [[(c, (f,)) for c, f in zip(form, _CHIRAL)] for form in _CARTESIAN]


def cartesian_operators(
    space: FockSpace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Position/momentum matrices ``(x, y, px, py)`` in the chiral basis.

    Natural units (m = 1, reference frequency 1): ``x = (a1 + a1^dag)/sqrt(2)``
    with ``a1, a2`` the Cartesian ladder combinations of the chiral pair.
    """
    _require_two_modes(space)
    return tuple(_assemble(space, t).dense() for t in _XY_TERMS)


def oscillator_metric(params: OscillatorParams, space: FockSpace) -> np.ndarray:
    """Weights ``exp(-2 gamma Lz)``: the diagonal of the metric in the chiral basis."""
    return similarity(angular_momentum_diag(space)[:, None], [params.w])[0]


@_dense
def build_xy_hamiltonian(params: OscillatorParams, space: FockSpace) -> np.ndarray:
    """Dense rotated-oscillator Hamiltonian on the chiral Fock space.

    ``H = (px^2 + py^2) / 2m + (m w1^2 x^2 + m w2^2 y^2 + m w3^2 (xy + yx)/2) / 2``
    with the complex frequency combinations of :func:`complex_frequencies`,
    built as ``exp(w Lz) H_0 exp(-w Lz)`` from the ``w = 0`` matrix ``H_0`` by the
    assembler's rule with ``ws = (w, -w)`` (a chiral quantum carries ``Lz = +-1``).
    Pseudo-hermitian with respect to :func:`oscillator_metric`; isospectral
    to ``H_0`` at any cutoff because the similarity is diagonal in this basis.
    """
    _require_two_modes(space)
    x, y, px, py = _CARTESIAN
    # H_0 = sum_ij coef[i, j] f_i f_j over the chiral factors
    coef = (np.outer(px, px) + np.outer(py, py)) / (2.0 * params.m) + 0.5 * (
        params.k1 * np.outer(x, x)
        + params.k2 * np.outer(y, y)
        + params.k3 * 0.5 * (np.outer(x, y) + np.outer(y, x))
    )
    terms = list(zip(coef.ravel(), product(_CHIRAL, repeat=2)))
    return _assemble(space, terms, (params.w, -params.w))


def transformed_canonical_ops(
    space: FockSpace, w: complex
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Complex-rotated canonical set ``(X, Y, PX, PY, LZ)``.

    ``X = x cosh w + 1j y sinh w``, ``Y = -1j x sinh w + y cosh w`` and the
    same mixing for the momenta; ``LZ`` equals the undeformed angular
    momentum.  The mixing is the similarity ``exp(w Lz) x exp(-w Lz)``, built
    by the assembler's rule with ``ws = (w, -w)``.  The rotation has unit
    determinant, so ``X^2 + Y^2 = x^2 + y^2`` and ``PX^2 + PY^2 = px^2 +
    py^2`` hold as matrix identities and ``[X, PX] = 1j`` below the cutoff.
    """
    w = _finite("w", complex(w))
    lz = np.diag(angular_momentum_diag(space).astype(complex))
    return (*(_assemble(space, t, (w, -w)).dense() for t in _XY_TERMS), lz)


# i Lz = a1^dag a2 - a1 a2^dag over the plain (non-chiral) two-mode ladders
_I_LZ = ((1.0, (("ad", 0), ("a", 1))), (-1.0, (("a", 0), ("ad", 1))))


def lz_ladder_identity(space: FockSpace, n: int, m: int) -> float:
    """Residual of the two-mode ladder action of ``i Lz``.

    In the basis of per-mode quanta ``|n, m>`` the operator ``i Lz =
    a1^dag a2 - a1 a2^dag`` acts as ``sqrt((n+1) m) |n+1, m-1> -
    sqrt(n (m+1)) |n-1, m+1>``.  Returns the 2-norm of the difference;
    requires ``n + m + 1 < cutoff`` so no term touches the cutoff.
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be non-negative, got {n} and {m}")
    if n + m + 1 >= space.cutoff:
        raise ValueError(
            f"n + m + 1 = {n + m + 1} must stay below the cutoff {space.cutoff}"
        )
    _require_two_modes(space)
    ilz = _assemble(space, _I_LZ).dense()
    state = space.basis_vector((n, m))
    target = np.zeros(space.dim, dtype=complex)
    if m >= 1:
        target[space.index((n + 1, m - 1))] += np.sqrt((n + 1) * m)
    if n >= 1:
        target[space.index((n - 1, m + 1))] -= np.sqrt(n * (m + 1))
    return float(np.linalg.norm(ilz @ state - target))


def matrix_element_equivalence(
    space: FockSpace,
    ahat,
    w: complex,
    pairs: Sequence[tuple[tuple[int, int], tuple[int, int]]],
) -> float:
    """Worst relative deviation between metric and hermitian-frame matrix elements.

    For basis states ``psi`` of per-mode quanta, the deformed states are
    ``Psi = exp(w Lz) psi`` and the claim is ``<Psi', eta A Psi> =
    <psi', h psi>`` with ``eta = exp(-2 gamma Lz)`` and ``h`` the similarity
    transform of ``A`` by ``exp(-w Lz)``.  Works in the plain two-mode basis
    where ``Lz = 1j (a1 a2^dag - a1^dag a2)``.

    Each deviation is divided by ``1 + ||Psi'|| ||eta A Psi||``, the
    Cauchy-Schwarz bound on the left side, because the ``exp(+-gamma Lz)``
    factors make the elements and their rounding grow with the cutoff even
    though the identity holds exactly.  Each ``exp(z Lz)`` is held to the
    overflow guard; past the cutoff's complete sectors the truncated ``Lz``
    spans more than ``+-cutoff`` (about ``+-1.5 cutoff`` at cutoff 12).
    """
    ahat = as_operator(ahat)
    if ahat.shape[0] != space.dim:
        raise ValueError(f"ahat is {ahat.shape[0]}-dimensional, the Fock space {space.dim}")
    w = complex(w)
    _require_two_modes(space)
    lz = _assemble(space, [(-1j * c, f) for c, f in _I_LZ]).dense()
    vals, vecs = np.linalg.eigh(lz)
    vecs_h = vecs.conj().T

    def lz_exp(z: complex, v: np.ndarray) -> np.ndarray:
        """``exp(z Lz) v`` through the eigenbasis of ``Lz``."""
        if z == 0.0:
            return v
        return vecs @ (np.exp(_guard_overflow(z * vals)) * (vecs_h @ v))

    worst = 0.0
    for (n1, m1), (n2, m2) in pairs:
        bra = space.basis_vector((n1, m1))
        a_ket = ahat @ lz_exp(w, space.basis_vector((n2, m2)))
        grown, scaled = lz_exp(w, bra), lz_exp(-2.0 * w.real, a_ket)
        lhs = np.vdot(grown, scaled)
        rhs = np.vdot(bra, lz_exp(-w, a_ket))
        bound = np.linalg.norm(grown) * np.linalg.norm(scaled)
        worst = max(worst, abs(lhs - rhs) / (1.0 + bound))
    return float(worst)
