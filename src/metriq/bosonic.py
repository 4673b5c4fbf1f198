"""Truncated boson Fock spaces, deformed quadratic forms and their spectra.

The multimode builders follow one rule throughout: with the diagonal metric
``eta = prod_i exp(-2 gamma_i n_i)`` (returned as its weight vector by
:func:`build_metric`) every hopping/pairing term carries an
exponential weight (``exp(w_i - w_j)`` on ``a_i^dag a_j``, ``exp(w_i + w_j)``
on ``a_i^dag a_j^dag``, inverses on the adjoint partners) which makes the
resulting Hamiltonian pseudo-hermitian with respect to ``eta`` entry by
entry, even after truncation.

Basis ordering is little-endian in the occupation numbers: mode 0 varies
fastest, i.e. basis index ``i`` encodes occupation ``n_k = (i // d**k) % d``
with ``d = cutoff + 1``.

One assembler sums every Hamiltonian of the package on these basis indices,
with no kron-embedded operator and no dense product.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .linops import MetricSpec

__all__ = [
    "DIM_CAP",
    "GAMMA_CUTOFF_GUARD",
    "StabilityError",
    "FockSpace",
    "BosonQuadraticForm",
    "BogoliubovResult",
    "ladder_ops",
    "number_op",
    "tilde_ops",
    "similarity",
    "build_metric",
    "build_quadratic_hamiltonian",
    "bogoliubov_frequencies",
    "quadratic_spectrum",
    "schwinger_su2",
    "build_lmg",
    "total_number_indices",
]

# Default ceiling on the dense Hilbert-space dimension.
DIM_CAP = 4096
# Metric weights are exp(-2 sum_k gamma_k n_k); refuse sum_k |gamma_k| * cutoff
# beyond this so the weights stay comfortably inside double-precision range.
GAMMA_CUTOFF_GUARD = 60.0


class StabilityError(ValueError):
    """The quadratic form is not diagonalizable to real frequencies.

    Raised when the coefficient block matrix fails strict positivity; the
    smallest eigenvalue is attached as ``d_min_eigenvalue``.
    """

    def __init__(self, message: str, d_min_eigenvalue: float):
        super().__init__(message)
        self.d_min_eigenvalue = float(d_min_eigenvalue)


@dataclass(frozen=True)
class FockSpace:
    """A per-mode truncated boson Fock space.

    Parameters
    ----------
    modes : int
        Number of boson modes (>= 1).
    cutoff : int
        Highest occupation kept per mode; single-mode dimension is
        ``cutoff + 1``.  The total dense dimension may not exceed ``DIM_CAP``.
    """

    modes: int
    cutoff: int

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("need at least one mode")
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        if self.dim > DIM_CAP:
            raise ValueError(f"dense dimension {self.dim} exceeds cap {DIM_CAP}")

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.modes

    def index(self, occupations: Sequence[int]) -> int:
        """Basis index of an occupation tuple (mode 0 varies fastest)."""
        occ = tuple(int(n) for n in occupations)
        if len(occ) != self.modes:
            raise ValueError(f"expected {self.modes} occupations, got {len(occ)}")
        d = self.cutoff + 1
        idx = 0
        for k, n in enumerate(occ):
            if not 0 <= n <= self.cutoff:
                raise ValueError(f"occupation {n} of mode {k} outside [0, {self.cutoff}]")
            idx += n * d**k
        return idx

    def occupations(self, index: int) -> tuple[int, ...]:
        """Occupation tuple of a basis index."""
        if not 0 <= index < self.dim:
            raise ValueError(f"basis index {index} outside [0, {self.dim})")
        d = self.cutoff + 1
        return tuple((index // d**k) % d for k in range(self.modes))

    def occupation_table(self) -> np.ndarray:
        """Integer array of shape (dim, modes) with all occupations."""
        d = self.cutoff + 1
        idx = np.arange(self.dim)
        return np.stack([(idx // d**k) % d for k in range(self.modes)], axis=1)

    def basis_vector(self, occupations: Sequence[int]) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index(occupations)] = 1.0
        return vec


# Digit moves: "a"/"ad" lower/raise a mode, "+"/"-" are S^+/S^- of a site.
_STEPS = {"a": -1, "+": -1, "c": -1, "ad": 1, "-": 1, "cd": 1}


def _assemble(space: FockSpace, terms) -> np.ndarray:
    """Dense sum of ``coef * f_1 ... f_k`` terms, built on basis indices.

    A factor is ``(kind, mode)``.  A move shifts the index by the mode's
    stride with amplitude ``sqrt(n)`` down or ``sqrt(n + 1)`` up and drops
    states pushed out of ``[0, cutoff]``, as truncated ladder matrices do.
    ``"c"``/``"cd"`` add the Jordan-Wigner sign of the higher modes, ``"n"``
    is the occupation and ``"z"`` is ``1/2 - n``.  The last factor acts first.
    """
    occ = space.occupation_table()
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for coef, factors in terms:
        src = cur = np.arange(space.dim)
        amp = np.ones(space.dim)
        for kind, mode in reversed(factors):
            n = occ[cur, mode]
            if kind in ("n", "z"):
                amp = amp * (n if kind == "n" else 0.5 - n)
                continue
            step = _STEPS[kind]
            keep = n > 0 if step < 0 else n < space.cutoff
            src, cur, n = src[keep], cur[keep], n[keep]
            amp = amp[keep] * np.sqrt(n if step < 0 else n + 1)
            if kind in ("c", "cd"):
                amp = amp * (1 - 2 * (occ[cur, mode + 1 :].sum(axis=1) & 1))
            cur = cur + step * (space.cutoff + 1) ** mode
        h[cur, src] += coef * amp
    return h


def _check_mode(space: FockSpace, mode: int) -> None:
    if not 0 <= mode < space.modes:
        raise ValueError(f"mode {mode} outside [0, {space.modes})")


def _guard_overflow(cutoff: int, *gammas: float) -> None:
    """The overflow guard: ``sum |gamma| * cutoff <= GAMMA_CUTOFF_GUARD``.

    The metric's exponent sums over modes, so the guard does too.  A
    spin-1/2 or fermion site has cutoff 1."""
    worst = sum(abs(g) for g in gammas) * cutoff
    if worst > GAMMA_CUTOFF_GUARD:
        raise ValueError(
            f"sum |gamma| * cutoff = {worst:.1f} exceeds overflow guard "
            f"{GAMMA_CUTOFF_GUARD}"
        )


def _check_metric_matches(space: FockSpace, metric: MetricSpec) -> None:
    if metric.n != space.modes:
        raise ValueError(
            f"metric has {metric.n} modes but the space has {space.modes}"
        )
    _guard_overflow(space.cutoff, *metric.gammas)


def ladder_ops(space: FockSpace, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated annihilation/creation pair ``(a, a^dag)`` for one mode.

    ``a`` lowers the occupation with the usual ``sqrt(n)`` amplitudes;
    raising from the cutoff state gives zero.  ``[a, a^dag] = 1`` holds
    exactly below the cutoff.
    """
    _check_mode(space, mode)
    a = _assemble(space, [(1.0, (("a", mode),))])
    return a, a.conj().T


def number_op(space: FockSpace, mode: int) -> np.ndarray:
    """Diagonal occupation-number operator of one mode."""
    _check_mode(space, mode)
    return np.diag(space.occupation_table()[:, mode].astype(complex))


def tilde_ops(space: FockSpace, metric: MetricSpec, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Metric-rescaled ladder pair ``(e^{-gamma} a, e^{gamma} a^dag)``.

    The two operators are adjoint to each other *with respect to the
    metric*: ``eta_adjoint(e^{-gamma} a) == e^{gamma} a^dag``.  At
    ``gamma = 0`` they reduce to the plain ladder pair.
    """
    _check_metric_matches(space, metric)
    a, adag = ladder_ops(space, mode)
    g = metric.gammas[mode]
    return np.exp(-g) * a, np.exp(g) * adag


def similarity(charges: np.ndarray, ws) -> tuple[np.ndarray, np.ndarray]:
    """Metric weights and unitary phases of the diagonal similarity ``exp(Q w)``.

    ``charges`` is the ``(dim, modes)`` table of a per-mode charge ``Q`` (the
    occupation, ``S^z`` or ``Lz``) and ``ws`` the per-mode ``gamma + 1j xi``.
    Returns the weights ``exp(-2 Q gamma)`` of the metric and the phases
    ``exp(-1j Q xi)`` of the unitary; every model of the package maps to its
    hermitian form by this one rule.  The exponent is summed in log space, so
    positive definiteness is automatic.
    """
    ws = np.asarray(ws, dtype=complex)
    return np.exp(-2.0 * charges @ ws.real), np.exp(-1j * charges @ ws.imag)


def build_metric(space: FockSpace, metric: MetricSpec) -> np.ndarray:
    """Weights ``exp(-2 sum_k gamma_k n_k)``: the diagonal of the metric.

    The overflow guard rejects ``sum |gamma| * cutoff`` beyond
    ``GAMMA_CUTOFF_GUARD``.
    """
    _check_metric_matches(space, metric)
    return similarity(space.occupation_table(), metric.ws)[0]


class BosonQuadraticForm:
    """Coefficients of a deformed quadratic boson Hamiltonian.

    ``alpha`` (hopping) and ``beta`` (pairing) are real symmetric N x N
    matrices; ``metric`` supplies the per-mode deformations ``w_i``.
    """

    def __init__(self, alpha, beta, metric: MetricSpec):
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        n = metric.n
        for name, m in (("alpha", alpha), ("beta", beta)):
            if m.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")
            asym = np.abs(m - m.T)
            if np.any(asym > 0):
                i, j = np.unravel_index(np.argmax(asym), m.shape)
                raise ValueError(
                    f"{name} must be symmetric: {name}[{i}][{j}] != {name}[{j}][{i}]"
                )
        self.alpha = alpha
        self.beta = beta
        self.metric = metric

    @property
    def n(self) -> int:
        return self.metric.n


def build_quadratic_hamiltonian(
    space: FockSpace,
    form: BosonQuadraticForm,
    include_zero_point: bool = True,
) -> np.ndarray:
    """Dense matrix of the deformed quadratic form.

    Terms: ``(1/2) sum_ij alpha_ij (e^{w_i - w_j} a_i^dag a_j + e^{-(w_i - w_j)}
    a_j^dag a_i) + (1/2) sum_ij beta_ij (e^{-(w_i + w_j)} a_i a_j +
    e^{w_i + w_j} a_i^dag a_j^dag)``.

    With ``include_zero_point`` (default) the hopping part is taken in
    symmetric ordering, which adds the constant ``tr(alpha) / 2`` and makes
    the exact spectrum equal ``sum_i (n_i + 1/2) Omega_i``; switch it off to
    get the bare normal-ordered form whose spectrum is shifted down by the
    same constant.
    """
    if form.n != space.modes:
        raise ValueError(f"form has {form.n} modes but the space has {space.modes}")
    _check_metric_matches(space, form.metric)
    ws = form.metric.ws
    terms = []
    for i, j in product(range(space.modes), repeat=2):
        a, b = 0.5 * form.alpha[i, j], 0.5 * form.beta[i, j]
        if a != 0.0:
            terms.append((a * np.exp(ws[i] - ws[j]), (("ad", i), ("a", j))))
            terms.append((a * np.exp(-(ws[i] - ws[j])), (("ad", j), ("a", i))))
        if b != 0.0:
            terms.append((b * np.exp(-(ws[i] + ws[j])), (("a", i), ("a", j))))
            terms.append((b * np.exp(ws[i] + ws[j]), (("ad", i), ("ad", j))))
    if include_zero_point:  # the identity: a term without factors
        terms.append((0.5 * np.trace(form.alpha), ()))
    return _assemble(space, terms)


@dataclass(frozen=True)
class BogoliubovResult:
    """Normal-mode data of a stable quadratic form.

    ``omegas`` holds the N positive frequencies in ascending order;
    ``pairing_residual`` measures how well the 2N eigenvalues split into
    exact (+Omega, -Omega) pairs; ``d_min_eigenvalue`` is the smallest
    eigenvalue of the coefficient block matrix (positive for stable forms).
    """

    omegas: np.ndarray
    pairing_residual: float
    d_min_eigenvalue: float


def bogoliubov_frequencies(form: BosonQuadraticForm) -> BogoliubovResult:
    """Normal-mode frequencies of the quadratic form.

    Builds the block matrix ``D = [[alpha, beta], [beta, alpha]]``, requires
    it strictly positive (otherwise :class:`StabilityError` carries the
    offending eigenvalue), and reads the frequencies off the spectrum of
    ``D`` twisted by the block signature, which comes in ``(+Omega_i,
    -Omega_i)`` pairs.
    """
    n = form.n
    d_block = np.block([[form.alpha, form.beta], [form.beta, form.alpha]])
    d_eigs = np.linalg.eigvalsh(d_block)
    d_min = float(d_eigs[0])
    if d_min <= 0.0:
        raise StabilityError(
            f"coefficient block matrix is not strictly positive: "
            f"min eigenvalue {d_min:.6e}; real normal-mode frequencies do "
            f"not exist",
            d_min_eigenvalue=d_min,
        )
    q = np.block([[form.alpha, -form.beta], [form.beta, -form.alpha]])
    lam = np.linalg.eigvals(q)
    order = np.argsort(lam.real)
    lam = lam[order]
    # Eigenvalues of a stable form are real and mirror-symmetric about zero.
    pair = float(np.max(np.abs(lam + lam[::-1])))
    residual = max(pair, float(np.max(np.abs(lam.imag))))
    omegas = np.sort(lam.real[n:])
    return BogoliubovResult(
        omegas=omegas, pairing_residual=residual, d_min_eigenvalue=d_min
    )


def quadratic_spectrum(
    form: BosonQuadraticForm, levels: Iterable[Sequence[int]]
) -> np.ndarray:
    """Closed-form energies ``sum_i (n_i + 1/2) Omega_i`` for given levels.

    ``levels`` is an iterable of occupation tuples ordered like the
    ascending ``omegas`` of :func:`bogoliubov_frequencies`.  Matches the
    spectrum of :func:`build_quadratic_hamiltonian` (with the default
    symmetric ordering) up to truncation error.
    """
    result = bogoliubov_frequencies(form)
    energies = []
    for occ in levels:
        occ = np.asarray(tuple(occ), dtype=float)
        if occ.shape != (form.n,):
            raise ValueError(f"each level needs {form.n} occupations")
        if np.any(occ < 0):
            raise ValueError("occupations must be non-negative")
        energies.append(float(np.sum((occ + 0.5) * result.omegas)))
    return np.asarray(energies)


def _su2_terms(space: FockSpace, metric: MetricSpec):
    """Assembler terms of ``(J_plus, J_minus, J_z)``."""
    if space.modes != 2:
        raise ValueError("the su(2) realization needs exactly two modes")
    _check_metric_matches(space, metric)
    g1, g2 = metric.gammas
    return (
        [(np.exp(g1 - g2), (("ad", 0), ("a", 1)))],
        [(np.exp(-(g1 - g2)), (("ad", 1), ("a", 0)))],
        [(0.5, (("n", 0),)), (-0.5, (("n", 1),))],
    )


def schwinger_su2(
    space: FockSpace, metric: MetricSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-boson su(2) generators deformed to be metric-hermitian.

    Returns ``(J_plus, J_minus, J_z)`` with ``J_plus = e^{g1 - g2} a_1^dag
    a_2``, ``J_minus = e^{-(g1 - g2)} a_2^dag a_1`` and ``J_z = (n_1 - n_2)/2``;
    the pair ``J_plus, J_minus`` are metric-adjoints of each other and the
    su(2) commutators hold on every complete total-number sector.
    """
    return tuple(_assemble(space, terms) for terms in _su2_terms(space, metric))


def build_lmg(
    space: FockSpace, metric: MetricSpec, omega0: float, omega: float
) -> np.ndarray:
    """Collective-spin Hamiltonian ``omega0 J_z + omega (J_minus^2 + J_plus^2)``.

    Built from the deformed su(2) generators, so it is pseudo-hermitian with
    respect to the diagonal two-mode metric and block-diagonal in the total
    boson number (fixed-j sectors).
    """
    [(cp, jp)], [(cm, jm)], jz = _su2_terms(space, metric)
    terms = [(omega0 * c, f) for c, f in jz]
    return _assemble(space, terms + [(omega * cm * cm, jm + jm), (omega * cp * cp, jp + jp)])


def total_number_indices(space: FockSpace, total: int) -> np.ndarray:
    """Basis indices of the fixed total occupation sector ``sum_k n_k == total``."""
    if total < 0:
        raise ValueError("total occupation must be non-negative")
    sums = space.occupation_table().sum(axis=1)
    return np.nonzero(sums == total)[0]
