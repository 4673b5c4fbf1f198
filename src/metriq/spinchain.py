"""Spin chains, pseudo-spin sites and lattice fermions with diagonal metrics.

Basis conventions: chain site 0 is the most significant tensor factor and
spin-up (eigenvalue +1/2 of ``S^z``) precedes spin-down at every site; for
fermions the empty state precedes the occupied one.  All metrics built here
(``prod_i exp(-2 gamma_i S_i^z)`` and the fermionic ``prod_i exp(-2 gamma_i
n_i)``) are diagonal in these bases, which keeps every similarity identity
exact in floating point; their builders return the weight vector, and
:func:`chain_unitary` the phase vector of its diagonal unitary.

A chain of ``n`` sites is ``FockSpace(n, 1)`` with its sites in reverse order,
so site ``k`` is bit ``n - 1 - k`` of the basis index (1 is down/occupied).
Site operators and Hamiltonians come from the boson assembler, with no kron
embedding: ``S^+``/``S^-`` lower/raise a bit, and a fermion operator takes its
Jordan-Wigner sign from the parity of the more significant bits.  Builders
state hermitian couplings, deformed by the assembler's rule with the charge
``S^z`` (``n`` for fermions).  Every builder reaches the cap of 12 sites (dim 4096).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bosonic import FockSpace, _assemble, _dense, _guard_overflow, similarity
from .linops import MetricSpec, _coefficients, _finite, _Triplets, is_pseudo_hermitian

__all__ = [
    "MAX_SITES",
    "SpinChainSpec",
    "FermionQuadraticSpec",
    "PseudoSpinSite",
    "spin_matrices",
    "site_occupations",
    "site_spin_ops",
    "pseudo_spin_ops",
    "build_zeta_metric",
    "build_xxz_asymmetric",
    "build_xxz_symmetric",
    "hermitian_counterpart",
    "chain_unitary",
    "gradient_ws",
    "build_haldane_shastry",
    "fermion_ops",
    "fermion_metric",
    "build_fermion_quadratic",
    "suq2_limit",
    "spin_orbit_check",
]

MAX_SITES = 12


def spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-j matrices ``(Sx, Sy, Sz)`` in the standard descending-m basis."""
    if int(2 * j) != 2 * j or j < 0.5:
        raise ValueError("j must be a positive half-integer")
    dim = int(2 * j + 1)
    m = j - np.arange(dim)
    amp = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((dim, dim), dtype=complex)
    sp[np.arange(dim - 1), np.arange(1, dim)] = amp
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    sz = np.diag(m.astype(complex))
    return sx, sy, sz


def _check_chain(n_sites: int, site: int | None = None) -> None:
    if not 1 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must be in [1, {MAX_SITES}]")
    if site is not None and not 0 <= site < n_sites:
        raise ValueError(f"site {site} outside [0, {n_sites})")


def site_spin_ops(n_sites: int, site: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-1/2 operators ``(Sx, Sy, Sz)`` of one chain site."""
    _check_chain(n_sites, site)

    def op(*terms):
        return _assemble_sites(n_sites, [(coef, ((kind, site),)) for kind, coef in terms]).dense()

    return op(("+", 0.5), ("-", 0.5)), op(("+", -0.5j), ("-", 0.5j)), op(("z", 1.0))


def site_occupations(n_sites: int) -> np.ndarray:
    """Bits of every basis index, column ``k`` for site ``k`` (1 is down/occupied)."""
    return FockSpace(n_sites, 1).occupation_table()[:, ::-1]


def _assemble_sites(n_sites: int, terms, ws=None) -> _Triplets:
    """Assemble terms of ``(kind, site)`` factors, deformed by per-site ``ws``."""
    top = n_sites - 1
    terms = [(coef, [(kind, top - k) for kind, k in factors]) for coef, factors in terms]
    return _assemble(FockSpace(n_sites, 1), terms, None if ws is None else np.asarray(ws)[::-1])


@dataclass(frozen=True)
class PseudoSpinSite:
    """A single spin-j site with complex rotation ``beta = delta + 1j chi``."""

    j: float
    beta: complex

    def __post_init__(self):
        if int(2 * self.j) != 2 * self.j or self.j < 0.5:
            raise ValueError("j must be a positive half-integer")
        _finite("beta", complex(self.beta))


def pseudo_spin_ops(site: PseudoSpinSite) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complex-rotated spin triple ``(TX, TY, TZ)``.

    ``TX = cosh(beta) Sx + 1j sinh(beta) Sy``, ``TY = -1j sinh(beta) Sx +
    cosh(beta) Sy``, ``TZ = Sz``.  Equivalently ``T^+- = exp(+-beta) S^+-``,
    so the triple keeps the su(2) algebra and the total-spin Casimir, is
    hermitian for ``exp(-2 Re(beta) Sz)`` and holds ``Re(beta)`` to the overflow guard.
    """
    sx, sy, sz = spin_matrices(site.j)
    c, s = np.cosh(_guard_overflow(site.beta)), np.sinh(site.beta)
    return c * sx + 1j * s * sy, -1j * s * sx + c * sy, sz.copy()


@dataclass(frozen=True)
class SpinChainSpec:
    """Open XXZ-type chain with per-site deformations.

    ``Gamma`` scales the in-plane exchange, ``Delta`` the Ising part;
    ``fields_a/b/c`` are per-site field components and ``ws`` the complex
    per-site deformations ``gamma_i + 1j xi_i``.  Bond terms run over the
    ``n_sites - 1`` nearest-neighbor pairs, field terms over all sites.
    """

    n_sites: int
    gamma_exchange: float = 1.0
    delta: float = 0.0
    fields_a: tuple[float, ...] = ()
    fields_b: tuple[float, ...] = ()
    fields_c: tuple[float, ...] = ()
    ws: tuple[complex, ...] = ()

    def __post_init__(self):
        _check_chain(self.n_sites)  # before any per-site tuple is built
        for name, cast in (("fields_a", float), ("fields_b", float), ("fields_c", float),
                           ("ws", complex)):  # each per-site tuple; an empty one is all zeros
            vals = getattr(self, name)
            out = tuple(map(cast, () if vals is None else vals)) or (cast(0),) * self.n_sites
            if len(out) != self.n_sites:
                raise ValueError(f"{name} must have {self.n_sites} entries, got {len(out)}")
            object.__setattr__(self, name, _finite(name, out))
        _finite("gamma_exchange", self.gamma_exchange)
        _finite("delta", self.delta)

    @property
    def gammas(self) -> tuple[float, ...]:
        return tuple(w.real for w in self.ws)

    @property
    def xis(self) -> tuple[float, ...]:
        return tuple(w.imag for w in self.ws)

    @property
    def dim(self) -> int:
        return 2**self.n_sites


def gradient_ws(n_sites: int, gamma: float, phi: float, xi: float = 0.0) -> tuple[complex, ...]:
    """Deformations ``gamma_k = gamma - k * phi`` with a common phase ``xi``.

    A linear gradient gives every bond the same hopping asymmetry
    ``exp(+-phi)``, the lattice analogue of a uniform drift.
    """
    _check_chain(n_sites)
    return tuple(complex(gamma - k * phi, xi) for k in range(n_sites))


def build_zeta_metric(spec: SpinChainSpec) -> np.ndarray:
    """Weights of the diagonal chain metric ``prod_i exp(-2 gamma_i S_i^z)``."""
    return similarity(0.5 - site_occupations(spec.n_sites), spec.ws)[0]


def _chain_terms(spec: SpinChainSpec) -> list:
    """Assembler terms of the XXZ chain at ``w = 0``: its hermitian counterpart."""
    n = spec.n_sites
    terms = []
    for i in range(n - 1):
        terms.append((spec.gamma_exchange, (("+", i), ("-", i + 1))))
        terms.append((spec.gamma_exchange, (("-", i), ("+", i + 1))))
        terms.append((spec.delta, (("z", i), ("z", i + 1))))
    for i in range(n):
        a, b, c = spec.fields_a[i], spec.fields_b[i], spec.fields_c[i]
        if a == 0.0 and b == 0.0 and c == 0.0:
            continue
        terms.append((0.5 * (a - 1j * b), (("+", i),)))  # a S^x + b S^y
        terms.append((0.5 * (a + 1j * b), (("-", i),)))
        terms.append((c, (("z", i),)))
    return terms


@_dense
def build_xxz_asymmetric(spec: SpinChainSpec) -> np.ndarray:
    """Deformed open XXZ chain with per-site ``w_i``.

    In-plane exchange written with ladder operators carries the weights
    ``exp(+-(w_i - w_{i+1}))``; the transverse fields mix as
    ``(A_i cosh w_i - 1j B_i sinh w_i) S_i^x + (B_i cosh w_i + 1j A_i sinh
    w_i) S_i^y``, i.e. ``(A_i -+ 1j B_i) exp(+-w_i) S_i^+- / 2``: the assembler's
    rule on :func:`hermitian_counterpart`.  Pseudo-hermitian with respect to
    :func:`build_zeta_metric` and isospectral to the counterpart at any size.
    """
    return _assemble_sites(spec.n_sites, _chain_terms(spec), spec.ws)


def build_xxz_symmetric(spec: SpinChainSpec) -> np.ndarray:
    """Uniform-deformation special case: all ``w_i`` equal.

    Bond weights cancel, leaving the undeformed exchange, while the field
    mixing survives.  Raises unless every ``w_i`` matches.
    """
    ws = spec.ws
    if any(w != ws[0] for w in ws):
        raise ValueError("the symmetric chain requires all ws equal")
    return build_xxz_asymmetric(spec)


def hermitian_counterpart(spec: SpinChainSpec) -> np.ndarray:
    """The equivalent hermitian chain: same couplings, undeformed fields."""
    return _assemble_sites(spec.n_sites, _chain_terms(spec)).dense()


def chain_unitary(spec: SpinChainSpec) -> np.ndarray:
    """Phases of the diagonal unitary ``prod_i exp(-1j xi_i S_i^z)``.

    Together with the metric root it maps the deformed chain onto the
    hermitian counterpart: ``(U zeta^{1/2}) H (U zeta^{1/2})^{-1} = h``.
    """
    return similarity(0.5 - site_occupations(spec.n_sites), spec.ws)[1]


@_dense
def build_haldane_shastry(
    n_sites: int, metric: MetricSpec, sign: int = 1
) -> np.ndarray:
    """Inverse-chord-distance exchange ring of deformed spin triples.

    ``H = sign * sum_{i<j} T_i . T_j / (2 sin^2(pi (i - j) / N))`` where the
    per-site triples carry ``T^+- = exp(+-w_i) S^+-``.  With all ``w_i``
    equal to zero this is the standard model; any deformation leaves the
    spectrum untouched.
    """
    _check_chain(n_sites)
    if n_sites < 2:
        raise ValueError("the exchange ring needs at least two sites")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if metric.n != n_sites:
        raise ValueError(f"metric has {metric.n} sites but the chain has {n_sites}")
    terms = []
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            chord = 2.0 * np.sin(np.pi * (i - j) / n_sites) ** 2
            terms.append((sign * 0.5 / chord, (("+", i), ("-", j))))
            terms.append((sign * 0.5 / chord, (("-", i), ("+", j))))
            terms.append((sign / chord, (("z", i), ("z", j))))
    return _assemble_sites(n_sites, terms, metric.ws)


# ---------------------------------------------------------------------------
# Lattice fermions


def fermion_ops(n_sites: int, site: int) -> tuple[np.ndarray, np.ndarray]:
    """Jordan-Wigner fermion pair ``(c, c^dag)`` with ``{c_i, c_j^dag} = delta_ij``.

    Single-site convention: the empty state comes first, so ``c = [[0, 1],
    [0, 0]]``; the string of ``diag(1, -1)`` factors on earlier sites
    enforces anticommutation across sites.
    """
    _check_chain(n_sites, site)
    c = _assemble_sites(n_sites, [(1.0, (("c", site),))]).dense()
    return c, c.conj().T


@dataclass(frozen=True)
class FermionQuadraticSpec:
    """Quadratic fermion form: symmetric hopping ``a``, antisymmetric pairing ``b``."""

    hopping: np.ndarray
    pairing: np.ndarray
    metric: MetricSpec

    def __init__(self, hopping, pairing, metric: MetricSpec):
        _check_chain(metric.n)
        object.__setattr__(self, "hopping", _coefficients("hopping", hopping, metric.n))
        object.__setattr__(self, "pairing", _coefficients("pairing", pairing, metric.n, -1.0))
        object.__setattr__(self, "metric", metric)

    @property
    def n_sites(self) -> int:
        return self.metric.n


def fermion_metric(spec: FermionQuadraticSpec) -> np.ndarray:
    """Weights of the diagonal fermion metric ``prod_i exp(-2 gamma_i n_i)``."""
    return similarity(site_occupations(spec.n_sites), spec.metric.ws)[0]


@_dense
def build_fermion_quadratic(
    spec: FermionQuadraticSpec, deformed: bool = True
) -> np.ndarray:
    """Dense quadratic fermion Hamiltonian.

    ``H = sum_ij A_ij e^{w_i - w_j} c_i^dag c_j + (1/2) sum_ij B_ij
    (e^{w_i + w_j} c_i^dag c_j^dag + e^{-(w_i + w_j)} c_j c_i)``; the second
    pairing term is the weighted adjoint of the first, which keeps the
    ``w = 0`` limit hermitian.  With ``deformed=False`` the weights are
    dropped, giving the hermitian counterpart; the two are isospectral.
    """
    n = spec.n_sites
    terms = []
    for i in range(n):
        for j in range(n):
            a, b = spec.hopping[i, j], 0.5 * spec.pairing[i, j]
            if a != 0.0:
                terms.append((a, (("cd", i), ("c", j))))
            if b != 0.0:
                terms.append((b, (("cd", i), ("cd", j))))
                terms.append((b, (("c", j), ("c", i))))
    return _assemble_sites(n, terms, spec.metric.ws if deformed else None)


def suq2_limit(n_sites: int, q: float, ws: Sequence[complex] = ()) -> SpinChainSpec:
    """Quantum-group-symmetric chain: ``Delta = cosh q`` with boundary fields.

    Unit in-plane exchange, ``C_1 = -sinh q`` and ``C_N = +sinh q`` on the
    two ends, nothing elsewhere.  ``q = 0`` gives the isotropic limit.
    """
    _check_chain(n_sites)
    if n_sites < 2:
        raise ValueError("the boundary-field preset needs at least two sites")
    _finite("q", q)
    fields_c = [0.0] * n_sites
    fields_c[0] = -float(np.sinh(q))
    fields_c[-1] = float(np.sinh(q))
    return SpinChainSpec(
        n_sites=n_sites,
        gamma_exchange=1.0,
        delta=float(np.cosh(q)),
        fields_c=tuple(fields_c),
        ws=tuple(ws),
    )


def spin_orbit_check(
    l: float, s: float, gamma: float, delta: float, xi: float = 0.0, chi: float = 0.0
) -> float:
    """Pseudo-hermiticity residual of a coupled orbital/spin product term.

    Builds ``L . T`` from a complex-rotated orbital triple (rotation
    ``gamma + 1j xi``) and a rotated spin triple (rotation ``delta + 1j
    chi``) and measures the defining residual against the product metric
    ``exp(-2 gamma Lz) (x) exp(-2 delta Sz)``.  Zero rotation must give an
    ordinary hermitian coupling.  The metric comes first, so a rotation past
    the overflow guard is refused before ``cosh``/``sinh`` can overflow.
    """
    orbital = PseudoSpinSite(j=l, beta=complex(gamma, xi))
    spin = PseudoSpinSite(j=s, beta=complex(delta, chi))
    lz_diag = np.diag(spin_matrices(l)[2]).real
    sz_diag = np.diag(spin_matrices(s)[2]).real
    dim_l, dim_s = len(lz_diag), len(sz_diag)
    charges = np.stack([np.repeat(lz_diag, dim_s), np.tile(sz_diag, dim_l)], axis=1)
    eta = np.diag(similarity(charges, [gamma, delta])[0].astype(complex))
    orb, spn = pseudo_spin_ops(orbital), pseudo_spin_ops(spin)
    h = np.zeros((dim_l * dim_s, dim_l * dim_s), dtype=complex)
    for lo, so in zip(orb, spn):
        h += np.kron(lo, so)
    _, residual = is_pseudo_hermitian(h, eta)
    return residual
