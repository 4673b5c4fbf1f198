"""Dense operator algebra for quantum systems with a modified inner product.

A *metric* is a hermitian positive-definite matrix ``eta`` that redefines the
inner product as ``<psi, eta phi>``; an operator ``A`` is hermitian with
respect to that product when ``A^dag eta == eta A``.  This module holds the
generic machinery for a metric given as an explicit complex matrix, such as
one a user supplies: metric validation and square roots, eta-adjoints,
similarity maps to an ordinary hermitian operator, plus spectra and time
evolution.  A spectrum splits the basis into the connected components of the
matrix's exact nonzero pattern, read off its nonzeros, and makes each one dense and
decomposes it on its own, so a conserved quantity is found from the matrix, not from
a model label; :func:`eigenvalues` does the same without eigenvectors.  The package's
model builders give their diagonal metrics as weight vectors ``w`` instead (``eta =
diag(w)``), which :func:`metriq.verify.run_suite` checks entry by entry.

Conventions
-----------
* Operators are square 2-D ``numpy`` arrays, states are 1-D arrays, both
  ``complex128``; a sector that a phase gauge makes real is solved as real.
  A model's ``H`` reaches the spectra and the checks as its nonzeros instead.
* Functions are pure: inputs are never mutated.
* Eigenvalues are always reported sorted by (real part, imaginary part).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "EPS_PD",
    "COND_LIMIT",
    "REALITY_TOL",
    "BLOCK",
    "DEFAULT_TOL",
    "NotHermitianError",
    "NotPositiveDefiniteError",
    "SingularMetricError",
    "DefectiveMatrixError",
    "MetricSpec",
    "Sector",
    "SpectrumResult",
    "InnerProductSpace",
    "as_operator",
    "as_state",
    "commutator",
    "anticommutator",
    "eta_adjoint",
    "is_pseudo_hermitian",
    "matrix_sqrt_pd",
    "modified_inner",
    "to_hermitian",
    "map_observable",
    "spectrum",
    "eigenvalues",
    "evolve",
]

# Relative floor below which a metric eigenvalue counts as non-positive.
EPS_PD = 1e-12
# Condition-number ceiling for dense metrics and eigenvector matrices.  Beyond
# this the computation is refused rather than silently degraded.
COND_LIMIT = 1e14
# An eigenvalue counts as real when |Im(lam)| <= REALITY_TOL * (1 + |lam|).
REALITY_TOL = 1e-9
# G = D A D^* of a non-normal A goes to real eig only if ||Im G||_F <= eps ||G||_F:
# the dropped part is then within the rounding already in A, so the real solve is
# backward stable for A as the complex one is; Bauer-Fike amplifies both by cond(V).
_EPS = np.finfo(float).eps
# Default relative tolerance for residual checks.
DEFAULT_TOL = 1e-12
# Columns per slice of :func:`spectrum`'s residual: 8 MiB of a dim-4096 sector, not 256 MiB.
BLOCK = 128


class NotHermitianError(ValueError):
    """A matrix that must be hermitian is not (within tolerance)."""


class NotPositiveDefiniteError(ValueError):
    """A metric candidate has a non-positive eigenvalue.

    The offending smallest eigenvalue is attached as ``min_eigenvalue``.
    """

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = float(min_eigenvalue)


class SingularMetricError(ValueError):
    """A metric is numerically singular (condition number too large)."""


class DefectiveMatrixError(ValueError):
    """A matrix has no well-conditioned eigenbasis; evolution is refused."""


def as_operator(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix.

    Raises ``ValueError`` for non-square or non-finite input.
    """
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("operator dimension must be positive")
    return _finite("operator", arr)


def _finite(name: str, x):
    """``x``; raises ``ValueError`` unless every entry of it, real or complex, is finite."""
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def _coefficients(name: str, m, n: int | None = None, sign: float = 1.0) -> np.ndarray:
    """``m`` as a real ``n x n`` (without ``n``, square) coefficient matrix, finite and equal
    to ``sign`` times its transpose; raises ``ValueError`` naming the first entry that is not."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or n not in (None, m.shape[0]):
        raise ValueError(f"{name} must be {'square' if n is None else f'{n}x{n}'}, got {m.shape}")
    bad = np.argwhere(~np.isfinite(m) | (m != sign * m.T))
    if len(bad):
        (i, j), rule = bad[0], "symmetric" if sign > 0 else "antisymmetric"
        raise ValueError(f"{name} must be finite and {rule}: "
                         f"{name}[{i}][{j}] = {m[i, j]:g}, {name}[{j}][{i}] = {m[j, i]:g}")
    return m


def as_state(v, dim: int | None = None) -> np.ndarray:
    """Validate and return ``v`` as a 1-D complex vector of length ``dim``."""
    vec = np.asarray(v, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-D state vector, got shape {vec.shape}")
    if dim is not None and vec.shape[0] != dim:
        raise ValueError(f"state has length {vec.shape[0]}, operator expects {dim}")
    return _finite("state", vec)


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    return a @ b + b @ a


def _check_same_dim(a: np.ndarray, b: np.ndarray, what: str, name: str = "operator") -> None:
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {name} is {a.shape[0]}-dimensional, "
                         f"{what} is {b.shape[0]}-dimensional")


def _require_hermitian(a: np.ndarray, tol: float, what: str) -> None:
    if np.linalg.norm(a - a.conj().T) > tol * max(1.0, np.linalg.norm(a)):
        raise NotHermitianError(f"{what} is not hermitian within tolerance {tol}")


@dataclass(frozen=True)
class MetricSpec:
    """Per-mode exponents defining a diagonal-family metric.

    ``gammas[i]`` sets the real deformation of mode/site ``i`` and ``xis[i]``
    the accompanying phase; the combination ``w_i = gamma_i + 1j * xi_i``
    enters the model builders.  Entries must be finite and the two tuples
    must have equal length.
    """

    gammas: tuple[float, ...]
    xis: tuple[float, ...]

    def __init__(self, gammas: Sequence[float], xis: Sequence[float] | None = None):
        g = tuple(float(x) for x in gammas)
        x = tuple(float(v) for v in xis) if xis is not None else (0.0,) * len(g)
        if len(g) != len(x):
            raise ValueError(f"gammas has length {len(g)} but xis has length {len(x)}")
        if not g:
            raise ValueError("MetricSpec needs at least one mode")
        object.__setattr__(self, "gammas", _finite("gammas", g))
        object.__setattr__(self, "xis", _finite("xis", x))

    @property
    def n(self) -> int:
        return len(self.gammas)

    @property
    def ws(self) -> np.ndarray:
        """Complex deformation parameters ``gamma + 1j * xi`` per mode."""
        return np.asarray(self.gammas) + 1j * np.asarray(self.xis)


class Sector(NamedTuple):
    """One invariant block: basis indices, their eigenvalues, right eigenvectors.

    ``eigenvectors`` holds the columns restricted to ``indices``; outside
    them every eigenvector of the sector is exactly zero.
    """

    indices: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigensystem plus quality-of-solution diagnostics.

    Attributes
    ----------
    eigenvalues : ndarray
        Complex eigenvalues sorted by (real, imaginary) part.
    sectors : tuple of Sector
        The connected components of the matrix's nonzero pattern, ordered by
        their smallest index, each with its own eigenvalues and eigenvectors.
    max_imag_abs : float
        Largest absolute imaginary part, for quick reality checks.
    residual : float
        Largest 2-norm of ``A v - lam v`` over the computed unit eigenvectors.
    """

    eigenvalues: np.ndarray
    sectors: tuple[Sector, ...]
    max_imag_abs: float
    residual: float
    # per sector, _pattern_components' phases if it went to real eig, else None (set by spectrum)
    _gauge: tuple[np.ndarray | None, ...] = field(default=(), init=False, repr=False, compare=False)

    def is_real(self, tol: float = REALITY_TOL) -> bool:
        """True when every eigenvalue satisfies |Im| <= tol * (1 + |lam|)."""
        lam = self.eigenvalues
        return bool(np.all(np.abs(lam.imag) <= tol * (1.0 + np.abs(lam))))

    def evolve(self, psi0, times) -> np.ndarray:
        """Evolve ``psi0`` under ``exp(-i A t)`` for each ``t`` in ``times``.

        ``psi0`` is expanded in the eigenvectors sector by sector, so a basis
        whose exact condition number (max over min singular value of all
        sectors) exceeds ``COND_LIMIT`` is refused as defective.  Returns
        shape ``(len(times), dim)``; ``t == 0`` rows reproduce ``psi0``
        exactly.
        """
        psi0 = as_state(psi0, len(self.eigenvalues))
        tgrid = np.atleast_1d(np.asarray(times, dtype=float))
        if tgrid.ndim != 1:
            raise ValueError("times must be a 1-D sequence")
        _finite("times", tgrid)
        # a sector solved as real G holds conj(d) * v_G: D is unitary, so take the real v_G
        sigma = np.concatenate([
            np.linalg.svd(vecs if d is None else (d[:, None] * vecs).real, compute_uv=False)
            for (_, _, vecs), d in zip(self.sectors, self._gauge or [None] * len(self.sectors))
        ])
        cond = sigma.max() / sigma.min() if sigma.min() > 0 else np.inf
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise DefectiveMatrixError(f"eigenvector matrix condition {cond:.3e} exceeds "
                                       f"{COND_LIMIT:.1e}; matrix is numerically defective")
        out = np.empty((len(tgrid), len(psi0)), dtype=complex)
        for idx, lam, vecs in self.sectors:
            coeff = np.linalg.solve(vecs, psi0[idx])
            out[:, idx] = (np.exp(-1j * np.outer(tgrid, lam)) * coeff) @ vecs.T
        out[tgrid == 0.0] = psi0
        return out


class InnerProductSpace(NamedTuple):
    """A validated metric together with its positive square root.

    ``rho = sqrt(metric)`` is the hermitian positive root and
    ``rho_inverse`` its inverse; both are computed from one eigenvalue
    decomposition so that ``rho @ rho`` reproduces the metric to rounding.
    """

    metric: np.ndarray
    rho: np.ndarray
    rho_inverse: np.ndarray

    @property
    def dim(self) -> int:
        return self.metric.shape[0]


def _with_metric(a, eta) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and a dense metric ``eta`` as operators of one dimension; raises unless ``eta``
    is hermitian and its condition number is within ``COND_LIMIT``."""
    a, eta = as_operator(a), as_operator(eta)
    _check_same_dim(a, eta, "metric")
    _require_hermitian(eta, 1e-10, "metric")
    cond = np.linalg.cond(eta)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMetricError(f"metric condition number {cond:.3e} exceeds limit "
                                  f"{COND_LIMIT:.1e}")
    return a, eta


def eta_adjoint(a, eta) -> np.ndarray:
    """Adjoint of ``a`` with respect to the metric: ``eta^{-1} a^dag eta``.

    The map is an involution and reduces to the ordinary adjoint for
    ``eta = I``.  Raises on dimension mismatch, non-hermitian or numerically
    singular ``eta``.
    """
    a, eta = _with_metric(a, eta)
    return np.linalg.solve(eta, a.conj().T @ eta)


def is_pseudo_hermitian(a, eta, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Test ``a^dag eta == eta a`` and return ``(passed, residual)``.

    The residual is ``||a^dag eta - eta a||_F / (1 + ||eta a||_F)``, so the
    test is relative for large operators but remains meaningful near zero.
    """
    a, eta = _with_metric(a, eta)
    lhs, rhs = a.conj().T @ eta, eta @ a
    residual = float(np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(rhs)))
    return residual <= tol, residual


def matrix_sqrt_pd(eta) -> InnerProductSpace:
    """Validate a metric and compute its positive square root.

    Uses a hermitian eigendecomposition; eigenvalues must exceed
    ``EPS_PD`` times the largest one, otherwise
    :class:`NotPositiveDefiniteError` reports the smallest eigenvalue.
    """
    eta = as_operator(eta)
    _require_hermitian(eta, 1e-10, "metric")
    vals, vecs = np.linalg.eigh(eta)
    vmin, vmax = float(vals[0]), float(vals[-1])
    if vmax <= 0.0 or vmin <= EPS_PD * vmax:
        raise NotPositiveDefiniteError(f"metric is not positive definite: min eigenvalue "
                                       f"{vmin:.6e} (max {vmax:.6e})", min_eigenvalue=vmin)
    root = np.sqrt(vals)
    rho, rho_inv = (vecs * root) @ vecs.conj().T, (vecs / root) @ vecs.conj().T
    # Symmetrize away the last rounding asymmetry.
    rho, rho_inv = 0.5 * (rho + rho.conj().T), 0.5 * (rho_inv + rho_inv.conj().T)
    return InnerProductSpace(metric=eta, rho=rho, rho_inverse=rho_inv)


def modified_inner(psi, phi, eta) -> complex:
    """Inner product ``<psi, eta phi>``; conjugate-linear in ``psi``."""
    eta = as_operator(eta)
    psi = as_state(psi, eta.shape[0])
    phi = as_state(phi, eta.shape[0])
    return complex(np.vdot(psi, eta @ phi))


def to_hermitian(h, space: InnerProductSpace, u=None) -> np.ndarray:
    """Map ``h`` to its hermitian-equivalent form ``(u rho) h (u rho)^{-1}``.

    ``space`` carries the metric square root; ``u`` is an optional unitary
    used to tidy residual phase factors and defaults to the identity.  The
    output is isospectral with ``h`` and is hermitian precisely when ``h``
    is pseudo-hermitian with respect to ``space.metric``.
    """
    h = as_operator(h)
    _check_same_dim(h, space.metric, "inner-product space")
    if u is None:
        left, right = space.rho, space.rho_inverse
    else:
        u = as_operator(u)
        _check_same_dim(h, u, "unitary")
        defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
        if defect > 1e-10 * u.shape[0]:
            raise ValueError(f"u is not unitary: ||u^dag u - I|| = {defect:.3e}")
        left = u @ space.rho
        right = space.rho_inverse @ u.conj().T
    return left @ h @ right


def map_observable(bhat, space: InnerProductSpace) -> np.ndarray:
    """Pull a hermitian observable back to the metric representation.

    Returns ``rho^{-1} bhat rho``, which is pseudo-hermitian with respect to
    ``space.metric`` and preserves commutators: the map is an algebra
    isomorphism.  ``bhat`` must be hermitian.
    """
    bhat = as_operator(bhat)
    _check_same_dim(bhat, space.metric, "inner-product space", "observable")
    _require_hermitian(bhat, 1e-10, "observable")
    return space.rho_inverse @ bhat @ space.rho


class _Triplets(NamedTuple):
    """A square matrix as its nonzeros, ``a[rows[k], cols[k]] = vals[k]``, sorted by row, then
    column: the form in which a model's ``H`` reaches the checks, with no ``dim**2`` array."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def of(cls, a) -> _Triplets:
        """``a`` if it is triplets, else the nonzeros of ``as_operator(a)``."""
        if isinstance(a, cls):
            return a
        rows, cols = np.divmod(np.flatnonzero(a := as_operator(a)), len(a))
        return cls(len(a), rows, cols, a[rows, cols])

    def dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out

    def finder(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """A lookup of the entries at ``(rows, cols)``: their positions, -1 where the entry is
        zero.  It searches the sorted keys ``rows * dim + cols``, built once per finder."""
        keys = self.rows * self.dim + self.cols

        def find(rows, cols) -> np.ndarray:
            at = np.searchsorted(keys, want := rows * self.dim + cols)
            at[(keys.take(at, mode="clip") if len(keys) else -1) != want] = -1
            return at
        return find

    def sector(self, idx: np.ndarray) -> _Triplets:
        """The principal block on ``idx``, numbered in its order, a set that no entry links
        outside."""
        if np.array_equal(idx, np.arange(self.dim)):  # the whole matrix, shared, not copied
            return self
        at = np.full(self.dim, -1)
        at[idx] = np.arange(len(idx))
        held = at[self.rows] >= 0
        rows, cols = at[self.rows[held]], at[self.cols[held]]
        order = np.argsort(rows * len(idx) + cols, kind="stable")  # identity for a sorted idx
        return _Triplets(len(idx), rows[order], cols[order], self.vals[held][order])


def _real_form(b: _Triplets, d, bound: float) -> tuple[_Triplets, float] | None:
    """``Re(d_i b_ij conj(d_j))`` (``Re b`` if ``d`` is None; the product formed in place) and
    the ``||Im||_F`` it drops, if that is ``<= bound``."""
    x = b.vals if d is None else np.multiply(x := d[b.rows] * b.vals, d.conj()[b.cols], out=x)
    im = float(np.linalg.norm(x.imag))
    return (b._replace(vals=x.real), im) if im <= bound else None


def _pattern_components(t: _Triplets) -> tuple[list[np.ndarray], np.ndarray]:
    """Connected components of ``t``'s exact nonzero pattern (``i ~ j`` when ``a[i, j] != 0``
    or ``a[j, i] != 0``; no tolerance) by smallest index, and unit phases ``d``: ``d_i a_ij
    conj(d_j) > 0`` on the edges of breadth-first trees from each component's smallest index."""
    i, j = np.concatenate([t.rows, t.cols]), np.concatenate([t.cols, t.rows])
    root, last = np.arange(t.dim), None
    while not np.array_equal(root, last):  # the least root among the links, then its own root
        last, root = root, root.copy()
        np.minimum.at(root, i, last[j])
        root = root[root]
    roots = root == np.arange(t.dim)
    d, seen, frontier, find = np.ones(t.dim, dtype=complex), roots, roots, t.finder()
    while frontier.any():  # from every root at once, one level per pass
        link = frontier[i] & ~seen[j]
        parent = np.full(t.dim, t.dim)
        np.minimum.at(parent, j[link], i[link])  # least linked: one search per component's tree
        frontier = parent < t.dim
        new, seen = np.flatnonzero(frontier), seen | frontier
        p, at = parent[new], find(parent[new], new)
        z = d[p] * np.where(at >= 0, t.vals[at], t.vals[find(new, p)].conj())
        d[new] = z / np.abs(z)
    return [np.flatnonzero(root == r) for r in np.flatnonzero(roots)], d


def _sorted(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by (real, imaginary) part."""
    return vals[np.lexsort((vals.imag, vals.real))]


def spectrum(a) -> SpectrumResult:
    """Full eigensystem of a general complex matrix, sector by sector.

    The basis splits into the connected components of the exact nonzero pattern of ``a``;
    each component's principal submatrix, made dense from its nonzeros, goes to
    ``np.linalg.eig`` on its own, as the real ``G = D A D^*`` if the pattern's phases ``d``
    give ``||Im G||_F <= eps ||G||_F`` (eigenvectors ``conj(d) * v_G``).  Eigenvalues are
    sorted by (real, imaginary) part.  The residual, the worst ``||A v - lam v||`` over the
    unit right eigenvectors on ``a``'s own blocks, is formed ``BLOCK`` columns at a time.
    """
    t = _Triplets.of(a)
    sectors, d = _pattern_components(t)
    out, residual, gauge = [], 0.0, []
    for idx in sectors:
        b = t.sector(idx)
        g = _real_form(b, d[idx], _EPS * np.linalg.norm(b.vals))
        block = b.dense()
        vals, vecs = np.linalg.eig(block if g is None else g[0].dense())
        gauge.append(None if g is None else d[idx])
        if g is not None:
            vals, vecs = vals.astype(complex), d[idx, None].conj() * vecs
        for c in range(0, len(idx), BLOCK):
            v = vecs[:, c : c + BLOCK]
            res = np.linalg.norm(block @ v - v * vals[c : c + BLOCK], axis=0)
            norms = np.linalg.norm(v, axis=0)
            residual = max(residual, float(np.max(res / np.where(norms > 0, norms, 1.0))))
        out.append(Sector(idx, vals, vecs))
    lam = _sorted(np.concatenate([s.eigenvalues for s in out]))
    result = SpectrumResult(lam, tuple(out), float(np.max(np.abs(lam.imag))), residual)
    object.__setattr__(result, "_gauge", tuple(gauge))
    return result


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues of :func:`spectrum`, on the same sectors, in the same order.

    Each sector goes to ``np.linalg.eigvals``, which forms no eigenvectors,
    so this costs less time and memory than :func:`spectrum` when only the
    eigenvalues are read; it goes as its real gauge form under the same bound.
    """
    return _eigenvalues(_Triplets.of(a))[0]


def _eigenvalues(t: _Triplets) -> tuple[np.ndarray, list[int]]:
    """:func:`eigenvalues` of ``t``, and the sizes of the sectors that its one walk found."""
    sectors, d = _pattern_components(t)
    blocks = ((t.sector(idx), d[idx]) for idx in sectors)
    reads = ((_real_form(b, di, _EPS * np.linalg.norm(b.vals)) or (b,))[0] for b, di in blocks)
    lam = [np.linalg.eigvals(g.dense()) for g in reads]
    return _sorted(np.concatenate(lam).astype(complex)), [len(idx) for idx in sectors]


def evolve(h, psi0, times) -> np.ndarray:
    """Evolve ``psi0`` under ``exp(-i h t)``: :func:`spectrum`, then its ``evolve``."""
    return spectrum(h).evolve(psi0, times)
