"""Check engine: standardized residual checks and report objects.

:func:`run_suite` takes a Hamiltonian and the weight vector of its diagonal
metric and runs the standard battery (metric positivity, pseudo-hermiticity,
spectral reality, isospectrality with the hermitian-equivalent form, eta-norm
conservation under evolution), the last three on one eigendecomposition of
``H``, made sector by sector on the blocks of its exact zero pattern.  With a
diagonal metric every identity is entrywise: ``H^dag eta = eta H`` compares
scaled columns with scaled rows, ``rho = sqrt(eta)`` is the square root of
each weight, and the eta-norm is a weighted sum.  A failed
check becomes a report entry rather than an exception; only structural misuse
(wrong dimensions, invalid arguments) raises.

The module also carries the graded-matrix identities used by secular-matrix
style perturbation setups, where the metric is diagonal with entries
``exp(-2 gamma_i)`` and conjugation by its square root symmetrizes the
weighted matrix.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .linops import (
    COND_LIMIT,
    REALITY_TOL,
    as_operator,
    SpectrumResult,
    as_state,
    spectrum,
)

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCES",
    "CheckResult",
    "VerificationReport",
    "run_suite",
    "GradedMatrix",
    "pseudo_symmetric_symmetrize",
    "graded_conjugation_check",
]

# Deterministic default seed for the random probe states used in the
# evolution check; echoed in every report.
DEFAULT_SEED = 1234

DEFAULT_TOLERANCES: dict[str, float] = {
    "metric_pd": 1e-12,
    "pseudo_hermiticity": 1e-12,
    "reality": REALITY_TOL,
    "isospectrality": 1e-10,
    "eta_norm": 1e-10,
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: residual against its tolerance."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Check results, the suite's wall time and the seed of its probe state."""

    checks: tuple[CheckResult, ...]
    wall_time_s: float
    seed: int
    # spectrum(H) as the checks read it, None if none did
    decomposition: SpectrumResult | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.checks:
            raise ValueError("a report needs at least one check")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _metric_pd_check(w: np.ndarray, tol: float) -> CheckResult:
    vmin, vmax = float(np.min(w)), float(np.max(w))
    residual = max(0.0, -vmin / vmax) if vmax > 0 else np.inf
    passed = bool(residual <= tol and vmin > 0)
    detail = f"min eigenvalue {vmin:.3e}, max {vmax:.3e}"
    return CheckResult("metric_pd", passed, residual, tol, detail)


def _pseudo_hermiticity_check(h: np.ndarray, w: np.ndarray, tol: float) -> CheckResult:
    # H^dag eta - eta H entry by entry; same residual as is_pseudo_hermitian
    rhs = w[:, None] * h
    residual = float(
        np.linalg.norm(h.conj().T * w - rhs) / (1.0 + np.linalg.norm(rhs))
    )
    return CheckResult("pseudo_hermiticity", residual <= tol, residual, tol)


def _reality_check(eigs: SpectrumResult, tol: float) -> CheckResult:
    lam = eigs.eigenvalues
    worst = float(np.max(np.abs(lam.imag) / (1.0 + np.abs(lam))))
    sizes = [len(s.indices) for s in eigs.sectors]
    return CheckResult(
        "reality",
        worst <= tol,
        worst,
        tol,
        f"max |Im| {eigs.max_imag_abs:.3e}, eig residual {eigs.residual:.3e}, "
        f"{len(sizes)} sector{'s' if len(sizes) > 1 else ''}, largest {max(sizes)}",
    )


def _isospectrality_check(
    eigs: SpectrumResult, h: np.ndarray, w: np.ndarray, u, tol: float
) -> CheckResult:
    # F = (U rho) H (U rho)^{-1}, rho = sqrt(eta), U diagonal: hermitian iff H^dag eta = eta H.
    # Diagonal scalings keep H's zero pattern, so F splits on the sectors of eigs.
    u = np.ones(len(w)) if u is None else as_state(u, len(w))
    defect = np.linalg.norm((u.conj() * u).real - 1.0)
    if defect > 1e-10 * len(u):
        raise ValueError(f"u is not unitary: ||u^dag u - I|| = {defect:.3e}")
    root = np.sqrt(w)
    form = (u * root)[:, None] * h * (u.conj() / root)
    herm_defect = float(np.linalg.norm(form - form.conj().T) / (1.0 + np.linalg.norm(form)))
    lam_h = eigs.eigenvalues
    lam_f = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in eigs.blocks(form)]))
    dev = float(np.max(np.abs(lam_h - lam_f)))
    residual = max(dev / (1.0 + float(np.max(np.abs(lam_h)))), herm_defect)
    return CheckResult(
        "isospectrality", residual <= tol, residual, tol,
        f"max eigenvalue deviation {dev:.3e}, hermiticity defect {herm_defect:.3e}",
    )


def _eta_norm_check(eigs: SpectrumResult, w: np.ndarray, tol: float, seed: int) -> CheckResult:
    grid = np.linspace(0.0, 10.0, 32)
    rng = np.random.default_rng(seed)
    psi0 = rng.normal(size=len(w)) + 1j * rng.normal(size=len(w))
    psi0 /= np.linalg.norm(psi0)
    traj = eigs.evolve(psi0, grid)
    norms = np.array([np.vdot(v, w * v).real for v in traj])
    residual = float(np.max(np.abs(norms - norms[0])) / abs(norms[0]))
    return CheckResult(
        "eta_norm", residual <= tol, residual, tol,
        f"{len(grid)} time points on [{grid[0]:g}, {grid[-1]:g}]",
    )


def run_suite(
    h,
    w,
    u=None,
    *,
    checks: Sequence[str] | None = None,
    tolerances: Mapping[str, float] | None = None,
    seed: int = DEFAULT_SEED,
    extra_checks: Sequence[CheckResult] = (),
) -> VerificationReport:
    """Run the standard check battery on ``H`` and the diagonal metric ``diag(w)``.

    Parameters
    ----------
    h : array_like
        Hamiltonian, a square matrix.
    w : array_like
        Real weights, the diagonal of the metric: ``eta = diag(w)``.
    u : array_like, optional
        Phases of the diagonal unitary in the hermitian-equivalence map
        ``(U rho) H (U rho)^{-1}``; default all ones.
    checks : sequence of str, optional
        Subset (in any order) of ``DEFAULT_TOLERANCES`` keys; default all.
    tolerances : mapping, optional
        Per-check tolerance overrides.
    seed : int
        Seed for the random probe state of the eta-norm check, which samples
        32 times on [0, 10].
    extra_checks : sequence of CheckResult
        Pre-computed results to append (e.g. model-specific checks).

    Returns a :class:`VerificationReport`; failing checks are entries, not
    exceptions.  A metric whose condition number ``max(w) / min(w)``
    exceeds ``COND_LIMIT`` fails pseudo_hermiticity and isospectrality.
    Isospectrality also fails on the hermiticity defect of the mapped form.
    A dense metric goes through the ``linops`` functions instead.
    """
    h = as_operator(h)
    w = np.asarray(w)
    if w.ndim != 1 or np.iscomplexobj(w) or not np.all(np.isfinite(w)):
        raise ValueError("metric weights must be a real, finite 1-D vector")
    if len(w) != len(h):
        raise ValueError(
            f"dimension mismatch: H is {len(h)}-dimensional, "
            f"metric is {len(w)}-dimensional"
        )
    w = w.astype(float)
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        tols.update({k: float(v) for k, v in tolerances.items()})
    selected = list(checks) if checks is not None else list(DEFAULT_TOLERANCES)
    unknown = set(selected) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise ValueError(f"unknown check names: {sorted(unknown)}")
    kappa = float(np.max(w) / np.min(w)) if np.min(w) > 0 else np.inf
    decompose = functools.cache(lambda: spectrum(h))  # on first use, then shared
    run = {
        "metric_pd": lambda tol: _metric_pd_check(w, tol),
        "pseudo_hermiticity": lambda tol: _pseudo_hermiticity_check(h, w, tol),
        "reality": lambda tol: _reality_check(decompose(), tol),
        "isospectrality": lambda tol: _isospectrality_check(decompose(), h, w, u, tol),
        "eta_norm": lambda tol: _eta_norm_check(decompose(), w, tol, seed),
    }

    started = time.perf_counter()
    results: list[CheckResult] = []
    for name in selected:
        try:
            if name in ("pseudo_hermiticity", "isospectrality") and kappa > COND_LIMIT:
                raise ValueError(
                    f"metric condition number {kappa:.3e} exceeds limit {COND_LIMIT:.1e}"
                )
            results.append(run[name](tols[name]))
        except (ValueError, np.linalg.LinAlgError) as exc:
            results.append(CheckResult(name, False, np.inf, tols[name], f"failed: {exc}"))
    results.extend(extra_checks)
    elapsed = time.perf_counter() - started
    return VerificationReport(
        checks=tuple(results),
        wall_time_s=elapsed,
        seed=seed,
        decomposition=decompose() if decompose.cache_info().currsize else None,
    )


# ---------------------------------------------------------------------------
# Graded (weighted) matrix identities


@dataclass(frozen=True)
class GradedMatrix:
    """A matrix of the form ``M_ij = a_ij exp(gamma_i - gamma_j)``.

    ``core`` is the real symmetric coefficient matrix and ``grades`` the
    per-index exponents.  The realized matrix is non-symmetric but shares
    the (real) spectrum of ``core``.
    """

    core: np.ndarray
    grades: np.ndarray

    def __init__(self, core, grades):
        core = np.asarray(core, dtype=float)
        grades = np.asarray(grades, dtype=float)
        if core.ndim != 2 or core.shape[0] != core.shape[1]:
            raise ValueError("core must be a square matrix")
        if grades.shape != (core.shape[0],):
            raise ValueError(
                f"grades must have length {core.shape[0]}, got {grades.shape}"
            )
        if not (np.all(np.isfinite(core)) and np.all(np.isfinite(grades))):
            raise ValueError("core and grades must be finite")
        bad = np.abs(core - core.T)
        if np.any(bad > 0):
            i, j = np.unravel_index(np.argmax(bad), core.shape)
            raise ValueError(f"core must be symmetric: entry [{i}][{j}]")
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "grades", grades)

    @property
    def realized(self) -> np.ndarray:
        """The weighted matrix ``core * exp(grades_i - grades_j)``."""
        w = np.exp(self.grades)
        return self.core * np.outer(w, 1.0 / w)

    @property
    def metric_weights(self) -> np.ndarray:
        """Diagonal of the associated metric, ``exp(-2 gamma_i)``."""
        return np.exp(-2.0 * self.grades)


def pseudo_symmetric_symmetrize(m: GradedMatrix) -> np.ndarray:
    """Undo the grading: conjugate by ``diag(exp(-gamma_i))``.

    Returns ``rho @ realized @ rho^{-1}``, which recovers the symmetric
    core exactly (the exponents cancel entry by entry), proving the
    realized matrix has a real spectrum.
    """
    rho = np.exp(-m.grades)
    return (rho[:, None] * m.realized) * (1.0 / rho)[None, :]


def graded_conjugation_check(
    x, grading, gamma: float, cycles: Sequence[Sequence[int]] = ()
) -> float:
    """Residual of the graded conjugation identity.

    For an integer grading ``m_i`` (given as a vector or a diagonal matrix)
    and ``rho = diag(exp(-gamma m_i))`` the conjugated matrix obeys
    ``(rho^{-1} X rho)_ij = exp((m_i - m_j) gamma) X_ij`` entry by entry;
    products around closed index cycles are therefore invariant.  Returns
    the worst absolute deviation over all entries and the requested cycles.
    """
    x = as_operator(x)
    m = np.asarray(grading)
    if m.ndim == 2:
        off = m - np.diag(np.diag(m))
        if np.any(off != 0):
            raise ValueError("grading matrix must be diagonal")
        m = np.diag(m)
    m = m.astype(float)
    if m.shape != (x.shape[0],):
        raise ValueError(f"grading must have length {x.shape[0]}, got {m.shape}")
    if np.any(m != np.round(m)):
        raise ValueError("grading entries must be integers")
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")
    rho = np.diag(np.exp(-gamma * m))
    rho_inv = np.diag(np.exp(gamma * m))
    conj = rho_inv @ x @ rho
    expected = x * np.exp(gamma * (m[:, None] - m[None, :]))
    worst = float(np.max(np.abs(conj - expected)))
    for cycle in cycles:
        idx = list(cycle)
        if len(idx) < 2:
            raise ValueError("cycles need at least two indices")
        prod_conj = 1.0 + 0.0j
        prod_bare = 1.0 + 0.0j
        for a, b in zip(idx, idx[1:] + idx[:1]):
            prod_conj *= conj[a, b]
            prod_bare *= x[a, b]
        worst = max(worst, abs(prod_conj - prod_bare))
    return worst
