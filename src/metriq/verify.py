"""Check engine: standardized residual checks and report objects.

:func:`run_suite` takes a Hamiltonian and the weight vector of its diagonal
metric and runs the standard battery (metric positivity, pseudo-hermiticity,
spectral reality, isospectrality with the hermitian-equivalent form, eta-norm
conservation under evolution).  With a diagonal metric every identity reads
off one pass over the nonzeros of ``F = rho H rho^{-1}``, which has ``H``'s
pattern: ``H^dag eta = eta H`` iff ``F`` is hermitian, and ``||F - F^dag||``
bounds how far ``H``'s spectrum can be from real and from that of ``F``'s
hermitian read, and the eta-norm from conserved.  A diagonal unitary would
change neither hermiticity nor spectrum, so none is taken, and no check that
its bound certifies solves an eigenproblem.  A bound that misses its
tolerance reads ``F``'s nonzeros instead, whose eigenvectors, unlike ``H``'s,
do not carry the metric's condition, and ``H``'s only where ``F`` has no
finite form: the eta-norm alone decomposes it, and reality and isospectrality,
like a spectrum past that tolerance, read only its eigenvalues, the
decomposition's where the eta-norm formed it and else ``eigenvalues``, which
forms no eigenvectors.  :func:`run_suite` and :func:`hermitian_form_eigenvalues`
(the spectrum without checks) wrap one reader of a point, which states that
rule once and forms ``F``, its decomposition, its eigenvalues and its sectors'
``eigvalsh`` read each on first use; the CLI calls it once per sweep point.
That spectrum is ``eigvalsh`` of each sector of ``F``, made dense alone, or of
the blocks that one fold by the index reversal ``J`` (a chain's spin flip), the
bit reversal ``R`` (its site reflection) and ``JR`` splits it into, each where
it keeps the sector's real read within the Weyl floor; what it drops joins the
Weyl term.  ``H`` itself is not ``J``- or ``R``-symmetric under a non-uniform
metric.  A failed check becomes a report entry rather than an exception; only
structural misuse (wrong dimensions, a malformed ``w``, invalid arguments)
raises.

The module also carries the graded-matrix identities used by secular-matrix
style perturbation setups, where the metric is diagonal with entries
``exp(-2 gamma_i)`` and conjugation by its square root symmetrizes the
weighted matrix.
"""
from __future__ import annotations

import contextlib
import functools
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .bosonic import _guard_overflow, similarity
from .linops import REALITY_TOL, NotPositiveDefiniteError, as_operator, spectrum
from .linops import _EPS, _coefficients, _eigenvalues, _pattern_components, _real_form, _Triplets

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCES",
    "REAL_FORM_TOL",
    "CheckResult",
    "VerificationReport",
    "run_suite",
    "hermitian_form_eigenvalues",
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


class CheckResult(NamedTuple):
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

    def __post_init__(self):
        if not self.checks:
            raise ValueError("a report needs at least one check")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _weights(w, dim: int) -> np.ndarray:
    """``w`` as floats; raises unless it is real, finite, 1-D and of length ``dim``."""
    w = np.asarray(w)
    if w.ndim != 1 or np.iscomplexobj(w) or not np.all(np.isfinite(w)):
        raise ValueError("metric weights must be a real, finite 1-D vector")
    if len(w) != dim:
        raise ValueError(f"dimension mismatch: H is {dim}-dimensional, "
                         f"metric is {len(w)}-dimensional")
    return w.astype(float)


# Each entry of F, formed as (H_ij sqrt(w_i)) (1 / sqrt(w_j)), is within 5u (u = eps / 2) of
# the exact similarity, from its two roots, the reciprocal and the two products; c = 16 also
# covers the 10u more of the real gauge read that a spectrum may make of a sector.
_F_ROUNDING = 16 * _EPS
# eigvalsh reads a hermitian F's lower triangle, S + iA with A antisymmetric; by
# Weyl, reading S moves each eigenvalue by <= ||A||_2 <= sqrt(2) ||Im F||_F, so F
# is read as real when that is within _weyl_floor, whose scale this is.
REAL_FORM_TOL = 1e-13
_GRID = np.linspace(0.0, 10.0, 32)  # the eta-norm check's times, on [0, T]


class _HermitianForm(NamedTuple):
    """``F = rho H rho^{-1}`` as its nonzeros, and the norms every check reads off it."""

    f: _Triplets
    defect: float  # ||F - F^dag||_F
    norm: float  # ||F||_F
    anti: float  # >= ||F_a||_2, F_a = (F - F^dag) / 2 of the exact F


class _Solved(NamedTuple):
    """Sorted ``eigvalsh`` of ``F``'s sectors, and ``F`` as a later sweep point compares it."""

    eigenvalues: np.ndarray
    weyl: float  # the most any sector's eigenvalues moved by its reads' drops and its solves
    f: _Triplets
    d: np.ndarray  # the phases of F's pattern, which put F in its gauge D F D^*


def _metric_pd_check(w: np.ndarray, tol: float) -> CheckResult:
    vmin, vmax = float(np.min(w)), float(np.max(w))
    residual = max(0.0, -vmin / vmax) if vmax > 0 else np.inf
    passed = bool(residual <= tol and vmin > 0)
    detail = f"min eigenvalue {vmin:.3e}, max {vmax:.3e}"
    return CheckResult("metric_pd", passed, residual, tol, detail)


# Each entry of a fold's block sums at most four terms x c_r c_c / sqrt(n_r n_c) of g's entries,
# each within 2u of exact, so within gamma_5 of their moduli's sum; their squares sum to at most
# ||g||_F^2 over both blocks, so by Weyl each fold moves eigenvalues by <= 2 gamma_5 ||g||_F.
_FOLD_ROUNDING = 5 * _EPS


def _weyl_floor(norm: float, m: int) -> float:
    """The most a read of a hermitian block of size ``m`` and Frobenius norm ``norm`` may move
    its eigenvalues by what it drops: ``REAL_FORM_TOL (1 + norm / sqrt m)``."""
    return REAL_FORM_TOL * (1.0 + norm / np.sqrt(m))


def _real_read(b: _Triplets, d: np.ndarray) -> tuple[_Triplets, float | None]:
    """What ``eigvalsh`` reads of the hermitian block ``b``, its lower triangle mirrored, sorted:
    of its real part, else its real form under ``d``, if the ``sqrt 2 ||Im||_F`` that drops is
    within the Weyl floor, with that drop; else of ``b`` itself, and None."""
    bound = _weyl_floor(float(np.linalg.norm(b.vals)), b.dim) / np.sqrt(2.0)
    b, im = _real_form(b, None, bound) or _real_form(b, d, bound) or (b, None)
    drop = None if im is None else np.sqrt(2.0) * im
    if np.all((at := b.finder()(b.cols, b.rows)) >= 0):  # b's pattern, its uppers looked up
        vals = b.vals[at]  # each entry's transpose, conjugated, then the lower triangle's own
        np.copyto(np.conjugate(vals, out=vals), b.vals, where=b.rows >= b.cols)
        return b._replace(vals=vals), drop
    low = b.rows >= b.cols
    r, c, v = b.rows[low], b.cols[low], b.vals[low]
    off = r > c
    rows, cols = np.concatenate([r, c[off]]), np.concatenate([c, r[off]])
    vals, order = np.concatenate([v, v[off].conj()]), np.argsort(rows * b.dim + cols)
    return _Triplets(b.dim, rows[order], cols[order], vals[order]), drop


def _norm(x: np.ndarray) -> float:
    """``||x||_2`` as numpy's pairwise sum of the squared moduli: unlike ``np.linalg.norm``,
    which reduces through BLAS, the same at every BLAS thread count."""
    return float(np.sqrt(np.add.reduce(np.abs(x) ** 2)))


def _image_gaps(t: _Triplets, images) -> list[float]:
    """``||t - t'||_F`` over both patterns for each ``(rows, cols)`` of ``images``: ``t'`` holds
    the conjugate of each entry of ``t`` at its image under an involution, such as the transpose
    or ``P t P`` for a permutation ``P``, and an entry whose image is zero counts for both
    positions.  ``t``'s keys are built once, and each difference is formed in place."""
    find, gaps = t.finder(), []
    for rows, cols in images:
        x = t.vals[at := find(rows, cols)]
        x[at < 0] = 0
        x = np.subtract(t.vals, np.conjugate(x, out=x), out=x)
        gaps.append(float(np.hypot(_norm(x), _norm(t.vals[at < 0]))))
    return gaps


def _fold(g: _Triplets, gens: list) -> list[_Triplets]:
    """The real symmetric ``g`` folded by each of the commuting signed involutions ``gens`` in
    turn, ``(p, s)`` for ``P e_i = s_i e_{p_i}``, fixed points allowed: its blocks, none empty.

    In block ``a = +-1`` of ``P``, an orbit ``i < p_i`` spans ``(e_i + a s_i e_{p_i}) / sqrt 2``
    and a fixed point ``e_i`` lies in block ``s_i`` alone; each entry ``(r, c, x)`` of ``g``
    adds ``x c_r c_c / sqrt(n_r n_c)`` at its orbits' places, summed in ``g``'s order, with
    ``c`` the signs of the states and ``n`` the orbit sizes.  The next involution maps a
    block's orbit ``i`` to that of ``p_i``, with the sign of ``P e_i`` on its state."""
    if not gens:
        return [g]
    (p, s), *rest = gens
    i, blocks = np.arange(g.dim), []
    rep, n = np.minimum(i, p), np.where(p == i, 1.0, 2.0)
    for a in (1.0, -1.0):
        kept = (p != i) | (s == a)
        reps = np.flatnonzero(kept & (rep == i))
        at, c = np.where(kept, np.searchsorted(reps, rep), -1), np.where(rep == i, 1.0, a * s)
        on = (at[g.rows] >= 0) & (at[g.cols] >= 0)
        r, k = g.rows[on], g.cols[on]
        keys, sums = np.unique(at[r] * len(reps) + at[k], return_inverse=True)
        vals = np.bincount(sums, g.vals[on] * (c[r] * c[k]) / np.sqrt(n[r] * n[k]), len(keys))
        block = _Triplets(len(reps), *np.divmod(keys, len(reps)), vals.astype(float))
        if len(reps):
            blocks += _fold(block, [(at[q[reps]], t[reps] * c[q[reps]]) for q, t in rest])
    return blocks


def _sector_eigenvalues(f: _Triplets, sectors, d) -> list[tuple[list, np.ndarray, str, float]]:
    """``eigvalsh`` of each sector of ``F``, as :func:`_real_read` reads it, by :func:`_fold`:
    per unit of sectors solved together, the sectors, eigenvalues, route and Weyl term.

    Of the index reversal ``J`` (a chain's spin flip), the bit reversal ``R`` (its site
    reflection, where ``dim`` is a power of two) and ``JR``, each that moves a unit onto itself
    is admitted where the part of its real read ``g`` that it drops, ``||g - P g P||_F / 2``,
    is within the Weyl floor; ``g`` is folded by ``J`` and ``R`` if all three are, into blocks
    of size ``(m + a chi(J) + b chi(R) + ab chi(JR)) / 4`` (``chi`` counts the indices each
    fixes), else by the first.  The parts dropped, each fold's rounding and the largest block's
    solve error (LAPACK Users' Guide, 3rd ed., 4.7) join the term.  A sector that ``J`` ties to
    a later one is one unit with it: an orbit of ``J`` with no fixed point and no entry between
    its halves, whose two equal blocks are solved once."""
    i, n = np.arange(f.dim), f.dim.bit_length() - 1
    r = sum((((i >> b) & 1) << (n - 1 - b) for b in range(n)), 0 * i)
    invs = {"J": i[::-1], **({"R": r, "JR": r[::-1]} if f.dim == 1 << n else {})}

    def unit(u, pair):  # F on the indices u, in u's order; None for a pair J does not tie
        g, drop = _real_read(f.sector(u), d[u])
        norm, at = float(np.linalg.norm(g.vals)), np.full(f.dim, -1)
        at[u] = np.arange(len(u))
        maps = {} if drop is None else {k: q for k, p in invs.items()
                                        if (q := at[p[u]]).min() >= 0 and np.any(q != at[u])}
        floor = _weyl_floor(norm, len(u))  # ||g - P g P||_F / 2 for each P, g real
        gaps = _image_gaps(g, ((q[g.rows], q[g.cols]) for q in maps.values()))
        gaps = {k: x / 2 for k, x in zip(maps, gaps) if x / 2 <= floor}
        gens = list(gaps)[:2 if len(gaps) == 3 else 1]
        if pair and gens[:1] != ["J"]:
            return None
        blocks = _fold(g, [(maps[k], np.ones(len(u))) for k in gens])
        del g, maps, at  # the sector's read and index maps: only its blocks outlive its fold
        solved = []  # a block equal to one solved takes its eigenvalues
        for b in blocks:
            same = [v for o, v in solved if all(map(np.array_equal, o, b))]
            solved.append((b, same[0] if same else np.linalg.eigvalsh(b.dense())))
        # eigvalsh's values are exact for a block of size m within m eps ||b||_2 of it, and
        # ||b||_2 <= max |lam| / (1 - m eps)
        lam, m = np.concatenate([v for _, v in solved]), max(b.dim for b, _ in solved)
        solve = m * _EPS * float(np.max(np.abs(lam))) / (1.0 - m * _EPS)
        moved = sum(gaps[k] for k in gens) + len(gens) * _FOLD_ROUNDING * norm
        route = "+".join(gens) or ("complex" if drop is None else "real")
        return lam, route, (drop or 0.0) + moved + solve

    units, first, paired = [], {int(idx[0]): k for k, idx in enumerate(sectors)}, set()
    for k, idx in enumerate(sectors):
        t = first.get(int(invs["J"][idx[-1]]), -1)  # J(S), if a sector, starts at J(max S)
        if k not in paired:
            pair = t > k and unit(np.concatenate([idx, sectors[t]]), True)
            paired.update([t] if pair else [])
            units.append(([k, t], *pair) if pair else ([k], *unit(idx, False)))
    return units


def _hermitian_form(h: _Triplets, w) -> _HermitianForm:
    """One pass over the nonzeros of ``F = rho H rho^{-1}``: ``F`` itself, which has ``H``'s
    pattern, and its norms as sums over its nonzeros.  ``F`` has a finite form only if every
    weight is positive; else this raises."""
    if w[k := int(np.argmin(w))] <= 0:
        raise NotPositiveDefiniteError(
            f"F has no finite form: weight w[{k}] = {w[k]:.3e} is not positive", w[k])
    root = np.sqrt(w)
    f = h._replace(vals=np.multiply(v := h.vals * root[h.rows], (1.0 / root)[h.cols], out=v))
    [diff], a = _image_gaps(f, [(f.cols, f.rows)]), np.abs(f.vals)  # ||F - F^dag||_F
    row, col = (np.bincount(x, a, h.dim).max() for x in (f.rows, f.cols))
    # ||X||_2 <= sqrt(||X||_1 ||X||_inf) for X = |F|, which bounds F's rounding entrywise
    anti = float(diff / 2.0 + _F_ROUNDING * np.sqrt(row * col))
    return _HermitianForm(f, float(diff), _norm(a), anti)


def _eigvalsh_read(form: _HermitianForm, h: _Triplets, solved: list | None = None) -> _Solved:
    """``eigvalsh`` of each sector of ``F``, by :func:`_sector_eigenvalues`, on ``H``'s sectors.

    ``solved``, a one-item list that a sweep keeps across its points, holds the last point
    whose sectors were solved.  Where ``F`` has that point's pattern and lies within the Weyl
    floor of its ``F``, as it is or in the pattern's gauge, this point takes its eigenvalues
    and solves none; else it solves its own and takes that point's place."""
    f, last, floor = form.f, solved[0] if solved else None, _weyl_floor(form.norm, form.f.dim)
    # eigvalsh read M, F's lower triangle mirrored: M - M_last holds each strict lower entry of
    # F - F_last twice and its diagonal once, so ||M - M_last||_F <= sqrt 2 gap, which moves
    # each eigenvalue by at most that (Weyl) beyond what last's own reads moved them; so does
    # D M D^* for a diagonal unitary D; the gap is always to a solved point, so no gap adds up
    same = last is not None and all(map(np.array_equal, last.f[:3], f[:3]))  # dim, rows, cols
    if same and (gap := float(np.linalg.norm(f.vals - last.f.vals))) <= floor:
        return last._replace(weyl=last.weyl + 2.0**0.5 * gap)
    sectors, d = _pattern_components(h)  # F's pattern phases are H's: rho is positive
    if same:  # D F D^*: the phases absorb a diagonal unitary that conjugates F, as xi does
        g, g_last = (p[t.rows] * t.vals * p.conj()[t.cols] for t, p in ((f, d), (last.f, last.d)))
        if (gap := float(np.linalg.norm(g - g_last))) <= floor:
            return last._replace(weyl=last.weyl + 2.0**0.5 * gap)
    units = _sector_eigenvalues(f, sectors, d)
    read = _Solved(np.sort(np.concatenate([u[1] for u in units])), max(u[3] for u in units), f, d)
    if solved is not None:
        solved[0] = read
    return read


def _pseudo_hermiticity_check(form: _HermitianForm, tol: float) -> CheckResult:
    # H^dag eta = eta H iff F is hermitian; on F a light row weighs as much as a heavy one
    residual = form.defect / (1.0 + form.norm)
    return CheckResult("pseudo_hermiticity", residual <= tol, residual, tol)


def _reality_check(form: _HermitianForm | None, lam, tol: float) -> CheckResult:
    # lam = x^dag F x for a unit eigenvector x, so |Im lam| <= ||F_a||_2
    worst = np.inf if form is None else form.anti
    detail = f"certified: max |Im| <= {worst:.3e}"
    if worst > tol:  # the eigenvalues of F's sectors, or of H's where F has no finite form
        lam_h, sizes = lam()
        worst = float(np.max(np.abs(lam_h.imag) / (1.0 + np.abs(lam_h))))
        detail = (f"eig: max |Im| {np.max(np.abs(lam_h.imag)):.3e}, "
                  f"{len(sizes)} sector{'s' if len(sizes) > 1 else ''}, largest {max(sizes)}")
    return CheckResult("reality", worst <= tol, worst, tol, detail)


def _isospectrality_check(form: _HermitianForm, read, lam, tol: float) -> CheckResult:
    # eigvalsh would read the hermitian M of F's lower triangle, ||F - M||_F <= ||F - F^dag||_F
    # / sqrt 2, so H's eigenvalues, F's, pair with M's within sqrt 2 ||F - M||_F (Kahan), plus
    # sqrt 2 c eps ||F||_F for F's rounding; M's largest |lam| is at least ||M||_F / sqrt dim,
    # and ||M||_F >= ||F||_F - ||F - M||_F
    defect = form.defect / (1.0 + form.norm)
    dev = float(form.defect + 2.0**0.5 * _F_ROUNDING * form.norm)
    top = (form.norm - form.defect / 2.0**0.5) / form.f.dim**0.5  # <= max |lam_M|
    residual = max(dev / (1.0 + max(top - dev, 0.0)), defect)  # top - dev <= max |lam_H|
    route = "certified: eigenvalue deviation <="
    if residual > tol:  # else the eigenvalues of F itself, which are H's, against eigvalsh's
        lam_h = lam()[0]
        dev = float(np.max(np.abs(lam_h - read().eigenvalues)))
        residual = max(dev / (1.0 + float(np.max(np.abs(lam_h)))), defect)
        route = "eig: max eigenvalue deviation"
    detail = f"{route} {dev:.3e}, hermiticity defect {defect:.3e}"
    return CheckResult("isospectrality", residual <= tol, residual, tol, detail)


def _eta_norm_check(form: _HermitianForm, decompose, tol, seed) -> CheckResult:
    # phi = rho psi has ||phi||^2 = <psi, eta psi> and d||phi||^2/dt = -i <phi, (F - F^dag) phi>,
    # so on [0, T] every state's eta-norm stays within exp(+-2 T ||F_a||_2) of its start (Gronwall)
    drift = 2.0 * _GRID[-1] * form.anti
    detail = f"certified for every state on [0, {_GRID[-1]:g}]"
    if drift > np.log1p(tol):  # not expm1(drift) > tol, which overflows past drift ~ 709
        # else the drift of a seeded probe phi, drawn in F's frame and evolved in F's
        # eigenvectors, in place of the bound's
        rng = np.random.default_rng(seed)
        phi0 = rng.normal(size=form.f.dim) + 1j * rng.normal(size=form.f.dim)
        traj = decompose().evolve(phi0 / np.linalg.norm(phi0), _GRID)
        norms = np.sum(np.abs(traj) ** 2, axis=1)
        drift = float(np.log1p(np.max(np.abs(norms - norms[0])) / norms[0]))
        detail = f"eig: {len(_GRID)} time points on [0, {_GRID[-1]:g}]"
    residual = float(np.expm1(drift))
    return CheckResult("eta_norm", residual <= tol, residual, tol, detail)


def _point(h, w, checks: Sequence[str], tols: Mapping[str, float], seed: int,
           solved: list | None = None) -> tuple[list[CheckResult], Callable[[], np.ndarray]]:
    """One point's reader: the entries of ``checks`` on ``H`` and ``diag(w)`` at ``tols``, and
    a callable for ``H``'s eigenvalues, sorted and complex.  ``F``, its decomposition, its
    eigenvalues and the ``eigvalsh`` read of its sectors (with a sweep's ``solved``, as
    :func:`_eigvalsh_read` reads it) are each formed on first use, then shared by the checks
    and the spectrum; reality and isospectrality run after the eta-norm, to read the eigenvalues
    of the decomposition that it alone forms, where it forms one."""
    h = _Triplets.of(h)
    w = _weights(w, h.dim)
    form = functools.cache(lambda: _hermitian_form(h, w))
    read = functools.cache(lambda: _eigvalsh_read(form(), h, solved))
    decompose = functools.cache(lambda: spectrum(missed()))  # where a bound does not certify

    @functools.cache
    def lam() -> tuple[np.ndarray, list[int]]:  # the eigenvalues, and the sizes of the sectors
        if decompose.cache_info().currsize:
            return decompose().eigenvalues, [len(s.indices) for s in decompose().sectors]
        return _eigenvalues(missed())

    def bounds() -> _HermitianForm | None:  # None where F has no finite form
        with contextlib.suppress(NotPositiveDefiniteError):
            return form()

    def missed() -> _Triplets:  # what a missed bound decomposes: F, or H where F has no form
        return h if (f := bounds()) is None else f.f

    @np.errstate(over="raise", invalid="raise")  # an overflow is a FloatingPointError
    def eigenvalues_of_h() -> np.ndarray:  # the read, where F is hermitian to the tolerance
        f = bounds()
        if f is not None and f.defect / (1.0 + f.norm) <= DEFAULT_TOLERANCES["isospectrality"]:
            return read().eigenvalues.astype(complex)
        return lam()[0]

    run = {
        "metric_pd": lambda tol: _metric_pd_check(w, tol),
        "pseudo_hermiticity": lambda tol: _pseudo_hermiticity_check(form(), tol),
        "reality": lambda tol: _reality_check(bounds(), lam, tol),
        "isospectrality": lambda tol: _isospectrality_check(form(), read, lam, tol),
        "eta_norm": lambda tol: _eta_norm_check(form(), decompose, tol, seed),
    }
    results: list[CheckResult] = [None] * len(checks)
    for i in sorted(range(len(checks)), key=lambda i: checks[i] in ("reality", "isospectrality")):
        name = checks[i]
        try:
            with np.errstate(over="raise", invalid="raise"):  # an overflow fails its check
                results[i] = run[name](tols[name])
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            results[i] = CheckResult(name, False, np.inf, tols[name], f"failed: {exc}")
    return results, eigenvalues_of_h


def _selection(checks: Sequence[str], tolerances: Sequence[tuple[str, object]],
               table: Mapping[str, float] = DEFAULT_TOLERANCES) -> dict[str, float]:
    """The one rule on a selection of checks and ``(name, tolerance)`` overrides: refuses a
    name that is not in ``table`` or that either list repeats, and a tolerance that is not a
    positive, finite real number.  Returns ``table``'s tolerances with the overrides."""
    known, tols = tuple(table), dict(table)
    for what, names in (("check", list(checks)), ("tolerance", [k for k, _ in tolerances])):
        for i, name in enumerate(names):
            if name not in known:
                raise ValueError(f"unknown {what} {name!r}; expected one of {sorted(known)}")
            if name in names[:i]:
                raise ValueError(f"duplicate {what} {name!r}")
    for name, value in tolerances:  # a real number: float() would read a bool or a str too
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        try:
            tols[name] = float(value) if real else np.nan
        except OverflowError:  # an int past float's range
            tols[name] = np.inf
        if not (np.isfinite(tols[name]) and tols[name] > 0):
            raise ValueError(f"tolerance {name!r} must be positive and finite, got {value!r}")
    return tols


def run_suite(h, w, *, checks: Sequence[str] | None = None,
              tolerances: Mapping[str, float] | None = None,
              seed: int = DEFAULT_SEED) -> VerificationReport:
    """Run the standard check battery on ``H`` and the diagonal metric ``diag(w)``.

    Parameters
    ----------
    h : array_like
        Hamiltonian, a square matrix; the checks read its nonzeros.
    w : array_like
        Real weights, the diagonal of the metric: ``eta = diag(w)``.
    checks : sequence of str, optional
        Subset (in any order, each name once) of ``DEFAULT_TOLERANCES`` keys; default all.
    tolerances : mapping, optional
        Per-check tolerance overrides, each a positive, finite number.
    seed : int
        Non-negative integer seed for the random probe state of the eta-norm check,
        which samples 32 times on [0, 10].

    Returns a :class:`VerificationReport` of the selected checks in their
    given order; failing checks are entries, not exceptions, and an unknown
    or repeated check or tolerance name, a tolerance that is not positive and
    finite, a seed that is negative or not an integer, or a malformed ``w``
    raises ``ValueError``: the CLI refuses checks and tolerances by the same rule.
    Pseudo-hermiticity and isospectrality fail on the hermiticity defect of
    the mapped form, or where it has no finite form (a weight that is not
    positive).  Reality, isospectrality and the eta-norm pass on a bound from
    that defect where it is within their tolerance, and solve no eigenproblem;
    else they read ``F``: the eta-norm evolves a seeded probe in ``F``'s
    eigenvectors, and reality reads its eigenvalues, which isospectrality
    compares with ``eigvalsh`` of ``F``'s sectors (``eig``'s where the eta-norm
    ran ``spectrum``, else ``eigvals``').  Where ``F`` has no finite form the
    eta-norm fails too, and reality alone reads ``eigenvalues(H)``.
    A dense metric goes through the ``linops`` functions instead.
    """
    selected = list(DEFAULT_TOLERANCES if checks is None else checks)
    tols = _selection(selected, list((tolerances or {}).items()))
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    started = time.perf_counter()
    results, _ = _point(h, w, selected, tols, seed)
    return VerificationReport(tuple(results), time.perf_counter() - started, seed)


def hermitian_form_eigenvalues(h, w) -> np.ndarray:
    """Eigenvalues of ``H`` from the nonzeros of ``F = rho H rho^{-1}``.

    A diagonal similarity keeps the eigenvalues, returned sorted and complex.  If ``F``'s
    hermiticity defect is within the isospectrality tolerance, each sector of ``F`` goes to
    ``eigvalsh`` (real, and folded by ``J`` and ``R``, where Weyl's bound allows); else
    ``F``'s nonzeros go to ``eigenvalues``, or ``H``'s where ``F`` has no finite form: the
    matrix :func:`run_suite`'s checks decompose, by the reader they share.  Weights are as there.
    """
    return _point(h, w, (), DEFAULT_TOLERANCES, DEFAULT_SEED)[1]()


# ---------------------------------------------------------------------------
# Graded (weighted) matrix identities


@dataclass(frozen=True)
class GradedMatrix:
    """A matrix of the form ``M_ij = a_ij exp(gamma_i - gamma_j)``.

    ``core`` is the real symmetric coefficient matrix and ``grades`` the
    per-index exponents.  The realized matrix is non-symmetric but shares the
    (real) spectrum of ``core``.  Its factors ``exp(gamma_i - gamma_j)`` and
    the metric weights ``exp(-2 gamma_i)`` are each held to the overflow guard
    where they are taken, so the weights need ``|gamma_i| <= 60``.
    """

    core: np.ndarray
    grades: np.ndarray

    def __init__(self, core, grades):
        core = _coefficients("core", core)
        grades = np.asarray(grades, dtype=float)
        if grades.shape != (core.shape[0],):
            raise ValueError(f"grades must have length {core.shape[0]}, got {grades.shape}")
        if not np.all(np.isfinite(grades)):
            raise ValueError("grades must be finite")
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "grades", grades)

    @property
    def realized(self) -> np.ndarray:
        """The weighted matrix ``core * exp(grades_i - grades_j)``."""
        return self.core * np.exp(_guard_overflow(self.grades[:, None] - self.grades))

    @property
    def metric_weights(self) -> np.ndarray:
        """Diagonal of the associated metric, ``exp(-2 gamma_i)``."""
        return similarity(self.grades[:, None], [1.0])[0]


def pseudo_symmetric_symmetrize(m: GradedMatrix) -> np.ndarray:
    """Undo the grading: conjugate by ``rho = diag(exp(-gamma_i))``, the metric's root.

    Returns ``rho @ realized @ rho^{-1}``, which recovers the symmetric
    core exactly (the exponents cancel entry by entry), proving the
    realized matrix has a real spectrum.
    """
    rho = np.sqrt(m.metric_weights)
    return (rho[:, None] * m.realized) * (1.0 / rho)[None, :]


def graded_conjugation_check(x, grading, gamma: float,
                             cycles: Sequence[Sequence[int]] = ()) -> float:
    """Residual of the graded conjugation identity.

    For an integer grading ``m_i`` (given as a vector or a diagonal matrix)
    and ``rho = diag(exp(-gamma m_i))`` the conjugated matrix obeys
    ``(rho^{-1} X rho)_ij = exp((m_i - m_j) gamma) X_ij`` entry by entry;
    products around closed index cycles are therefore invariant.  Returns
    the worst relative deviation over all entries,
    ``|conj - expected| / (1 + |expected|)``, and over the requested cycles,
    ``|prod_conj - prod_bare| / (1 + |prod_bare|)``, so the identity reads
    at the rounding level however far the grading scales the entries.
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
    rho, rho_inv = np.diag(np.exp(-gamma * m)), np.diag(np.exp(gamma * m))
    conj = rho_inv @ x @ rho
    expected = x * np.exp(gamma * (m[:, None] - m[None, :]))
    worst = float(np.max(np.abs(conj - expected) / (1.0 + np.abs(expected))))
    for cycle in cycles:
        idx = list(cycle)
        if len(idx) < 2:
            raise ValueError("cycles need at least two indices")
        prod_conj = prod_bare = 1.0 + 0.0j
        for a, b in zip(idx, idx[1:] + idx[:1]):
            prod_conj, prod_bare = prod_conj * conj[a, b], prod_bare * x[a, b]
        worst = max(worst, abs(prod_conj - prod_bare) / (1.0 + abs(prod_bare)))
    return worst
