"""Gaussian elimination variants and the opt-in pivot-safety monitor.

Three factorizations:

* ``genp_factor``     -- no pivoting; aborts only on an exactly zero pivot.
* ``gepp_factor``     -- partial pivoting baseline.
* ``block_genp_factor`` -- recursive block elimination driven by a pivot-size
  schedule; stores the block factors implicitly (in-place Schur updates) and
  materializes triangular factors only on request.

``genp_factor`` and ``gepp_factor`` run the same blocked elimination step
(``_eliminate``): rank-1 steps confined to a panel of ``_PANEL`` columns, then
U_12 = L_11^{-1} A_12 and one GEMM update A_22 -= L_21 U_12.  Pivots are still
read one step at a time; GEPP takes each from the up-to-date column k of the
panel and swaps whole rows.  At n <= _PANEL, and for GENP under the monitor,
which needs each step's full complement, the panel is the whole matrix: bit for
bit the unblocked loop.  Every triangular solve -- L and U in ``lu_solve``,
U^T and L^T in ``gepp_solve_transpose``, U_12 -- goes through one row
substitution, ``_substitute``, forward for lower and backward for upper
triangles.

Every elimination produces a :class:`SafetyReport` of pivot statistics, and
``genp_factor`` adds the final-factor growth max|U| / max|A|.  The monitor is
opt-in and exact: ``monitor="spectral"`` records the spectral norm of every
trailing Schur complement (an SVD per step); the default ``monitor=None``
records pivots only.  The bounds themselves belong to the input, not to a
run: ``safety_bounds(a)`` computes ``N = ||A||_2`` and ``N_-``, the largest
inverse norm over leading blocks, once per input, and ``safety_check`` checks
one report against them -- recorded pivot norms against ``N_+ = N + N_- N^2``,
inverse norms against ``N_-``, and the growth factor max ||complement|| / N
against ``(N_+ N_-)^(log2 n)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dense
from .errors import (
    ShapeError,
    SingularMatrixError,
    SingularPivotBlockError,
    ZeroPivotError,
)

_PIVOT_BLOCK_RATIO = 1e-13
_GEPP_PIVOT_FLOOR = 1e-300
_SAFETY_SLACK = 1e-6
# Full leading-block scans for N_- are O(n^4); above this size the scan is
# sampled at power-of-two block sizes instead.
_FULL_SCAN_LIMIT = 128
_PANEL = 64  # panel width of both eliminations; see the module docstring


@dataclass
class GenpFactorization:
    """A = l_factor @ u_factor with unit lower triangular L, no row exchanges."""

    l_factor: np.ndarray
    u_factor: np.ndarray


@dataclass
class GeppFactorization:
    """P A = L U where row i of P A is row permutation[i] of A and |L| <= 1."""

    permutation: np.ndarray
    l_factor: np.ndarray
    u_factor: np.ndarray


@dataclass
class PivotRecord:
    """Per-step monitor data: pivot (block) norms and the trailing complement."""

    step: int
    size: int
    pivot_norm: float
    pivot_inverse_norm: float
    complement_norm: float | None = None
    complement_inverse_norm: float | None = None


@dataclass
class SafetyReport:
    """Norm bookkeeping of one elimination run.

    Pivot norms are always recorded, spectral (for scalar pivots they are
    exact magnitudes).  With ``monitor="spectral"`` the run also records the
    exact spectral norm of every trailing Schur complement, at an SVD per
    step; with ``monitor=None`` those stay None.  ``u_growth`` is
    max|U| / max|A| of the final GENP factor, O(n^2) and always filled by
    ``genp_factor`` (None for block elimination); it can be below 1.
    """

    n: int
    monitor: str | None
    u_growth: float | None = None
    records: list[PivotRecord] = field(default_factory=list)

    @property
    def pivot_magnitudes(self) -> np.ndarray:
        return np.array([rec.pivot_norm for rec in self.records])


@dataclass
class BlockStep:
    offset: int
    size: int
    pivot_block: np.ndarray
    pivot_factorization: GeppFactorization
    row_mult: np.ndarray  # B^{-1} C, size d x rest
    col_mult: np.ndarray  # D B^{-1}, size rest x d


@dataclass
class BlockFactorization:
    """Telescoped block elimination: A = L * diag(pivot blocks) * U.

    L is block unit lower triangular (column multipliers below identity
    blocks), U block unit upper triangular (row multipliers).  Intermediate
    Schur complements at cumulative block boundaries are kept only when
    requested at factorization time.
    """

    n: int
    steps: list[BlockStep]
    schur_complements: dict[int, np.ndarray] = field(default_factory=dict)

    def assemble_lower(self) -> np.ndarray:
        lower = np.eye(self.n)
        for s in self.steps:
            lower[s.offset + s.size :, s.offset : s.offset + s.size] = s.col_mult
        return lower

    def assemble_diagonal(self) -> np.ndarray:
        diag = np.zeros((self.n, self.n))
        for s in self.steps:
            diag[s.offset : s.offset + s.size, s.offset : s.offset + s.size] = s.pivot_block
        return diag

    def assemble_upper(self) -> np.ndarray:
        upper = np.eye(self.n)
        for s in self.steps:
            upper[s.offset : s.offset + s.size, s.offset + s.size :] = s.row_mult
        return upper

    def reconstruct(self) -> np.ndarray:
        return self.assemble_lower() @ self.assemble_diagonal() @ self.assemble_upper()

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.array(b, dtype=float, copy=True)
        for s in self.steps:  # block forward pass, unit lower
            lo, hi = s.offset, s.offset + s.size
            if s.col_mult.size:
                x[hi:] -= s.col_mult @ x[lo:hi]
        for s in self.steps:  # block diagonal solves
            lo, hi = s.offset, s.offset + s.size
            x[lo:hi] = lu_solve(s.pivot_factorization, x[lo:hi])
        for s in reversed(self.steps):  # block backward pass, unit upper
            lo, hi = s.offset, s.offset + s.size
            if s.row_mult.size:
                x[lo:hi] -= s.row_mult @ x[hi:]
        return x


def _require_square(a, name: str = "matrix") -> np.ndarray:
    a = dense.require_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got {a.shape}")
    return a


def _start_report(a: np.ndarray, monitor: str | None) -> SafetyReport:
    if monitor not in (None, "spectral"):
        raise ValueError(f"monitor must be None or 'spectral', got {monitor!r}")
    return SafetyReport(n=a.shape[0], monitor=monitor)


def _sigma_extremes(a: np.ndarray) -> tuple[float, float]:
    """(sigma_min, sigma_max); Jacobi at small sizes, estimates above."""
    if min(a.shape) <= dense.JACOBI_MAX_DIM:
        sigma = dense.singular_values(a)
        return float(sigma[-1]), float(sigma[0])
    smax = dense.spectral_norm(a)
    try:
        inv = inverse_norm_estimate(a)
    except SingularMatrixError:
        return 0.0, smax
    return 1.0 / inv, smax


def _factor_pivot_block(pivot: np.ndarray, step: int):
    """(GEPP factors, sigma_min, sigma_max) of a pivot block, or SingularPivotBlockError."""
    smin, smax = _sigma_extremes(pivot)
    if smin <= _PIVOT_BLOCK_RATIO * smax:
        raise SingularPivotBlockError(step=step, sigma_min=smin, sigma_max=smax)
    return gepp_factor(pivot), smin, smax


def _eliminate(work: np.ndarray, lower: np.ndarray, k: int, width: int) -> None:
    """Step k of the right-looking elimination blocked in panels of ``width``.

    Stores the multipliers in ``lower`` and updates the panel's columns k+1
    onward; after a panel's last column, U_12 = L_11^{-1} A_12 and one GEMM
    A_22 -= L_21 U_12.  Column k of ``work`` below the pivot is left in place;
    callers keep only ``np.triu(work)``.
    """
    n = work.shape[0]
    stop = min(k - k % width + width, n)
    mults = work[k + 1 :, k] / work[k, k]
    lower[k + 1 :, k] = mults
    work[k + 1 :, k + 1 : stop] -= np.outer(mults, work[k, k + 1 : stop])
    if k == stop - 1 < n - 1:
        lo = stop - width
        work[lo:stop, stop:] = _substitute(lower[lo:stop, lo:stop], work[lo:stop, stop:], lower=True, unit=True)
        work[stop:, stop:] -= lower[stop:, lo:stop] @ work[lo:stop, stop:]


def genp_factor(a, *, monitor: str | None = None):
    """LU factorization with no pivoting.

    Continues through arbitrarily small (nonzero) pivots so that instability
    shows up in the solution rather than as an early abort; every pivot
    magnitude, the final growth max|U| / max|A| and, under
    ``monitor="spectral"``, every trailing-complement norm land in the
    safety report.  Raises ZeroPivotError on an exactly zero pivot.
    """
    a = _require_square(a)
    report = _start_report(a, monitor)
    n = a.shape[0]
    work = a.copy()
    lower = np.eye(n)
    width = n if monitor else _PANEL
    for k in range(n):
        pivot = work[k, k]
        if pivot == 0.0:
            raise ZeroPivotError(step=k + 1, pivot=float(pivot))
        comp_norm = None
        if k < n - 1:
            _eliminate(work, lower, k, width)
            if monitor:
                comp_norm = dense.spectral_norm(work[k + 1 :, k + 1 :])
        report.records.append(
            PivotRecord(
                step=k + 1,
                size=1,
                pivot_norm=abs(float(pivot)),
                pivot_inverse_norm=1.0 / abs(float(pivot)),
                complement_norm=comp_norm,
            )
        )
    upper = np.triu(work)
    report.u_growth = float(max(upper.max(), -upper.min()) / max(a.max(), -a.min()))
    return GenpFactorization(lower, upper), report


def gepp_factor(a) -> GeppFactorization:
    """LU factorization with partial pivoting; multipliers bounded by 1."""
    a = _require_square(a)
    n = a.shape[0]
    work = a.copy()
    lower = np.eye(n)
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(work[k:, k])))
        if abs(work[p, k]) < _GEPP_PIVOT_FLOOR:
            raise SingularMatrixError(f"no usable pivot in column {k + 1}", step=k + 1)
        if p != k:
            work[[k, p], :] = work[[p, k], :]
            perm[[k, p]] = perm[[p, k]]
            if k > 0:
                lower[[k, p], :k] = lower[[p, k], :k]
        _eliminate(work, lower, k, _PANEL)
    return GeppFactorization(perm, lower, np.triu(work))


def _substitute(t: np.ndarray, b: np.ndarray, lower: bool, unit: bool) -> np.ndarray:
    """Solve t x = b for triangular t, one row at a time (1-D or 2-D b).

    Rows run forward for a lower triangle and backward for an upper one; a
    unit triangle's stored diagonal is ignored.  Otherwise a zero on the
    diagonal raises SingularMatrixError at the first such row in solve order.
    """
    x = np.array(b, dtype=float, copy=True)
    n = t.shape[0]
    diag = t.diagonal().tolist()
    for i in range(n) if lower else reversed(range(n)):
        if lower:
            x[i] -= t[i, :i] @ x[:i]
        else:
            x[i] -= t[i, i + 1 :] @ x[i + 1 :]
        if not unit:
            if diag[i] == 0.0:
                raise SingularMatrixError("zero diagonal entry", step=i + 1)
            x[i] /= diag[i]
    return x


def _rhs(b, n: int) -> np.ndarray:
    rhs = np.asarray(b, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ShapeError(f"right-hand side of shape {rhs.shape} does not match order {n}")
    return rhs


def lu_solve(fact, b) -> np.ndarray:
    """Solve with a GENP, GEPP, or block factorization (1-D or 2-D rhs)."""
    if isinstance(fact, BlockFactorization):
        return fact.solve(_rhs(b, fact.n))
    if not isinstance(fact, (GenpFactorization, GeppFactorization)):
        raise TypeError(f"unsupported factorization type {type(fact)!r}")
    rhs = _rhs(b, fact.l_factor.shape[0])
    if isinstance(fact, GeppFactorization):
        rhs = rhs[fact.permutation]
    y = _substitute(fact.l_factor, rhs, lower=True, unit=True)
    return _substitute(fact.u_factor, y, lower=False, unit=False)


def gepp_solve_transpose(fact: GeppFactorization, b) -> np.ndarray:
    """Solve A^T x = b given P A = L U (so A^T = U^T L^T P)."""
    rhs = _rhs(b, fact.l_factor.shape[0])
    t = _substitute(fact.u_factor.T, rhs, lower=True, unit=False)
    s = _substitute(fact.l_factor.T, t, lower=False, unit=True)
    x = np.empty_like(s)
    x[fact.permutation] = s
    return x


def inverse_norm_estimate(a, fact: GeppFactorization | None = None) -> float:
    """||A^{-1}|| by power iteration on A^{-1} A^{-T} using GEPP solves.

    Cheap enough for n in the hundreds; accurate to a few digits, which is
    all the instance-screening and monitoring paths need.
    """
    a = _require_square(a)
    if fact is None:
        fact = gepp_factor(a)
    rng = np.random.Generator(np.random.PCG64(0x1A2B3C4D))
    w = rng.standard_normal(a.shape[0])
    w /= np.linalg.norm(w)
    estimate = 0.0
    for _ in range(200):
        u = gepp_solve_transpose(fact, w)
        y = lu_solve(fact, u)
        lam = float(np.linalg.norm(y))
        if lam == 0.0:
            return 0.0
        w = y / lam
        new_estimate = np.sqrt(lam)
        if estimate > 0.0 and abs(new_estimate - estimate) <= 1e-9 * new_estimate:
            return float(max(new_estimate, estimate))
        estimate = new_estimate
    return float(estimate)


def schur_complement(a, k: int) -> np.ndarray:
    """E - D B^{-1} C for the 2x2 partition of ``a`` with k-by-k pivot block."""
    a = _require_square(a)
    n = a.shape[0]
    if not (1 <= k <= n):
        raise ShapeError(f"block size k={k} out of range for n={n}")
    if k == n:
        return np.zeros((0, 0))
    bfact, _, _ = _factor_pivot_block(a[:k, :k], step=1)
    return a[k:, k:] - a[k:, :k] @ lu_solve(bfact, a[:k, k:])


def block_genp_factor(
    a,
    schedule,
    monitor: str | None = None,
    record_complements: bool = False,
):
    """Recursive block elimination following a pivot-size schedule.

    ``schedule`` is a sequence of positive pivot-block sizes summing to n.
    Each step factors the current leading pivot block with local partial
    pivoting, forms the multipliers B^{-1}C and DB^{-1}, and updates the
    trailing matrix to the Schur complement in place.  With
    ``record_complements`` the complement at every cumulative boundary is
    copied out (handy for schedule-invariance checks, costly at scale).
    """
    a = _require_square(a)
    sizes = tuple(int(d) for d in schedule)
    n = a.shape[0]
    if not sizes or min(sizes) < 1 or sum(sizes) != n:
        raise ShapeError(f"schedule {sizes} needs positive pivot sizes summing to n={n}")
    report = _start_report(a, monitor)
    work = a.copy()
    steps: list[BlockStep] = []
    complements: dict[int, np.ndarray] = {}
    offset = 0
    for step_idx, d in enumerate(sizes, start=1):
        lo, hi = offset, offset + d
        pivot = work[lo:hi, lo:hi].copy()
        bfact, smin, smax = _factor_pivot_block(pivot, step_idx)
        rest = n - hi
        if rest > 0:
            c_block = work[lo:hi, hi:].copy()
            d_block = work[hi:, lo:hi].copy()
            row_mult = lu_solve(bfact, c_block)
            col_mult = gepp_solve_transpose(bfact, d_block.T).T
            work[hi:, hi:] -= d_block @ row_mult
            comp = work[hi:, hi:]
            comp_smin, comp_norm = _sigma_extremes(comp) if monitor else (None, None)
            comp_inv = (1.0 / comp_smin) if (comp_smin not in (None, 0.0)) else None
            if record_complements:
                complements[hi] = comp.copy()
        else:
            row_mult = np.zeros((d, 0))
            col_mult = np.zeros((0, d))
            comp_norm = None
            comp_inv = None
        report.records.append(
            PivotRecord(
                step=step_idx,
                size=d,
                pivot_norm=smax,
                pivot_inverse_norm=1.0 / smin,
                complement_norm=comp_norm,
                complement_inverse_norm=comp_inv,
            )
        )
        steps.append(BlockStep(offset, d, pivot, bfact, row_mult, col_mult))
        offset = hi
    return BlockFactorization(n, steps, complements), report


def _leading_block_sizes(n: int) -> list[int]:
    if n <= _FULL_SCAN_LIMIT:
        return list(range(1, n + 1))
    sizes = []
    j = 1
    while j < n:
        sizes.append(j)
        j *= 2
    sizes.append(n)
    return sizes


@dataclass(frozen=True)
class SafetyBounds:
    """Per-input quantities of the safety bounds, from ``safety_bounds``.

    ``max_inverse_norm`` is N_-, or None when the leading-block scan stopped
    at the numerically singular block ``singular_block``.
    """

    n: int
    input_norm: float
    max_inverse_norm: float | None
    singular_block: int | None

    @property
    def strongly_nonsingular(self) -> bool:
        return self.singular_block is None


@dataclass
class SafetyCheckResult:
    """Outcome of verifying a SafetyReport against the elimination bounds.

    ``verdict`` is None when ``bounds`` says the input is not strongly
    nonsingular (the bounds do not apply, and the bound fields stay None);
    otherwise True iff no recorded norm exceeded its bound and the growth
    factor stayed under (N_+ N_-)^(log2 n).
    """

    bounds: SafetyBounds
    verdict: bool | None
    pivot_bound: float | None
    growth_factor: float
    growth_bound: float | None
    violations: list[tuple[int, str, float, float]]
    margin: float | None


def safety_bounds(a) -> SafetyBounds:
    """||A||_2 and N_- of one input, for any number of ``safety_check`` calls.

    Scans leading blocks in ascending order and stops at the first
    numerically singular one, which means the input is not strongly
    nonsingular and the bounds do not apply.
    """
    a = _require_square(a)
    n = a.shape[0]
    norm = dense.spectral_norm(a)
    n_minus = 0.0
    for j in _leading_block_sizes(n):
        smin, smax = _sigma_extremes(a[:j, :j])
        if smin <= _PIVOT_BLOCK_RATIO * smax:
            return SafetyBounds(n, norm, None, j)
        n_minus = max(n_minus, 1.0 / smin)
    return SafetyBounds(n, norm, n_minus, None)


def safety_check(bounds: SafetyBounds, report: SafetyReport) -> SafetyCheckResult:
    """Verify one report's pivot statistics against its input's bounds.

    Checks every recorded pivot norm <= N_+ (1 + slack), every recorded
    inverse norm <= N_- (1 + slack), and the growth factor, the largest
    recorded complement norm over ||A||_2 floored at 1 (exactly 1 for an
    unmonitored report).
    """
    if report.n != bounds.n:
        raise ShapeError(f"report of order {report.n} does not match bounds of order {bounds.n}")
    n, norm, n_minus = bounds.n, bounds.input_norm, bounds.max_inverse_norm
    growth = 1.0
    for rec in report.records:
        if rec.complement_norm is not None and norm > 0:
            growth = max(growth, rec.complement_norm / norm)
    verdict = n_plus = growth_bound = worst = None
    violations: list[tuple[int, str, float, float]] = []
    if bounds.strongly_nonsingular:
        n_plus = norm + n_minus * norm * norm
        slack = 1.0 + _SAFETY_SLACK
        worst = 0.0
        for rec in report.records:
            checks = [("pivot norm", rec.pivot_norm, n_plus), ("pivot inverse norm", rec.pivot_inverse_norm, n_minus)]
            if rec.complement_norm is not None:
                checks.append(("complement norm", rec.complement_norm, n_plus))
            if rec.complement_inverse_norm is not None:
                checks.append(("complement inverse norm", rec.complement_inverse_norm, n_minus))
            for label, value, bound in checks:
                worst = max(worst, value / bound)
                if value > bound * slack:
                    violations.append((rec.step, label, value, bound))
        growth_bound = float((n_plus * n_minus) ** np.log2(n)) if n > 1 else 1.0
        if growth > growth_bound * slack:
            violations.append((0, "growth factor", growth, growth_bound))
        verdict = not violations
    return SafetyCheckResult(bounds, verdict, n_plus, growth, growth_bound, violations, worst)
