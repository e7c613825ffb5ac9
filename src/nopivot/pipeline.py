"""Preconditioned no-pivoting solves: factor F A H, solve F A H y = F b, x = H y.

Multipliers F and H are drawn per plan (dense Gaussian, circulant, Toeplitz,
Hankel, or integer finite-set) from sub-seeds of the trial seed.  Residuals
are always measured against the original A and b with compensated row sums,
never against the preconditioned system.  Optional iterative refinement
reuses the factorization of the preconditioned matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dense, factor, randgen
from .errors import NonFiniteSolutionError, NopivotError, ShapeError, ZeroPivotError

MULTIPLIER_KINDS = ("gaussian", "circulant", "toeplitz", "hankel", "finite-set")
DEFAULT_FINITE_SET = randgen.FiniteSet(tuple(range(-8, 9)))


@dataclass(frozen=True)
class PreconditionPlan:
    """Which multipliers to draw on each side, plus refinement steps.

    None means no multiplier on that side; the string "none" is accepted as
    an alias and stored as None.  Finite-set multipliers draw from
    ``DEFAULT_FINITE_SET``.
    """

    left: str | None = "gaussian"
    right: str | None = "gaussian"
    refinement_steps: int = 0

    def __post_init__(self):
        for side in ("left", "right"):
            kind = getattr(self, side)
            if kind == "none":
                object.__setattr__(self, side, None)
            elif kind is not None and kind not in MULTIPLIER_KINDS:
                raise ValueError(f"unknown {side} multiplier kind {kind!r}")
        if self.refinement_steps < 0:
            raise ValueError("refinement_steps must be nonnegative")


@dataclass
class SolveFailure:
    kind: str
    step: int | None
    message: str
    plan: PreconditionPlan
    seed: randgen.Seed


def _failure(exc: Exception, plan: PreconditionPlan, seed: randgen.Seed) -> SolveFailure:
    return SolveFailure(type(exc).__name__, getattr(exc, "step", None), str(exc), plan, seed)


@dataclass
class SolveOutcome:
    """Solution plus residual history and the elimination safety report.

    ``relative_residual`` is recomputed from the original system; the history
    has one entry per refinement level (index 0 = no refinement).  When the
    elimination fails or its solution is not finite, the solution is None and
    the residual infinite; when a refinement step fails, the last finite
    iterate and its history are kept.
    """

    solution: np.ndarray | None
    relative_residual: float
    residual_history: list[float] = field(default_factory=list)
    safety: factor.SafetyReport | None = None
    failure: SolveFailure | None = None


def _row_sum(row: list[float]) -> float:
    """``math.fsum``; a row whose partial sums overflow is summed again at
    scale 2^-k with 2^k > 2 len(row), exact for terms above 2^(k-1022)."""
    try:
        return math.fsum(row)
    except OverflowError:
        scale = 2.0 ** (len(row).bit_length() + 1)
        return math.fsum(v / scale for v in row) * scale


def compensated_residual(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - A x with correctly rounded row sums (``_row_sum`` per row); a row of
    finite inputs with a product past the float range is summed as A_i (x 2^-s)
    times 2^s, the least s that keeps it finite (terms below 2^(s-1022) lose bits)."""
    with np.errstate(over="ignore"):
        products = a * x[None, :]
        shift = np.zeros(len(a), dtype=int)
        if not np.isfinite(products).all() and np.isfinite(x).all():
            for i in np.flatnonzero(~np.isfinite(products).all(axis=1) & np.isfinite(a).all(axis=1)):
                shift[i] = np.frexp(abs(a[i]).max())[1] + np.frexp(abs(x).max())[1] - 1023
                products[i] = a[i] * np.ldexp(x, -shift[i])
        return b - np.ldexp([_row_sum(row.tolist()) for row in products], shift)


def _measure(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """(b - A x, ||b - A x|| / ||b||) for validated ``a`` and ``b``; at b = 0
    the ratio is 0 when r = 0 and infinite otherwise."""
    if not np.isfinite(x).all():
        raise NonFiniteSolutionError("solution contains non-finite entries")
    r = compensated_residual(a, x, b)
    if not b.any():
        return r, math.inf if r.any() else 0.0
    with np.errstate(over="ignore"):  # a sum of squares past or below the float range: both norms at scale 1 / max|b|
        norms = np.linalg.norm(r), np.linalg.norm(b)
        if np.isinf(norms).any() or norms[1] == 0.0:
            norms = np.linalg.norm(r / abs(b).max()), np.linalg.norm(b / abs(b).max())
    return r, float(norms[0] / norms[1])


def relative_residual(a, x, b) -> float:
    """||A x - b|| / ||b|| against the original system."""
    a = dense.require_matrix(a)
    x = dense.require_vector(x, "solution")
    b = dense.require_vector(b, "right-hand side")
    return _measure(a, x, b)[1]


def build_multiplier(kind: str | None, n: int, seed: randgen.Seed) -> np.ndarray | None:
    """Draw one multiplier as a dense n-by-n matrix; None means the identity.

    Structured kinds are materialized: one GEMM beat their FFT apply at
    every n measured, 128 to 1024."""
    if kind is None:
        return None
    if kind == "gaussian":
        return randgen.gaussian_matrix(seed, n, n)
    if kind == "finite-set":
        return randgen.finite_set_matrix(seed, n, n, DEFAULT_FINITE_SET)
    if kind == "circulant":
        op = randgen.gaussian_circulant(seed, n)
    elif kind == "toeplitz":
        op = randgen.gaussian_toeplitz(seed, n, n, kind="toeplitz")
    elif kind == "hankel":
        op = randgen.gaussian_toeplitz(seed, n, n, kind="hankel")
    else:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    return op.materialize()


def apply_multiplier(mult: np.ndarray | None, a, side: str):
    if mult is None:
        return a
    return mult @ a if side == "left" else a @ mult


def refine_once(fact, left_mult, right_mult, x, r) -> np.ndarray:
    """One refinement step: x + H solve(F r) with the stored factors, r = b - A x."""
    rhs = apply_multiplier(left_mult, r, "left")
    correction = factor.lu_solve(fact, rhs)
    correction = apply_multiplier(right_mult, correction, "left")
    return x + correction


def preconditioned_solve(a, b, plan: PreconditionPlan, seed: randgen.Seed) -> SolveOutcome:
    """Solve A x = b through the preconditioned no-pivoting factorization.

    The identity plan (no multipliers) runs plain GENP on A itself, bit for
    bit.  Elimination failures are returned in the outcome rather than
    raised, carrying the plan and seed that produced them.
    """
    a = dense.require_matrix(a)
    b = dense.require_vector(b, "right-hand side")
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"coefficient matrix must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ShapeError(f"right-hand side length {b.shape[0]} does not match n={n}")

    left = build_multiplier(plan.left, n, seed.derive("left-multiplier"))
    right = build_multiplier(plan.right, n, seed.derive("right-multiplier"))

    preconditioned = apply_multiplier(left, a, "left")
    preconditioned = apply_multiplier(right, preconditioned, "right")
    rhs = apply_multiplier(left, b, "left")

    # Overflow in a no-pivoting solve is an expected outcome, reported below as
    # a structured failure by _measure's finiteness check, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            fact, safety = factor.genp_factor(preconditioned)
            y = factor.lu_solve(fact, rhs)
            x = apply_multiplier(right, y, "left")
            r, residual = _measure(a, x, b)
        except (ZeroPivotError, factor.SingularMatrixError, NonFiniteSolutionError) as exc:
            return SolveOutcome(
                solution=None,
                relative_residual=math.inf,
                residual_history=[],
                safety=None,
                failure=_failure(exc, plan, seed),
            )

        history = [residual]
        for _ in range(plan.refinement_steps):
            try:
                refined = refine_once(fact, left, right, x, r)
                r, residual = _measure(a, refined, b)
            except NopivotError as exc:
                return SolveOutcome(
                    solution=x,
                    relative_residual=history[-1],
                    residual_history=history,
                    safety=safety,
                    failure=_failure(exc, plan, seed),
                )
            x = refined
            history.append(residual)
    return SolveOutcome(
        solution=x,
        relative_residual=history[-1],
        residual_history=history,
        safety=safety,
        failure=None,
    )
