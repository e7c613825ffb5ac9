"""Dense matrix kernels: validation, norms, QR, small-scale SVD, text format.

Matrices are plain 2-D float64 numpy arrays throughout the package.  The SVD
is a one-sided Jacobi iteration in round-robin steps of disjoint column pairs,
accurate for small singular values at desk scale.  A sweep of an m-by-n
input costs O(mn^2), and a call takes about 0.1-0.2 s at n = 128, so spectral
norms switch to power iteration above ``JACOBI_MAX_DIM``, and the instance
screen inside many-trial experiment loops uses the power iteration at every
size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ShapeError, SizeError

# Ratio sigma_j / sigma_1 at or below which a singular value counts as zero.
RANK_TOL = 1e-10

JACOBI_MAX_DIM = 128  # largest min-dimension routed through Jacobi by default
_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 60
_SVD_DIM_CAP = 1024

_POWER_ITERS = 200
_POWER_TOL = 1e-10


def require_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must be nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ShapeError(f"{name} contains non-finite entries")
    return m


def require_vector(b, name: str = "vector") -> np.ndarray:
    v = np.asarray(b, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ShapeError(f"{name} must be a nonempty 1-D array, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ShapeError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class SvdResult:
    """Full SVD ``A = left @ diag(singular_values) @ right.T``.

    ``left`` is m-by-m orthogonal, ``right`` is n-by-n orthogonal and
    ``singular_values`` has length min(m, n), sorted nonincreasing.
    """

    left_factor: np.ndarray
    singular_values: np.ndarray
    right_factor: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m = self.left_factor.shape[0]
        n = self.right_factor.shape[0]
        sigma = np.zeros((m, n))
        k = len(self.singular_values)
        sigma[:k, :k] = np.diag(self.singular_values)
        return self.left_factor @ sigma @ self.right_factor.T


@dataclass(frozen=True)
class QrResult:
    """Thin QR ``A = q_factor @ r_factor`` with nonnegative R diagonal."""

    q_factor: np.ndarray
    r_factor: np.ndarray


def _orthonormal_completion(u_partial: np.ndarray, m: int) -> np.ndarray:
    """Extend orthonormal columns to a full m-by-m orthogonal matrix."""
    r = u_partial.shape[1] if u_partial.size else 0
    if r == 0:
        return np.eye(m)
    q, _ = _householder(u_partial, full_q=True)
    # q's first r columns equal u_partial up to rounding; keep the originals.
    out = q
    out[:, :r] = u_partial
    return out


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[np.ndarray, ...]:
    """Circle-method schedule of the column pairs i < j of an n-column matrix.

    Each step is a read-only k-by-2 index array whose rows are disjoint pairs
    (i, j); the n - 1 steps for even n, or n for odd n > 1 (a dummy index n
    sits out each step), hold every pair exactly once (Brent & Luk 1985).
    """
    players = list(range(n + n % 2))
    half = len(players) // 2
    steps = []
    for _ in range(len(players) - 1):
        pairs = [sorted((players[k], players[-1 - k])) for k in range(half)]
        step = np.array([p for p in pairs if p[1] < n], dtype=np.intp).reshape(-1, 2)
        if step.size:
            step.setflags(write=False)
            steps.append(step)
        players.insert(1, players.pop())
    return tuple(steps)


def _jacobi_core(a: np.ndarray, want_vectors: bool):
    """One-sided Jacobi on the columns of ``a`` (requires rows >= cols).

    A sweep runs the steps of ``_round_robin``, and a step rotates its
    disjoint column pairs at once: every pair whose Gram off-diagonal entry
    is above ``_JACOBI_TOL`` relative to the participating column norms.
    Columns of ``a`` and of V are stored as rows, so a step updates rows.
    Returns (sigma, u_full, v_full) with u, v None when vectors not wanted.
    """
    m, n = a.shape
    work = a.T.copy()
    v = np.eye(n) if want_vectors else None
    converged = False
    worst = 0.0
    for sweep in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for ij in _round_robin(n):
            xy = work[ij]
            gram = xy @ xy.transpose(0, 2, 1)
            scale = np.sqrt(gram[:, 0, 0] * gram[:, 1, 1])
            # A zero column, or a product alpha * beta that underflows, leaves the pair alone.
            turn = (np.abs(gram[:, 0, 1]) > _JACOBI_TOL * scale) & (scale > 0.0)
            if not turn.all():
                if not turn.any():
                    continue
                ij, xy, gram, scale = ij[turn], xy[turn], gram[turn], scale[turn]
            alpha, beta, gamma = gram[:, 0, 0], gram[:, 1, 1], gram[:, 0, 1]
            # Only the last sweep's ratios are reported, by the ConvergenceError.
            if sweep == _JACOBI_MAX_SWEEPS - 1:
                worst = max(worst, float((np.abs(gamma) / scale).max()))
            zeta = (beta - alpha) / (2.0 * gamma)
            t = np.where(zeta != 0.0, np.sign(zeta), 1.0)
            t /= np.abs(zeta) + np.hypot(1.0, zeta)
            c = 1.0 / np.hypot(1.0, t)
            s = c * t
            rot = np.array((c, -s, s, c)).T.reshape(-1, 2, 2)
            work[ij] = rot @ xy
            if want_vectors:
                v[ij] = rot @ v[ij]
            rotated = True
        if not rotated:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"Jacobi SVD did not converge in {_JACOBI_MAX_SWEEPS} sweeps "
            f"(worst off-diagonal ratio {worst:.3e})",
            residual=worst,
        )
    norms = np.sqrt(np.einsum("ij,ij->i", work, work))
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    if not want_vectors:
        return sigma, None, None
    v = v[order].T
    work = work[order]
    positive = sigma > 0.0
    u_cols = work[positive].T / sigma[positive]
    u = _orthonormal_completion(u_cols, m)
    return sigma, u, v


def jacobi_svd(a) -> SvdResult:
    """Full SVD by one-sided Jacobi rotations.

    Raises ConvergenceError when the sweep budget is exhausted and SizeError
    above the desk-scale dimension cap.
    """
    a = require_matrix(a)
    m, n = a.shape
    if min(m, n) > _SVD_DIM_CAP:
        raise SizeError(f"jacobi_svd caps min(m, n) at {_SVD_DIM_CAP}, got {min(m, n)}")
    if m >= n:
        sigma, u, v = _jacobi_core(a, want_vectors=True)
        return SvdResult(u, sigma, v)
    sigma, u, v = _jacobi_core(a.T, want_vectors=True)
    return SvdResult(v, sigma, u)


def singular_values(a) -> np.ndarray:
    """Singular values only (skips accumulating the orthogonal factors)."""
    a = require_matrix(a)
    m, n = a.shape
    if min(m, n) > _SVD_DIM_CAP:
        raise SizeError(f"singular_values caps min(m, n) at {_SVD_DIM_CAP}")
    core = a if m >= n else a.T
    sigma, _, _ = _jacobi_core(core, want_vectors=False)
    return sigma


def _power_spectral_norm(a: np.ndarray, iters: int = _POWER_ITERS, tol: float = _POWER_TOL) -> float:
    # Deterministic pseudo-random start keeps the function pure per call.
    rng = np.random.Generator(np.random.PCG64(0x5EED_0B5E))
    v = rng.standard_normal(a.shape[1])
    v /= math.sqrt(v @ v)
    w = a @ v
    # sqrt(x @ x) is the dot and sqrt np.linalg.norm runs on a real vector.
    s = math.sqrt(w @ w)
    estimate = 0.0
    for _ in range(iters):
        if s == 0.0:
            return 0.0
        v = a.T @ w
        nv = math.sqrt(v @ v)
        if nv == 0.0:
            return s
        v /= nv
        # The product and norm that check convergence are the next iteration's w and s.
        w = a @ v
        new_estimate = math.sqrt(w @ w)
        if estimate > 0.0 and abs(new_estimate - estimate) <= tol * new_estimate:
            return max(new_estimate, estimate)
        estimate = s = new_estimate
    return estimate


def spectral_norm(a) -> float:
    """Largest singular value; Jacobi at small sizes, power iteration above."""
    a = require_matrix(a)
    if min(a.shape) <= JACOBI_MAX_DIM:
        return float(singular_values(a)[0])
    return _power_spectral_norm(a)


def spectral_norm_estimate(a) -> float:
    """Power-iteration estimate of the spectral norm at any size.

    Accurate to far better than a percent on generic matrices; meant for
    instance screening inside many-trial loops, where a Jacobi SVD of every
    block (milliseconds at n = 16 to 64) would dominate the runtime.
    """
    return _power_spectral_norm(require_matrix(a))


def _householder(a: np.ndarray, full_q: bool):
    """Householder triangularization; returns (Q, R) with Q thin or full."""
    m, n = a.shape
    r = a.copy()
    reflectors = []
    for k in range(n):
        x = r[k:, k]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            reflectors.append(None)
            continue
        v = x.copy()
        v[0] += (1.0 if x[0] >= 0 else -1.0) * norm_x
        v /= np.linalg.norm(v)
        r[k:, k:] -= 2.0 * np.outer(v, v @ r[k:, k:])
        reflectors.append(v)
    q_cols = m if full_q else n
    q = np.eye(m)[:, :q_cols].copy()
    for k in reversed(range(len(reflectors))):
        v = reflectors[k]
        if v is None:
            continue
        q[k:, :] -= 2.0 * np.outer(v, v @ q[k:, :])
    # Sign-normalize so the R diagonal is nonnegative (zeros stay zero).
    for i in range(min(m, n)):
        if r[i, i] < 0.0:
            r[i, :] = -r[i, :]
            q[:, i] = -q[:, i]
    return q, r


def householder_qr(a) -> QrResult:
    """Thin QR of a tall (rows >= cols) matrix.

    Rank deficiency is permitted: a zero column leaves a zero on the R
    diagonal rather than failing.
    """
    a = require_matrix(a)
    m, n = a.shape
    if m < n:
        raise ShapeError(f"householder_qr needs rows >= cols, got {a.shape}")
    q, r = _householder(a, full_q=False)
    return QrResult(q, r[:n, :n].copy())


# --- text round-trip format -------------------------------------------------
#
# First line "m n", then m lines of n whitespace-separated decimal literals.
# %.17e keeps 18 significant digits, enough for exact float64 round-trips.


def format_matrix(a) -> str:
    a = require_matrix(a)
    m, n = a.shape
    lines = [f"{m} {n}"]
    for row in a:
        lines.append(" ".join(f"{x:.17e}" for x in row))
    return "\n".join(lines) + "\n"


def write_matrix(a, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix(a))


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ShapeError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ShapeError(f"expected 'm n' header, got {lines[0]!r}")
    m, n = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise ShapeError(f"expected {m} data rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1 : 1 + m]:
        values = [float(tok) for tok in ln.split()]
        if len(values) != n:
            raise ShapeError(f"expected {n} entries per row, got {len(values)}")
        rows.append(values)
    return require_matrix(np.array(rows, dtype=float))


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())
