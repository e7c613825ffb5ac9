"""Deterministic and statistical verification suites.

Four families of checks back the randomized-preconditioning claims:

* spectral bounds -- singular-value lower bounds for products F A and A H,
  pseudo-inverse norm bounds and their leading-block versions, submatrix
  interlacing, and the inverse-perturbation bound, swept over random
  instances with an SVD oracle;
* tail bounds -- Monte-Carlo checks of classical norm / smallest-singular-
  value / condition-number tail estimates for Gaussian matrices;
* finite-set singularity -- exact integer-determinant frequencies for
  matrices sampled uniformly from a finite set, against the degree-based
  probability bounds;
* safety bounds -- pivot norms of no-pivoting elimination on strongly
  nonsingular inputs against N_+ and N_-.

Every check reports (bound, empirical value, margin) so a failure is
diagnosable, never a bare boolean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dense, factor, randgen
from .errors import ShapeError, SizeError

_SLACK = 1e-8
_DET_DIM_CAP = 6
_BAREISS_BITS = 127


# --- exact integer determinants ----------------------------------------------


def _as_int_rows(m) -> list[list[int]]:
    is_int_array = isinstance(m, np.ndarray) and m.dtype.kind in "iu"
    arr = m if is_int_array else np.asarray(m, dtype=object)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ShapeError(f"need a nonempty square matrix, got shape {arr.shape}")
    if is_int_array:
        return arr.tolist()  # exact Python ints, uint64 included
    rows = []
    for row in arr:
        out = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                out.append(int(v))
            elif isinstance(v, (float, np.floating)) and float(v).is_integer():
                out.append(int(v))
            else:
                raise ValueError(f"exact determinant needs integer entries, got {v!r}")
        rows.append(out)
    return rows


def _check_bareiss_capacity(rows: list[list[int]]) -> None:
    # Bareiss intermediates are minors; Hadamard bounds every minor, so the
    # exact product of row-square-sums must fit the 128-bit budget.
    had_sq = 1
    for row in rows:
        had_sq *= sum(v * v for v in row)
        if had_sq >= 1 << (2 * _BAREISS_BITS):
            raise SizeError("entries too large: Bareiss intermediates may exceed 128 bits")


def exact_determinant_int(m) -> int:
    """Exact determinant of a small integer matrix (fraction-free Bareiss)."""
    rows = _as_int_rows(m)
    k = len(rows)
    if k > _DET_DIM_CAP:
        raise SizeError(f"exact determinant caps the dimension at {_DET_DIM_CAP}, got {k}")
    _check_bareiss_capacity(rows)
    sign = 1
    prev = 1
    for col in range(k - 1):
        if rows[col][col] == 0:
            for r in range(col + 1, k):
                if rows[r][col] != 0:
                    rows[col], rows[r] = rows[r], rows[col]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(col + 1, k):
            for j in range(col + 1, k):
                rows[i][j] = (rows[i][j] * rows[col][col] - rows[i][col] * rows[col][j]) // prev
            rows[i][col] = 0
        prev = rows[col][col]
    return sign * rows[k - 1][k - 1]


def leading_principal_minors_int(m) -> list[int]:
    """Exact leading principal minors det(A[:j, :j]) for j = 1..k.

    A single fraction-free pass produces all minors as its pivots; on a zero
    pivot (a genuinely zero minor) the remaining minors are recomputed
    block by block.
    """
    rows = _as_int_rows(m)
    k = len(rows)
    if k > _DET_DIM_CAP:
        raise SizeError(f"leading minors cap the dimension at {_DET_DIM_CAP}, got {k}")
    _check_bareiss_capacity(rows)
    minors: list[int] = []
    prev = 1
    for col in range(k):
        pivot = rows[col][col]
        minors.append(pivot)
        if pivot == 0:
            source = _as_int_rows(m)
            return minors[:col] + [
                exact_determinant_int([r[: j + 1] for r in source[: j + 1]]) for j in range(col, k)
            ]
        for i in range(col + 1, k):
            for j in range(col + 1, k):
                rows[i][j] = (rows[i][j] * pivot - rows[i][col] * rows[col][j]) // prev
            rows[i][col] = 0
        prev = pivot
    return minors


# --- report containers --------------------------------------------------------


@dataclass
class BoundCheck:
    """One (bound, empirical, margin) comparison."""

    name: str
    params: dict
    bound: float
    empirical: float
    margin: float
    samples: int
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        return (
            f"{status}  {self.name} [{params}] bound={self.bound:.4e} "
            f"empirical={self.empirical:.4e} margin={self.margin:.1e} samples={self.samples}"
        )


@dataclass
class FamilyResult:
    """Counted inequality sweep over random instances for one bound family."""

    name: str
    instances: int
    comparisons: int
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: {self.comparisons} comparisons over "
            f"{self.instances} instances, {len(self.violations)} violations"
        )


@dataclass
class VerificationReport:
    title: str
    seed: int
    checks: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(f"{'PASS' if self.passed else 'FAIL'}  {self.title} overall")
        return out

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [dict(c.__dict__) for c in self.checks],
            "extras": self.extras,
        }


# --- finite-set singularity -----------------------------------------------


def check_finite_set_singularity(
    seed: randgen.Seed,
    k: int = 3,
    delta: randgen.FiniteSet = randgen.FiniteSet(tuple(range(10))),
    trials: int = 100_000,
) -> VerificationReport:
    """Measure exact nonsingularity frequencies against the degree bounds.

    Nonsingularity must occur with frequency >= 1 - k/|D| and strong
    nonsingularity (all leading minors nonzero) with frequency
    >= 1 - k(k+1)/(2|D|), both up to a three-sigma binomial margin.
    """
    if k > _DET_DIM_CAP:
        raise SizeError(f"k caps at {_DET_DIM_CAP}, got {k}")
    if delta.size > 1000:
        raise SizeError(f"|delta| caps at 1000, got {delta.size}")
    max_abs = max(abs(v) for v in delta.values)
    _check_bareiss_capacity([[max_abs] * k] * k)

    bound_nonsingular = max(0.0, 1.0 - k / delta.size)
    bound_strong = max(0.0, 1.0 - (k + 1) * k / (2.0 * delta.size))
    margin = 3.0 * math.sqrt(0.25 / trials)
    report = VerificationReport(
        title=f"finite-set singularity (k={k}, |delta|={delta.size}, {trials} trials)",
        seed=seed.master,
    )
    for kind in ("dense", "toeplitz"):
        rng = seed.derive("finite-set", kind).rng()
        values = np.asarray(delta.values, dtype=np.int64)
        nonsingular = 0
        strong = 0
        if kind == "dense":
            draws = values[rng.integers(0, delta.size, size=(trials, k, k))]
        else:
            coeffs = values[rng.integers(0, delta.size, size=(trials, 2 * k - 1))]
            diff = np.subtract.outer(np.arange(k), np.arange(k)) + (k - 1)
            draws = coeffs[:, diff]
        for t in range(trials):
            minors = leading_principal_minors_int(draws[t])
            if minors[-1] != 0:
                nonsingular += 1
                if all(m != 0 for m in minors):
                    strong += 1
        freq_nonsingular = nonsingular / trials
        freq_strong = strong / trials
        report.checks.append(
            BoundCheck(
                name="nonsingular-frequency",
                params={"kind": kind, "k": k, "set_size": delta.size},
                bound=bound_nonsingular,
                empirical=freq_nonsingular,
                margin=margin,
                samples=trials,
                passed=freq_nonsingular >= bound_nonsingular - margin,
            )
        )
        report.checks.append(
            BoundCheck(
                name="strongly-nonsingular-frequency",
                params={"kind": kind, "k": k, "set_size": delta.size},
                bound=bound_strong,
                empirical=freq_strong,
                margin=margin,
                samples=trials,
                passed=freq_strong >= bound_strong - margin,
            )
        )
    return report


# --- Gaussian tail bounds ---------------------------------------------------

# Constant from the Chen--Dongarra condition-number tail estimate.
_CONDITION_TAIL_CONSTANT = 6.414
# Gaussian samples drawn and reduced by one batched SVD at a time.
_TAIL_CHUNK = 1000


def _tail_point(name, params, bound, empirical, samples) -> BoundCheck:
    margin = 3.0 * math.sqrt(max(bound * (1.0 - bound), 0.0) / samples)
    passed = bound >= 1.0 or empirical <= bound + margin
    return BoundCheck(name, params, bound, empirical, margin, samples, passed)


def check_tail_bounds(seed: randgen.Seed, samples: int = 10_000) -> VerificationReport:
    """Monte-Carlo tail frequencies for Gaussian matrices vs. closed-form bounds.

    Per-sample singular values come from numpy's batched SVD; the bounds are
    the independent side of the comparison.  Samples are drawn and reduced in
    chunks of ``_TAIL_CHUNK``, keeping two singular values per sample, so no
    whole sample stack is ever held.  The m-by-1 condition number is checked
    to be exactly 1 through the package's own SVD.
    """
    if samples < 10_000:
        raise ValueError(f"need at least 10^4 samples, got {samples}")
    report = VerificationReport(title=f"Gaussian tail bounds ({samples} samples/point)", seed=seed.master)

    # sigma_max and sigma_min of each sample.  The chunks continue the shape's
    # one stream and the batched SVD treats each matrix alone, so the values
    # do not depend on the chunk size.
    spectra = {}
    for m, n in ((8, 4), (8, 8), (12, 8), (16, 16)):
        rng = seed.derive("tails", m, n).rng()
        extremes = spectra[(m, n)] = np.empty((samples, 2))
        for start in range(0, samples, _TAIL_CHUNK):
            stop = min(start + _TAIL_CHUNK, samples)
            sv = np.linalg.svd(rng.standard_normal((stop - start, m, n)), compute_uv=False)
            extremes[start:stop] = sv[:, [0, -1]]

    for m, n in ((8, 4), (16, 16)):
        sv = spectra[(m, n)]
        norms = sv[:, 0]
        for t in (1.0, 2.0, 3.0):
            threshold = t + math.sqrt(m) + math.sqrt(n)
            report.checks.append(
                _tail_point(
                    "norm-tail",
                    {"m": m, "n": n, "t": t},
                    math.exp(-t * t / 2.0),
                    float(np.mean(norms > threshold)),
                    samples,
                )
            )
        h = max(m, n)
        for off in (0.5, 1.5):
            z = 2.0 * math.sqrt(h) + off
            report.checks.append(
                _tail_point(
                    "norm-tail-2sqrt",
                    {"m": m, "n": n, "z": round(z, 3)},
                    math.exp(-off * off / 2.0),
                    float(np.mean(norms > z)),
                    samples,
                )
            )

    for m, n in ((8, 4), (12, 8)):
        sv = spectra[(m, n)]
        smallest = sv[:, -1]
        for x in (1.0, 2.0, 3.0):
            bound = x ** (m - n + 1) / math.gamma(m - n + 2)
            event = smallest <= x * x / m  # nu+ >= m / x^2
            report.checks.append(
                _tail_point(
                    "smallest-sv-tail",
                    {"m": m, "n": n, "x": x},
                    bound,
                    float(np.mean(event)),
                    samples,
                )
            )

    for m in (4, 8):
        g = seed.derive("tails-vector", m).rng().standard_normal((samples, m))
        norms = np.linalg.norm(g, axis=1)
        for x in (2.0, 4.0):
            bound = (m / 2.0) ** ((m - 2) / 2.0) / (math.gamma(m / 2.0) * x**m)
            event = norms <= 1.0 / x  # ||g+|| = 1/||g|| >= x
            report.checks.append(
                _tail_point(
                    "vector-smallest-sv-tail",
                    {"m": m, "x": x},
                    bound,
                    float(np.mean(event)),
                    samples,
                )
            )

    # Chen--Dongarra: P{kappa > x m/(m-n+1)} < (6.414/x)^(m-n+1) / sqrt(2 pi)
    # for x >= m-n+1 (sharp for square matrices, where P{kappa/n > x} ~ 2.4/x).
    for (m, n), xs in (((8, 8), (25.0, 100.0)), ((8, 4), (7.0, 10.0))):
        sv = spectra[(m, n)]
        kappa = sv[:, 0] / sv[:, -1]
        scale = m / (m - n + 1)
        for x in xs:
            bound = (_CONDITION_TAIL_CONSTANT / x) ** (m - n + 1) / math.sqrt(math.tau)
            report.checks.append(
                _tail_point(
                    "condition-tail",
                    {"m": m, "n": n, "x": x},
                    bound,
                    float(np.mean(kappa > scale * x)),
                    samples,
                )
            )

    # m-by-1 condition number is identically 1 (single singular value).
    for m in (1, 5, 16):
        count = min(samples, 1000)
        rng = seed.derive("tails-kappa1", m).rng()
        worst = 0.0
        for _ in range(count):
            sigma = dense.singular_values(rng.standard_normal((m, 1)))
            worst = max(worst, abs(sigma[0] / sigma[-1] - 1.0))
        report.checks.append(
            BoundCheck(
                name="vector-condition-exact",
                params={"m": m},
                bound=1e-12,
                empirical=worst,
                margin=0.0,
                samples=count,
                passed=worst <= 1e-12,
            )
        )
    return report


# --- spectral bound sweeps --------------------------------------------------


def _rank_controlled(rng, m: int, n: int, rank: int) -> np.ndarray:
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


def _tolerance(*scales: float) -> float:
    return _SLACK * max(max(scales), 1e-30)


def _sweep_product_lower_bounds(seed, count, max_size, side: str) -> FamilyResult:
    """sigma_j(FA) >= sigma_k(A) sigma_j(Fhat_{r,k}) and the right-side mirror."""
    name = f"product-lower-bound-{side}"
    result = FamilyResult(name=name, instances=count, comparisons=0)
    for idx in range(count):
        rng = seed.derive(name, idx).rng()
        m = int(rng.integers(2, max_size + 1))
        n = int(rng.integers(2, max_size + 1))
        rank = int(rng.integers(1, min(m, n) + 1))
        r = int(rng.integers(1, rank + 1))
        a = _rank_controlled(rng, m, n, rank)
        svd_a = dense.jacobi_svd(a)
        sigma_a = np.zeros(max(m, n))
        sigma_a[: len(svd_a.singular_values)] = svd_a.singular_values
        if side == "left":
            f = rng.standard_normal((r, m))
            hat = f @ svd_a.left_factor  # r x m
            product_sigma = dense.singular_values(f @ a)
            limit = min(m, n)
        else:
            h = rng.standard_normal((n, r))
            hat = svd_a.right_factor.T @ h  # n x r
            product_sigma = dense.singular_values(a @ h)
            limit = min(m, n)
        for k in range(1, limit + 1):
            block = hat[:, :k] if side == "left" else hat[:k, :]
            block_sigma = dense.singular_values(block)
            for j in range(1, len(block_sigma) + 1):
                lhs = product_sigma[j - 1]
                rhs = sigma_a[k - 1] * block_sigma[j - 1]
                result.comparisons += 1
                if lhs < rhs - _tolerance(rhs, sigma_a[0] * block_sigma[0]):
                    result.violations.append(
                        {"instance": idx, "m": m, "n": n, "rank": rank, "r": r, "k": k, "j": j,
                         "lhs": lhs, "rhs": rhs}
                    )
    return result


def _sweep_pseudo_inverse_bounds(seed, count, max_size) -> FamilyResult:
    """sigma_r(AH) >= sigma_rho(A) sigma_r(Hhat) and ||(AH)+|| <= ||A+|| ||Hhat+||."""
    result = FamilyResult(name="pseudo-inverse-product-bound", instances=count, comparisons=0)
    for idx in range(count):
        rng = seed.derive("pinv", idx).rng()
        m = int(rng.integers(2, max_size + 1))
        n = int(rng.integers(2, max_size + 1))
        rank = int(rng.integers(1, min(m, n) + 1))
        r = int(rng.integers(1, rank + 1))
        a = _rank_controlled(rng, m, n, rank)
        svd_a = dense.jacobi_svd(a)
        sigma_rho = svd_a.singular_values[rank - 1]
        scale = svd_a.singular_values[0]
        h = rng.standard_normal((n, r))
        f = rng.standard_normal((r, m))
        h_hat = (svd_a.right_factor.T @ h)[:rank, :]  # rho x r
        f_hat = (f @ svd_a.left_factor)[:, :rank]  # r x rho
        for label, product, hat in (("right", a @ h, h_hat), ("left", f @ a, f_hat)):
            sigma_prod = dense.singular_values(product)
            sigma_hat = dense.singular_values(hat)
            lhs = sigma_prod[r - 1] if len(sigma_prod) >= r else 0.0
            rhs = sigma_rho * (sigma_hat[r - 1] if len(sigma_hat) >= r else 0.0)
            result.comparisons += 1
            if lhs < rhs - _tolerance(rhs, scale * sigma_hat[0]):
                result.violations.append(
                    {"instance": idx, "side": label, "claim": "sigma_r", "lhs": lhs, "rhs": rhs}
                )
            # Pseudo-inverse form, applicable when both products have full rank r.
            if lhs > 0 and sigma_hat[-1] > 0:
                inv_lhs = 1.0 / lhs
                inv_rhs = (1.0 / sigma_rho) * (1.0 / sigma_hat[r - 1])
                result.comparisons += 1
                if inv_lhs > inv_rhs * (1.0 + _SLACK) + _tolerance(inv_rhs):
                    result.violations.append(
                        {"instance": idx, "side": label, "claim": "pinv-norm", "lhs": inv_lhs, "rhs": inv_rhs}
                    )
    return result


def _sweep_leading_block_bounds(seed, count, max_size) -> FamilyResult:
    """Leading blocks of the products: ||(FA)_{k,k}+|| <= ||Fhat+|| ||A_{m,k}+||.

    The hat factor is taken with respect to the strip it multiplies
    (Fhat = F_{k,m} S for the left orthogonal factor S of A_{m,k}), and the
    chain continues with ||A_{m,k}+|| <= ||A+|| by column monotonicity.
    Blocks whose full-rank hypotheses fail are skipped.
    """
    result = FamilyResult(name="leading-block-pinv-bound", instances=count, comparisons=0)
    for idx in range(count):
        rng = seed.derive("blocks", idx).rng()
        small = int(rng.integers(2, max_size + 1))
        large = int(rng.integers(small, max_size + 1))
        r = int(rng.integers(1, small + 1))
        left_side = bool(rng.integers(0, 2))
        if left_side:
            m, n = large, small  # full column rank, rho = n
            a = rng.standard_normal((m, n))
            mult = rng.standard_normal((r, m))
            product = mult @ a
        else:
            m, n = small, large  # full row rank, rho = m
            a = rng.standard_normal((m, n))
            mult = rng.standard_normal((n, r))
            product = a @ mult
        sigma_a = dense.singular_values(a)
        inv_norm_a = 1.0 / sigma_a[-1]
        for k in range(1, r + 1):
            block_sigma = dense.singular_values(product[:k, :k])
            if block_sigma[-1] <= dense.RANK_TOL * block_sigma[0]:
                continue  # full-rank hypothesis not met
            if left_side:
                strip = a[:, :k]
                strip_svd = dense.jacobi_svd(strip)
                hat_block = (mult[:k, :] @ strip_svd.left_factor)[:, :k]
            else:
                strip = a[:k, :]
                strip_svd = dense.jacobi_svd(strip)
                hat_block = (strip_svd.right_factor.T @ mult[:, :k])[:k, :]
            hat_sigma = dense.singular_values(hat_block)
            if hat_sigma[-1] <= dense.RANK_TOL * hat_sigma[0]:
                continue
            strip_sigma = strip_svd.singular_values
            lhs = 1.0 / block_sigma[-1]
            mid = (1.0 / hat_sigma[-1]) * (1.0 / strip_sigma[-1])
            rhs = (1.0 / hat_sigma[-1]) * inv_norm_a
            result.comparisons += 2
            if lhs > mid * (1.0 + _SLACK) + _tolerance(mid):
                result.violations.append(
                    {"instance": idx, "k": k, "claim": "block<=strip", "lhs": lhs, "rhs": mid}
                )
            if mid > rhs * (1.0 + _SLACK) + _tolerance(rhs):
                result.violations.append(
                    {"instance": idx, "k": k, "claim": "strip<=full", "lhs": mid, "rhs": rhs}
                )
    return result


def _sweep_interlacing(seed, count, max_size) -> FamilyResult:
    """Submatrix interlacing: blocks never beat the full spectrum."""
    result = FamilyResult(name="submatrix-interlacing", instances=count, comparisons=0)
    for idx in range(count):
        rng = seed.derive("interlace", idx).rng()
        n = int(rng.integers(2, max_size + 1))
        m = int(rng.integers(n, max_size + 1))  # m >= n
        a = rng.standard_normal((m, n))
        sigma_a = dense.singular_values(a)
        scale = sigma_a[0]
        k = int(rng.integers(1, m + 1))
        l = int(rng.integers(1, n + 1))
        block_sigma = dense.singular_values(a[:k, :l])
        for j in range(len(block_sigma)):
            result.comparisons += 1
            if sigma_a[j] < block_sigma[j] - _SLACK * scale:
                result.violations.append(
                    {"instance": idx, "claim": "block", "j": j + 1, "k": k, "l": l,
                     "lhs": sigma_a[j], "rhs": block_sigma[j]}
                )
        # Column-extension interlacing on leftmost strips.
        r = int(rng.integers(1, n + 1))
        l_ext = int(rng.integers(0, n - r + 1))
        narrow = dense.singular_values(a[:, :r])
        wide = dense.singular_values(a[:, : r + l_ext])
        for k_idx in range(1, r + 1):
            if k_idx + l_ext > len(wide):
                continue
            result.comparisons += 1
            if narrow[k_idx - 1] < wide[k_idx + l_ext - 1] - _SLACK * scale:
                result.violations.append(
                    {"instance": idx, "claim": "strip", "k": k_idx, "l": l_ext,
                     "lhs": narrow[k_idx - 1], "rhs": wide[k_idx + l_ext - 1]}
                )
        # Pseudo-inverse monotonicity under column extension (full-rank strips).
        if wide[-1] > dense.RANK_TOL * scale and narrow[-1] > 0:
            result.comparisons += 1
            if 1.0 / narrow[-1] > (1.0 + _SLACK) / wide[-1] + _tolerance(1.0 / wide[-1]):
                result.violations.append(
                    {"instance": idx, "claim": "pinv-monotone", "r": r, "l": l_ext,
                     "lhs": 1.0 / narrow[-1], "rhs": 1.0 / wide[-1]}
                )
    return result


def _sweep_perturbation(seed, count, max_size) -> FamilyResult:
    """||(A+E)^{-1}|| <= ||A^{-1}|| / (1 - ||A^{-1}E||) for ||A^{-1}E|| <= 1/2."""
    result = FamilyResult(name="inverse-perturbation-bound", instances=count, comparisons=0)
    for idx in range(count):
        rng = seed.derive("perturb", idx).rng()
        n = int(rng.integers(2, max_size + 1))
        a = rng.standard_normal((n, n))
        sigma = dense.singular_values(a)
        if sigma[-1] <= 1e-6 * sigma[0]:
            continue  # skip near-singular draws
        inv_norm_a = 1.0 / sigma[-1]
        fact = factor.gepp_factor(a)
        e = rng.standard_normal((n, n))
        inv_e = factor.lu_solve(fact, e)
        target = float(rng.uniform(0.05, 0.5))
        scale = target / dense.spectral_norm(inv_e)
        e *= scale
        mu = dense.spectral_norm(inv_e * scale)
        perturbed_sigma = dense.singular_values(a + e)
        lhs = 1.0 / perturbed_sigma[-1]
        rhs = inv_norm_a / (1.0 - mu)
        result.comparisons += 1
        if lhs > rhs * (1.0 + _SLACK) + _SLACK:
            result.violations.append(
                {"instance": idx, "claim": "inverse-norm", "mu": mu, "lhs": lhs, "rhs": rhs}
            )
        identity = np.eye(n)
        inv_a = factor.lu_solve(fact, identity)
        inv_pert = factor.lu_solve(factor.gepp_factor(a + e), identity)
        rel_change = dense.spectral_norm(inv_pert - inv_a) / inv_norm_a
        result.comparisons += 1
        if rel_change > rhs * (1.0 + _SLACK) + _SLACK:
            result.violations.append(
                {"instance": idx, "claim": "inverse-change", "mu": mu, "lhs": rel_change, "rhs": rhs}
            )
    return result


_SPECTRAL_FAMILIES = (
    ("product-lower-bound-left", 0.20),
    ("product-lower-bound-right", 0.20),
    ("pseudo-inverse-product-bound", 0.15),
    ("leading-block-pinv-bound", 0.15),
    ("submatrix-interlacing", 0.15),
    ("inverse-perturbation-bound", 0.15),
)


def _allocate(trials: int) -> dict[str, int]:
    counts = {name: int(trials * frac) for name, frac in _SPECTRAL_FAMILIES}
    remainder = trials - sum(counts.values())
    for name, _ in _SPECTRAL_FAMILIES:
        if remainder == 0:
            break
        counts[name] += 1
        remainder -= 1
    return counts


def check_spectral_bounds(seed: randgen.Seed, trials: int = 1000, max_size: int = 12) -> VerificationReport:
    """Sweep the deterministic singular-value bounds over random instances.

    ``trials`` random instances are distributed across the six bound
    families; every comparison carries 1e-8 relative slack over the SVD
    oracle.  ``max_size`` caps matrix dimensions (at most 32).
    """
    if max_size > 32:
        raise SizeError(f"max_size caps at 32, got {max_size}")
    counts = _allocate(trials)
    report = VerificationReport(
        title=f"spectral bounds ({trials} instances, sizes <= {max_size})", seed=seed.master
    )
    report.checks.append(
        _sweep_product_lower_bounds(seed, counts["product-lower-bound-left"], max_size, "left")
    )
    report.checks.append(
        _sweep_product_lower_bounds(seed, counts["product-lower-bound-right"], max_size, "right")
    )
    report.checks.append(_sweep_pseudo_inverse_bounds(seed, counts["pseudo-inverse-product-bound"], max_size))
    report.checks.append(_sweep_leading_block_bounds(seed, counts["leading-block-pinv-bound"], max_size))
    report.checks.append(_sweep_interlacing(seed, counts["submatrix-interlacing"], max_size))
    report.checks.append(_sweep_perturbation(seed, counts["inverse-perturbation-bound"], max_size))
    return report


def check_perturbation(seed: randgen.Seed, trials: int = 150, max_size: int = 12) -> VerificationReport:
    """Standalone sweep of the inverse-perturbation bound."""
    report = VerificationReport(title=f"inverse perturbation bound ({trials} instances)", seed=seed.master)
    report.checks.append(_sweep_perturbation(seed, trials, max_size))
    return report


# --- elimination safety sweep -------------------------------------------------

_SAFETY_BLOCK = 4


def check_safety_bounds(seed: randgen.Seed, trials: int = 100, n: int = 16) -> VerificationReport:
    """Pivot norms of scalar and block elimination on G^T G + I inputs.

    Block elimination runs ``_SAFETY_BLOCK``-by-``_SAFETY_BLOCK`` pivot blocks.
    Every recorded pivot norm must stay below N_+ = N + N_- N^2 and every
    recorded inverse norm below N_-, with the growth factor capped by
    (N_+ N_-)^(log2 n).
    """
    if n % _SAFETY_BLOCK != 0:
        raise ValueError(f"n must be a multiple of {_SAFETY_BLOCK}, got {n}")
    report = VerificationReport(
        title=f"elimination safety bounds ({trials} trials at n={n})", seed=seed.master
    )
    schedule = (_SAFETY_BLOCK,) * (n // _SAFETY_BLOCK)
    worst_margin = 0.0
    worst_growth = 0.0
    scalar_fail = 0
    block_fail = 0
    degenerate = 0
    for t in range(trials):
        g = randgen.gaussian_matrix(seed.derive("safety", t), n, n)
        a = g.T @ g + np.eye(n)
        bounds = factor.safety_bounds(a)
        if not bounds.strongly_nonsingular:
            degenerate += 1
            continue
        _, scalar_report = factor.genp_factor(a, monitor="spectral")
        scalar_check = factor.safety_check(bounds, scalar_report)
        _, block_report = factor.block_genp_factor(a, schedule, monitor="spectral")
        block_check = factor.safety_check(bounds, block_report)
        scalar_fail += 0 if scalar_check.verdict else 1
        block_fail += 0 if block_check.verdict else 1
        worst_margin = max(worst_margin, scalar_check.margin or 0.0, block_check.margin or 0.0)
        for check in (scalar_check, block_check):
            if check.growth_bound:
                worst_growth = max(worst_growth, check.growth_factor / check.growth_bound)
    report.checks.append(
        BoundCheck(
            name="scalar-pivot-bounds",
            params={"n": n, "trials": trials},
            bound=1.0 + 1e-6,
            empirical=worst_margin,
            margin=0.0,
            samples=trials,
            passed=scalar_fail == 0 and degenerate == 0,
        )
    )
    report.checks.append(
        BoundCheck(
            name="block-pivot-bounds",
            params={"n": n, "schedule": f"{_SAFETY_BLOCK}x{n // _SAFETY_BLOCK}", "trials": trials},
            bound=1.0 + 1e-6,
            empirical=worst_margin,
            margin=0.0,
            samples=trials,
            passed=block_fail == 0 and degenerate == 0,
        )
    )
    report.checks.append(
        BoundCheck(
            name="growth-factor-vs-bound",
            params={"n": n, "trials": trials},
            bound=1.0,
            empirical=worst_growth,
            margin=0.0,
            samples=trials,
            passed=worst_growth <= 1.0,
        )
    )
    report.extras = {"scalar_failures": scalar_fail, "block_failures": block_fail, "degenerate": degenerate}
    return report
