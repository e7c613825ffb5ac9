"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Criteria run on deterministic master seeds at the stated trial counts, so the
suite reproduces bit-for-bit within this implementation.
"""

import time

import numpy as np
import pytest

from nopivot import experiments, factor, instances, pipeline, transforms, verify
from nopivot.randgen import FiniteSet, Seed
from nopivot.transforms import CirculantOperator, ToeplitzOperator

MASTER = experiments.DEFAULT_MASTER_SEED
TRIALS = 100
# Largest relative residual criterion 03 accepts from a preconditioned solve:
# the 4e-9 target with a 1e2 slack.  Criterion 02 counts a plain-GENP solve
# above it as corrupted, so both criteria read the same line between a safe
# and a broken elimination.
PRECONDITIONED_RESIDUAL_BOUND = 4e-9 * 1e2


def report_line(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")


def run_trials(n, plan, trials=TRIALS):
    """Residual histories of the preconditioned solve over shared instances."""
    histories = []
    for t in range(trials):
        inst = instances.hard_matrix(experiments.instance_seed(MASTER, n, t), n, 4)
        out = pipeline.preconditioned_solve(
            inst.matrix, inst.rhs, plan, experiments.multiplier_seed(MASTER, n, t)
        )
        histories.append(out.residual_history if out.failure is None else None)
    return histories


def test_criterion_01_gepp_baseline():
    start = time.time()
    config = experiments.ExperimentConfig(dims=(64,), trials=TRIALS, method="gepp", master_seed=MASTER)
    row = experiments.run_residual_experiment(config).rows[0]
    elapsed = time.time() - start
    ok = 1e-15 <= row.mean <= 1e-12 and row.max <= 1e-10 and row.failures == 0 and elapsed < 30
    report_line(1, "gepp-baseline-n64", ok,
                f"mean={row.mean:.2e} max={row.max:.2e} failures={row.failures} runtime={elapsed:.1f}s")
    assert ok


def test_criterion_02_genp_failure():
    # Plain GENP promises only that the solve breaks on these instances, not
    # how large the garbage is: a trial is corrupted when it aborts or lands
    # above the bound a preconditioned solve must meet.
    start = time.time()
    histories = run_trials(64, pipeline.PreconditionPlan(left=None, right=None))
    residuals = np.array([h[0] for h in histories if h is not None])
    elapsed = time.time() - start
    aborted = TRIALS - len(residuals)
    corrupted = aborted + int(np.sum(residuals > PRECONDITIONED_RESIDUAL_BOUND))
    ok = corrupted >= 95 and elapsed < 30
    spread = (
        f"min={residuals.min():.2e} median={np.median(residuals):.2e} max={residuals.max():.2e}"
        if len(residuals)
        else "no trial completed"
    )
    detail = (
        f"residual>{PRECONDITIONED_RESIDUAL_BOUND:.0e} or aborted in {corrupted}/{TRIALS} trials, "
        f"aborted={aborted} residual>=10 in {int(np.sum(residuals >= 10.0))} "
        f"({spread} runtime={elapsed:.1f}s)"
    )
    report_line(2, "genp-failure-n64", ok, detail)
    assert ok, detail


@pytest.mark.parametrize("n,limit", [(64, 120.0), (256, 120.0)])
def test_criterion_03_gaussian_preconditioning(n, limit):
    start = time.time()
    plan = pipeline.PreconditionPlan(left="gaussian", right=None)
    histories = run_trials(n, plan)
    residuals = np.array([h[0] for h in histories if h is not None])
    elapsed = time.time() - start
    within_slack = np.all(residuals <= PRECONDITIONED_RESIDUAL_BOUND)
    within_target = int(np.sum(residuals <= 4e-9))
    ok = (
        len(residuals) == TRIALS
        and within_slack
        and within_target >= 95
        and elapsed < limit
    )
    report_line(3, f"gaussian-preconditioning-n{n}", ok,
                f"max={residuals.max():.2e} <=4e-9 in {within_target}/{TRIALS} runtime={elapsed:.1f}s")
    assert ok


def test_criterion_04_circulant_preconditioning():
    start = time.time()
    plan = pipeline.PreconditionPlan(left="circulant", right="circulant", refinement_steps=1)
    histories = run_trials(64, plan)
    level0 = np.array([h[0] for h in histories if h is not None])
    level1 = np.array([h[1] for h in histories if h is not None])
    elapsed = time.time() - start
    mean0, mean1 = level0.mean(), level1.mean()
    ok = (
        len(level0) == TRIALS
        and 1e-14 <= mean0 <= 1e-9
        and mean1 <= mean0 / 1e2
        and elapsed < 120
    )
    report_line(4, "circulant-preconditioning-n64", ok,
                f"mean0={mean0:.2e} mean1={mean1:.2e} gain={mean0 / mean1:.0f}x runtime={elapsed:.1f}s")
    assert ok


def test_criterion_05_refinement_gain():
    start = time.time()
    plan = pipeline.PreconditionPlan(refinement_steps=1)  # two-sided Gaussian
    histories = run_trials(64, plan)
    gains = np.array([h[0] / max(h[1], 5e-324) for h in histories if h is not None])
    elapsed = time.time() - start
    median_gain = float(np.median(gains))
    ok = len(gains) == TRIALS and median_gain >= 10.0 and elapsed < 60
    report_line(5, "refinement-gain-n64", ok,
                f"median per-trial improvement {median_gain:.0f}x runtime={elapsed:.1f}s")
    assert ok


def test_criterion_06_spectral_bound_suite():
    start = time.time()
    report = verify.check_spectral_bounds(Seed(MASTER), trials=1000, max_size=12)
    elapsed = time.time() - start
    violations = sum(len(f.violations) for f in report.checks)
    comparisons = sum(f.comparisons for f in report.checks)
    total = sum(f.instances for f in report.checks)
    ok = report.passed and violations == 0 and total == 1000 and elapsed < 60
    report_line(6, "spectral-bound-suite", ok,
                f"{comparisons} comparisons over {total} instances, {violations} violations, "
                f"runtime={elapsed:.1f}s")
    assert ok


def test_criterion_07_schur_complement_algebra():
    start = time.time()
    rng = np.random.default_rng(MASTER)
    worst_schedule = 0.0
    worst_nesting = 0.0
    for t in range(200):
        g = rng.standard_normal((16, 16))
        a = g.T @ g + np.eye(16)
        fine, _ = factor.block_genp_factor(a, (1,) * 16, record_complements=True)
        coarse, _ = factor.block_genp_factor(a, (4, 4, 4, 4), record_complements=True)
        s_fine = fine.schur_complements[8]
        s_coarse = coarse.schur_complements[8]
        worst_schedule = max(
            worst_schedule, np.linalg.norm(s_fine - s_coarse) / np.linalg.norm(s_fine)
        )
        h = int(rng.integers(1, 8))
        k = int(rng.integers(h + 1, 16))
        inner = factor.schur_complement(a[:k, :k], h)
        outer = factor.schur_complement(a, h)[: k - h, : k - h]
        worst_nesting = max(worst_nesting, np.linalg.norm(inner - outer) / max(np.linalg.norm(outer), 1e-300))
    worst_det = 0.0
    for t in range(200):
        g = rng.standard_normal((8, 8))
        a = g.T @ g + np.eye(8)
        k = int(rng.integers(1, 8))
        det_a = np.linalg.det(a)
        det_b = np.linalg.det(a[:k, :k])
        det_s = np.linalg.det(factor.schur_complement(a, k))
        worst_det = max(worst_det, abs(det_a - det_b * det_s) / abs(det_a))
    elapsed = time.time() - start
    ok = worst_schedule <= 1e-10 and worst_nesting <= 1e-10 and worst_det <= 1e-8 and elapsed < 30
    report_line(7, "schur-complement-algebra", ok,
                f"schedule={worst_schedule:.1e} nesting={worst_nesting:.1e} det={worst_det:.1e} "
                f"runtime={elapsed:.1f}s")
    assert ok


def test_criterion_08_safety_bounds():
    start = time.time()
    report = verify.check_safety_bounds(Seed(MASTER), trials=100, n=16)
    elapsed = time.time() - start
    ok = report.passed and elapsed < 60
    worst = max(c.empirical for c in report.checks if c.name.endswith("pivot-bounds"))
    report_line(8, "elimination-safety-bounds", ok,
                f"worst norm/bound ratio {worst:.3f}, degenerate={report.extras['degenerate']}, "
                f"runtime={elapsed:.1f}s")
    assert ok


def test_criterion_09_tail_bounds():
    start = time.time()
    report = verify.check_tail_bounds(Seed(MASTER), samples=10_000)
    elapsed = time.time() - start
    failing = [c.line() for c in report.checks if not c.passed]
    exact_points = [c for c in report.checks if c.name == "vector-condition-exact"]
    ok = report.passed and all(c.empirical <= 1e-12 for c in exact_points) and elapsed < 180
    report_line(9, "gaussian-tail-bounds", ok,
                f"{len(report.checks)} points, {len(failing)} failing, runtime={elapsed:.1f}s")
    assert ok, failing


def test_criterion_10_finite_set_exact_arithmetic():
    start = time.time()
    report = verify.check_finite_set_singularity(
        Seed(MASTER), k=3, delta=FiniteSet(tuple(range(10))), trials=100_000
    )
    elapsed = time.time() - start
    by_name = {}
    for check in report.checks:
        by_name.setdefault(check.name, []).append(check.empirical)
    nonsingular_ok = all(v >= 0.7 for v in by_name["nonsingular-frequency"])
    strong_ok = all(v >= 0.4 for v in by_name["strongly-nonsingular-frequency"])
    ok = report.passed and nonsingular_ok and strong_ok and elapsed < 60
    report_line(10, "finite-set-exact-arithmetic", ok,
                f"nonsingular>={min(by_name['nonsingular-frequency']):.4f} "
                f"strong>={min(by_name['strongly-nonsingular-frequency']):.4f} runtime={elapsed:.1f}s")
    assert ok


def test_criterion_11_structured_multiply():
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(MASTER)
    for n in (16, 64, 256):
        circ = CirculantOperator(rng.standard_normal(n))
        col = rng.standard_normal(n)
        row = rng.standard_normal(n)
        row[0] = col[0]
        toep = ToeplitzOperator(col, row)
        a = rng.standard_normal((n, n))
        for op in (circ, toep):
            d = op.materialize() @ a
            worst = max(worst, np.linalg.norm(op.apply(a) - d) / np.linalg.norm(d))
    n = 256
    op = CirculantOperator(rng.standard_normal(n))
    a = rng.standard_normal((n, n))
    transforms.op_counter.reset()
    op.apply(a)
    count = transforms.op_counter.total
    elapsed = time.time() - start
    ok = worst <= 1e-12 and count < n**3 / 4 and elapsed < 60
    report_line(11, "structured-multiply", ok,
                f"worst rel err={worst:.1e}, {count} ops vs n^3/4={n**3 // 4}, runtime={elapsed:.1f}s")
    assert ok
