import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nopivot import factor, pipeline
from nopivot.errors import ShapeError
from nopivot.instances import hard_matrix
from nopivot.randgen import Seed, gaussian_matrix

RNG = np.random.default_rng


def strongly_nonsingular(seed, n):
    g = RNG(seed).standard_normal((n, n))
    return g.T @ g + n * np.eye(n)


class TestResidualMeasurement:
    def test_compensated_matches_exact_rationals(self):
        rng = RNG(0)
        a = np.round(rng.standard_normal((6, 6)) * 64) / 64
        x = np.round(rng.standard_normal(6) * 64) / 64
        b = np.round(rng.standard_normal(6) * 64) / 64
        exact = [
            Fraction(bi) - sum(Fraction(aij) * Fraction(xj) for aij, xj in zip(row, x))
            for row, bi in zip(a, b)
        ]
        mine = pipeline.compensated_residual(a, x, b)
        for got, want in zip(mine, exact):
            assert got == pytest.approx(float(want), abs=1e-16)

    def test_overflowing_row_sum_rescaled_exactly(self):
        # Row 0's products 1e308 + 1e308 overflow a partial fsum; the exact sum does not.
        a = np.array([[1.0, 1.0, -1.0, 3.0, 2.0**-30], [0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]])
        x = np.array([1e308, 1e308, 1.5e308, 1.0, 1.0])
        b = np.array([1e308, 1e308, 0.25])
        exact = Fraction(b[0]) - sum(Fraction(aij) * Fraction(xj) for aij, xj in zip(a[0], x))
        r = pipeline.compensated_residual(a, x, b)
        assert r[0] == float(exact)
        # Rows that fsum sums without overflow keep its bits.
        assert r[1] == b[1] - math.fsum((a[1] * x).tolist())
        assert r[2] == b[2] - math.fsum((a[2] * x).tolist())

    def test_overflowing_row_sum_exact_zero_and_infinite_sum(self):
        a = np.array([[1.0, 1.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        x = np.array([1e308, 1e308, 1.5e308])
        b = np.array([0.5e308, 1e308, 1.5e308])
        assert pipeline.compensated_residual(a, x, b).tolist() == [0.0, 0.0, 0.0]
        big = np.array([[1.0, 1.0], [-1.0, -1.0]])
        r = pipeline.compensated_residual(big, np.array([1e308, 1e308]), np.zeros(2))
        assert r.tolist() == [-math.inf, math.inf]

    def test_overflowing_products_rescaled(self):
        # 1e200 * 1e200 is past the float range, but the exact residual is 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pipeline.relative_residual([[1e200, -1e200], [0, 1]], [1e200, 1e200], [0, 1e200]) == 0.0
            a = np.array([[1e200, -1e200, 3.0], [0.5, 0.25, 2.0**-40], [1.0, 1.0, 0.1], [2.0**600, 2.0**600, 0.0]])
            x = np.array([1e200, 1e200, 1.0])
            b = np.array([1.0, 0.3, 1e200, 0.0])
            r = pipeline.compensated_residual(a, x, b)
        assert r[0] == -2.0
        assert r[3] == -math.inf  # 2^601 * 1e200 is past the float range
        # Rows whose products are finite keep their bits.
        for i in (1, 2):
            assert r[i] == b[i] - math.fsum((a[i] * x).tolist())

    def test_overflowing_solution_residual_ratio(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pipeline.relative_residual([[1e200, 0], [0, 1]], [1e200, 1e200], [0, 1e200]) == math.inf
            assert pipeline.relative_residual([[1e100, 0], [0, 1]], [1e100, 1e100], [0, 1e100]) == 1e100

    def test_zero_rhs_ratio(self):
        # ||r|| / ||b|| at b = 0: 0/0 reads as an exact solve, ||r||/0 as infinite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pipeline.relative_residual(np.eye(2), np.zeros(2), np.zeros(2)) == 0.0
            assert pipeline.relative_residual(np.eye(2), [0.0, 1e-300], np.zeros(2)) == math.inf
            # ||b|| underflows to 0 for b != 0: measured at scale 1 / max|b| instead.
            assert pipeline.relative_residual(np.eye(2), [0.0, 5e-301], [0.0, 1e-300]) == 0.5

    def test_zero_rhs_solve(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pipeline.preconditioned_solve(
                strongly_nonsingular(3, 8), np.zeros(8), pipeline.PreconditionPlan(), Seed(3)
            )
        assert out.failure is None
        assert out.relative_residual == 0.0
        assert not out.solution.any()

    def test_relative_residual_scale(self):
        a = strongly_nonsingular(1, 8)
        x = RNG(2).standard_normal(8)
        b = a @ x
        assert pipeline.relative_residual(a, x, b) <= 1e-14


class TestIdentityPlan:
    def test_bit_for_bit_equals_plain_genp(self):
        a = strongly_nonsingular(0, 16)
        b = RNG(1).standard_normal(16)
        plan = pipeline.PreconditionPlan(left=None, right=None)
        out = pipeline.preconditioned_solve(a, b, plan, Seed(1))
        fact, _ = factor.genp_factor(a)
        direct = factor.lu_solve(fact, b)
        assert np.array_equal(out.solution, direct)

    def test_outcome_report_holds_pivots_only(self):
        # The solve path runs no safety monitor: no complement norms.
        a = strongly_nonsingular(2, 16)
        b = RNG(3).standard_normal(16)
        for plan in (pipeline.PreconditionPlan(left=None, right=None), pipeline.PreconditionPlan()):
            safety = pipeline.preconditioned_solve(a, b, plan, Seed(2)).safety
            assert safety.monitor is None
            assert all(rec.complement_norm is None for rec in safety.records)
            assert 0.0 < safety.u_growth < math.inf

    def test_none_string_alias(self):
        plan = pipeline.PreconditionPlan(left="none", right="none")
        assert plan.left is None and plan.right is None


class TestPreconditionedSolve:
    def test_fact1_consistency(self):
        # Two-sided dense Gaussian multipliers preserve the solution map.
        for n in (8, 16, 32):
            a = strongly_nonsingular(n, n)
            b = RNG(n + 1).standard_normal(n)
            b /= np.linalg.norm(b)
            out = pipeline.preconditioned_solve(a, b, pipeline.PreconditionPlan(), Seed(3).derive(n))
            assert out.failure is None
            assert out.relative_residual <= 1e-8

    def test_gaussian_rescues_hard_instance(self):
        inst = hard_matrix(Seed(100).derive("i", 0), 64, 4)
        out = pipeline.preconditioned_solve(inst.matrix, inst.rhs, pipeline.PreconditionPlan(), Seed(4))
        assert out.relative_residual <= 4e-9

    def test_circulant_with_refinement(self):
        inst = hard_matrix(Seed(100).derive("i", 0), 64, 4)
        plan = pipeline.PreconditionPlan(left="circulant", right="circulant", refinement_steps=1)
        out = pipeline.preconditioned_solve(inst.matrix, inst.rhs, plan, Seed(5))
        assert len(out.residual_history) == 2
        assert out.residual_history[1] <= out.residual_history[0] / 1e2

    def test_history_length_matches_steps(self):
        a = strongly_nonsingular(2, 8)
        b = RNG(6).standard_normal(8)
        plan = pipeline.PreconditionPlan(refinement_steps=3)
        out = pipeline.preconditioned_solve(a, b, plan, Seed(7))
        assert len(out.residual_history) == 4
        assert out.relative_residual == out.residual_history[-1]

    def test_residual_measured_against_original(self):
        inst = hard_matrix(Seed(8), 16, 4)
        out = pipeline.preconditioned_solve(inst.matrix, inst.rhs, pipeline.PreconditionPlan(), Seed(9))
        recomputed = pipeline.relative_residual(inst.matrix, out.solution, inst.rhs)
        assert out.relative_residual == recomputed

    def test_failure_reported_not_raised(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = pipeline.PreconditionPlan(left=None, right=None)
        out = pipeline.preconditioned_solve(a, np.ones(2), plan, Seed(10))
        assert out.failure is not None
        assert out.failure.kind == "ZeroPivotError"
        assert out.failure.step == 1
        assert out.failure.seed == Seed(10)
        assert out.solution is None
        assert math.isinf(out.relative_residual)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_overflowing_solution_reported_not_raised(self, steps):
        # GENP's 1e300 multiplier overflows the forward substitution to -inf.
        a = np.array([[1e-300, 1.0], [1.0, 1.0]])
        b = np.array([1e10, 1.0])
        plan = pipeline.PreconditionPlan(left=None, right=None, refinement_steps=steps)
        with np.errstate(over="ignore", invalid="ignore"):
            out = pipeline.preconditioned_solve(a, b, plan, Seed(10))
        assert out.failure is not None
        assert out.failure.kind == "NonFiniteSolutionError"
        assert out.failure.seed == Seed(10)
        assert out.solution is None
        assert math.isinf(out.relative_residual)
        assert out.residual_history == []

    def test_overflow_raises_no_warning(self):
        # The structured failure is the whole report: numpy's overflow warning stays inside.
        a = np.array([[1e-300, 1.0], [1.0, 1.0]])
        b = np.array([1e10, 1.0])
        plan = pipeline.PreconditionPlan(left=None, right=None, refinement_steps=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pipeline.preconditioned_solve(a, b, plan, Seed(10))
        assert out.failure.kind == "NonFiniteSolutionError"

    def test_non_finite_refinement_keeps_last_finite_iterate(self, monkeypatch):
        a = strongly_nonsingular(5, 8)
        b = RNG(19).standard_normal(8)
        plan = pipeline.PreconditionPlan(left=None, right=None, refinement_steps=2)
        first = pipeline.preconditioned_solve(a, b, pipeline.PreconditionPlan(left=None, right=None), Seed(11))
        monkeypatch.setattr(pipeline, "refine_once", lambda fact, left, right, x, r: np.full_like(x, np.nan))
        out = pipeline.preconditioned_solve(a, b, plan, Seed(11))
        assert out.failure.kind == "NonFiniteSolutionError"
        assert np.array_equal(out.solution, first.solution)
        assert out.residual_history == first.residual_history
        assert out.relative_residual == first.relative_residual
        assert out.safety is not None

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_one_residual_per_refinement_level(self, monkeypatch, steps):
        calls = []
        original = pipeline.compensated_residual

        def counted(a, x, b):
            calls.append(1)
            return original(a, x, b)

        monkeypatch.setattr(pipeline, "compensated_residual", counted)
        inst = hard_matrix(Seed(8), 16, 4)
        plan = pipeline.PreconditionPlan(refinement_steps=steps)
        out = pipeline.preconditioned_solve(inst.matrix, inst.rhs, plan, Seed(9))
        assert out.failure is None
        assert len(calls) == steps + 1 == len(out.residual_history)

    @pytest.mark.parametrize("kind", ["toeplitz", "hankel", "finite-set"])
    def test_other_multiplier_kinds(self, kind):
        inst = hard_matrix(Seed(11).derive(kind), 16, 4)
        plan = pipeline.PreconditionPlan(left=kind, right=kind)
        out = pipeline.preconditioned_solve(inst.matrix, inst.rhs, plan, Seed(12).derive(kind))
        assert out.failure is None
        assert out.relative_residual <= 1e-6

    def test_structured_fast_path_above_threshold(self):
        # n = 128 runs the circulant multipliers without materializing them.
        inst = hard_matrix(Seed(13), 128, 4)
        plan = pipeline.PreconditionPlan(left="circulant", right="circulant")
        out = pipeline.preconditioned_solve(inst.matrix, inst.rhs, plan, Seed(14))
        assert out.failure is None
        assert out.relative_residual <= 1e-5

    def test_local_safety_restored(self):
        # Leading blocks of the preconditioned matrix are numerically
        # nonsingular in nearly all trials (LAPACK SVD as the test oracle).
        good = 0
        trials = 100
        for t in range(trials):
            inst = hard_matrix(Seed(15).derive(t), 64, 4)
            seed = Seed(16).derive(t)
            f = gaussian_matrix(seed.derive("left-multiplier"), 64, 64)
            h = gaussian_matrix(seed.derive("right-multiplier"), 64, 64)
            product = f @ inst.matrix @ h
            ok = True
            for k in range(1, 65):
                sigma = np.linalg.svd(product[:k, :k], compute_uv=False)
                if sigma[-1] <= 1e-10 * sigma[0]:
                    ok = False
                    break
            good += ok
        assert good >= 95

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            pipeline.preconditioned_solve(np.ones((2, 3)), np.ones(2), pipeline.PreconditionPlan(), Seed(0))
        with pytest.raises(ShapeError):
            pipeline.preconditioned_solve(np.eye(2), np.ones(3), pipeline.PreconditionPlan(), Seed(0))


class TestRefineOnce:
    def test_exact_solution_fixed_point(self):
        a = strongly_nonsingular(3, 12)
        x = RNG(17).standard_normal(12)
        b = a @ x
        fact, _ = factor.genp_factor(a)
        x_exact = factor.lu_solve(fact, b)
        refined = pipeline.refine_once(fact, None, None, x_exact, pipeline.compensated_residual(a, x_exact, b))
        assert np.linalg.norm(refined - x_exact) <= 1e-12 * np.linalg.norm(x_exact)

    def test_refinement_improves_perturbed_solution(self):
        a = strongly_nonsingular(4, 12)
        x = RNG(18).standard_normal(12)
        b = a @ x
        fact, _ = factor.genp_factor(a)
        x_bad = factor.lu_solve(fact, b) * (1 + 1e-6)
        refined = pipeline.refine_once(fact, None, None, x_bad, pipeline.compensated_residual(a, x_bad, b))
        assert pipeline.relative_residual(a, refined, b) < pipeline.relative_residual(a, x_bad, b)


class TestPlanValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            pipeline.PreconditionPlan(left="fourier")

    def test_negative_refinement(self):
        with pytest.raises(ValueError):
            pipeline.PreconditionPlan(refinement_steps=-1)

    def test_build_multiplier_kinds(self):
        assert pipeline.build_multiplier(None, 8, Seed(0)) is None
        dense_mult = pipeline.build_multiplier("gaussian", 8, Seed(0))
        assert dense_mult.shape == (8, 8)
        circ = pipeline.build_multiplier("circulant", 8, Seed(0))
        assert isinstance(circ, np.ndarray)  # materialized below the cutoff
        big = pipeline.build_multiplier("circulant", 128, Seed(0))
        assert not isinstance(big, np.ndarray)
        ints = pipeline.build_multiplier("finite-set", 8, Seed(0))
        assert set(np.unique(ints)) <= set(pipeline.DEFAULT_FINITE_SET.values)
