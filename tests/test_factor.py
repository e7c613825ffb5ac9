from fractions import Fraction

import numpy as np
import pytest

from nopivot import dense, experiments, factor, verify
from nopivot.errors import (
    ShapeError,
    SingularMatrixError,
    SingularPivotBlockError,
    ZeroPivotError,
)
from nopivot.instances import hard_matrix
from nopivot.randgen import Seed, gaussian_matrix

RNG = np.random.default_rng


def spd_like(seed, n):
    g = RNG(seed).standard_normal((n, n))
    return g.T @ g + np.eye(n)


def exact_genp_pivots(int_matrix):
    """No-pivoting elimination over exact rationals; None marks a zero pivot."""
    n = len(int_matrix)
    work = [[Fraction(int(v)) for v in row] for row in int_matrix]
    pivots = []
    for k in range(n):
        pivot = work[k][k]
        if pivot == 0:
            return pivots + [None]
        pivots.append(pivot)
        for i in range(k + 1, n):
            ratio = work[i][k] / pivot
            for j in range(k, n):
                work[i][j] -= ratio * work[k][j]
    return pivots


def reference_safety_check(a, report):
    """``safety_check(a, report)`` as it was before the per-input scan moved to
    ``safety_bounds``: one leading-block scan per call, and the growth factor
    read off a report whose monitored runs stored ``dense.spectral_norm(a)``."""
    n = a.shape[0]
    input_norm = dense.spectral_norm(a) if report.monitor else None
    growth_factor = 1.0
    for rec in report.records:
        if rec.complement_norm is not None and input_norm > 0:
            growth_factor = max(growth_factor, rec.complement_norm / input_norm)
    norm = dense.spectral_norm(a)
    sizes = list(range(1, n + 1))
    if n > 128:
        sizes = [2**p for p in range(n.bit_length()) if 2**p < n] + [n]
    n_minus = 0.0
    for j in sizes:
        smin, smax = factor._sigma_extremes(a[:j, :j])
        if smin <= 1e-13 * smax:
            return factor.SafetyCheckResult(
                bounds=factor.SafetyBounds(n, norm, None, j), verdict=None,
                pivot_bound=None, growth_factor=growth_factor, growth_bound=None, violations=[], margin=None,
            )
        n_minus = max(n_minus, 1.0 / smin)
    n_plus = norm + n_minus * norm * norm
    slack = 1.0 + 1e-6
    violations = []
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
    if growth_factor > growth_bound * slack:
        violations.append((0, "growth factor", growth_factor, growth_bound))
    return factor.SafetyCheckResult(
        bounds=factor.SafetyBounds(n, norm, n_minus, None), verdict=not violations,
        pivot_bound=n_plus, growth_factor=growth_factor, growth_bound=growth_bound,
        violations=violations, margin=worst,
    )


def reference_genp_factor(a, monitor=None):
    """``genp_factor`` before it was blocked: one full-width rank-1 update per pivot."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    work = a.copy()
    lower = np.eye(n)
    records = []
    for k in range(n):
        pivot = work[k, k]
        if abs(pivot) <= 0.0:
            raise ZeroPivotError(step=k + 1, pivot=float(pivot))
        comp_norm = None
        if k < n - 1:
            mults = work[k + 1 :, k] / work[k, k]
            lower[k + 1 :, k] = mults
            work[k + 1 :, k + 1 :] -= np.outer(mults, work[k, k + 1 :])
            if monitor:
                comp_norm = dense.spectral_norm(work[k + 1 :, k + 1 :])
        records.append(factor.PivotRecord(k + 1, 1, abs(float(pivot)), 1.0 / abs(float(pivot)), comp_norm))
    upper = np.triu(work)
    report = factor.SafetyReport(n=n, monitor=monitor, records=records)
    report.u_growth = float(max(upper.max(), -upper.min()) / max(a.max(), -a.min()))
    return factor.GenpFactorization(lower, upper), report


def reference_gepp_factor(a):
    """``gepp_factor`` before it was blocked: one full-width rank-1 update per pivot."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    work = a.copy()
    lower = np.eye(n)
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(work[k:, k])))
        if abs(work[p, k]) < factor._GEPP_PIVOT_FLOOR:
            raise SingularMatrixError(f"no usable pivot in column {k + 1}", step=k + 1)
        if p != k:
            work[[k, p], :] = work[[p, k], :]
            perm[[k, p]] = perm[[p, k]]
            if k > 0:
                lower[[k, p], :k] = lower[[p, k], :k]
        mults = work[k + 1 :, k] / work[k, k]
        lower[k + 1 :, k] = mults
        work[k + 1 :, k + 1 :] -= np.outer(mults, work[k, k + 1 :])
    return factor.GeppFactorization(perm, lower, np.triu(work))


def integer_lu_product(seed, n, diagonal):
    """L0 @ U0 with entries of L0 and U0 in {-1, 0, 1}, unit L0, and U0's given diagonal.

    With a diagonal of zeros and powers of two, every entry, multiplier and
    Schur update of GENP on the product is a short binary fraction, so the
    elimination is exact in any summation order."""
    rng = RNG(seed)
    l0 = np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n)
    u0 = np.triu(rng.integers(-1, 2, (n, n)), 1) + np.diag(diagonal)
    return (l0 @ u0).astype(float), l0, u0


class TestGenp:
    def test_hand_example(self):
        fact, report = factor.genp_factor([[2.0, 1.0], [1.0, 1.0]])
        assert np.allclose(fact.l_factor, [[1.0, 0.0], [0.5, 1.0]])
        assert np.allclose(fact.u_factor, [[2.0, 1.0], [0.0, 0.5]])
        assert report.pivot_magnitudes.tolist() == [2.0, 0.5]

    def test_zero_pivot_failure(self):
        with pytest.raises(ZeroPivotError) as err:
            factor.genp_factor([[0.0, 1.0], [1.0, 0.0]])
        assert err.value.step == 1

    def test_threshold_semantics(self):
        # Only an exactly zero pivot aborts: -0.0 does, the least subnormal does not.
        for tiny in (1e-8, 5e-324):
            with np.errstate(over="ignore"):
                _, report = factor.genp_factor([[tiny, 1.0], [1.0, 1.0]])
            assert report.pivot_magnitudes[0] == tiny
        with pytest.raises(ZeroPivotError) as err:
            factor.genp_factor([[-0.0, 1.0], [1.0, 1.0]])
        assert err.value.step == 1

    def test_threshold_is_not_an_argument(self):
        with pytest.raises(TypeError):
            factor.genp_factor(np.eye(2), 1e-3)

    def test_reconstruction(self):
        a = RNG(0).standard_normal((16, 16)) + 4 * np.eye(16)
        fact, _ = factor.genp_factor(a)
        scale = np.linalg.norm(fact.l_factor, 2) * np.linalg.norm(fact.u_factor, 2)
        assert np.linalg.norm(fact.l_factor @ fact.u_factor - a, 2) <= 1e-10 * scale
        assert np.allclose(np.diag(fact.l_factor), 1.0)
        assert np.allclose(fact.l_factor, np.tril(fact.l_factor))
        assert np.allclose(fact.u_factor, np.triu(fact.u_factor))

    def test_record_count_and_growth(self):
        a = spd_like(1, 12)
        _, report = factor.genp_factor(a)
        assert len(report.records) == 12

    def test_hard_matrix_completes_but_corrupts(self):
        # Singular leading half block: factorization runs to completion yet
        # the downstream solve is useless.  Corrupted means above the residual
        # a preconditioned solve must meet (acceptance criterion 03), while
        # GEPP on the same system stays within criterion 01's bound.
        inst = hard_matrix(Seed(100).derive("i", 0), 64, 4)

        def residual(fact):
            x = factor.lu_solve(fact, inst.rhs)
            return np.linalg.norm(inst.matrix @ x - inst.rhs) / np.linalg.norm(inst.rhs)

        fact, report = factor.genp_factor(inst.matrix)
        assert len(report.records) == 64
        assert residual(fact) > 4e-9 * 1e2
        assert residual(factor.gepp_factor(inst.matrix)) <= 1e-10

    def test_spectral_monitor_records(self):
        a = spd_like(2, 8)
        _, report = factor.genp_factor(a, monitor="spectral")
        assert report.monitor == "spectral"
        assert all(r.complement_norm is not None for r in report.records[:-1])
        assert report.records[-1].complement_norm is None


class TestBlockedGenp:
    """The panel-blocked ``genp_factor`` against the unblocked loop it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64])
    def test_single_panel_bit_identical(self, n):
        # Up to _PANEL columns the panel is the whole matrix: the same arithmetic.
        assert n <= factor._PANEL
        a = RNG(70 + n).standard_normal((n, n))
        fact, report = factor.genp_factor(a)
        want, want_report = reference_genp_factor(a)
        assert np.array_equal(fact.l_factor, want.l_factor)
        assert np.array_equal(fact.u_factor, want.u_factor)
        assert report == want_report

    def test_hard_instance_bit_identical(self):
        inst = hard_matrix(Seed(100).derive("i", 0), 64, 4)
        fact, report = factor.genp_factor(inst.matrix)
        want, want_report = reference_genp_factor(inst.matrix)
        assert np.array_equal(fact.u_factor, want.u_factor)
        assert report == want_report

    def test_monitored_run_bit_identical(self, monkeypatch):
        # The monitor needs every step's full complement, so it runs unblocked.
        # Each complement's norm is replaced by its bytes: equal bytes give
        # equal Jacobi norms, and 158 SVDs of up to 79 x 79 would take ~30 s.
        n = 80
        assert n > factor._PANEL
        monkeypatch.setattr(dense, "spectral_norm", lambda m: hash(m.tobytes()))
        a = spd_like(71, n)
        fact, report = factor.genp_factor(a, monitor="spectral")
        want, want_report = reference_genp_factor(a, monitor="spectral")
        assert np.array_equal(fact.l_factor, want.l_factor)
        assert np.array_equal(fact.u_factor, want.u_factor)
        assert report == want_report
        assert len({rec.complement_norm for rec in report.records}) == n

    @pytest.mark.parametrize("n", [65, 100, 128, 130, 256])
    def test_blocked_agrees_to_rounding(self, n):
        rng = RNG(72 + n)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        fact, report = factor.genp_factor(a)
        want, want_report = reference_genp_factor(a)
        assert np.allclose(fact.l_factor, want.l_factor, rtol=0, atol=1e-14)
        assert np.allclose(fact.u_factor, want.u_factor, rtol=0, atol=1e-13 * n)
        assert np.array_equal(np.tril(fact.l_factor), fact.l_factor)
        assert np.array_equal(np.triu(fact.u_factor), fact.u_factor)
        assert [r.step for r in report.records] == list(range(1, n + 1))
        assert np.allclose(report.pivot_magnitudes, want_report.pivot_magnitudes, rtol=1e-14, atol=0)
        assert report.u_growth == pytest.approx(want_report.u_growth, rel=1e-14)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            x = factor.lu_solve(fact, b)
            assert x.shape == b.shape
            assert np.allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, widths", [(64, []), (65, [1]), (256, [192, 128, 64])])
    def test_one_substitution_per_panel_boundary(self, n, widths, monkeypatch):
        # U_12 of each 64-column panel, as wide as the columns right of it.
        shapes = []
        original = factor._substitute
        monkeypatch.setattr(factor, "_substitute", lambda t, b, **kw: shapes.append(b.shape) or original(t, b, **kw))
        factor.genp_factor(spd_like(73, n))
        assert shapes == [(64, w) for w in widths]

    def test_exact_zero_pivot_past_first_panel(self):
        # The zero at step 100 comes out exactly from the first panel's Schur update.
        n = 128
        diagonal = np.where(np.arange(n) == 99, 0, 1)
        a, _, _ = integer_lu_product(74, n, diagonal)
        with pytest.raises(ZeroPivotError) as err:
            factor.genp_factor(a)
        assert err.value.step == 100
        assert err.value.pivot == 0.0
        with pytest.raises(ZeroPivotError) as want:
            reference_genp_factor(a)
        assert want.value.step == 100

    def test_exact_factors_past_first_panel(self):
        n = 128
        a, l0, u0 = integer_lu_product(75, n, RNG(76).choice([-1, 1], n))
        fact, report = factor.genp_factor(a)
        assert np.array_equal(fact.l_factor, l0)
        assert np.array_equal(fact.u_factor, u0)
        assert report.pivot_magnitudes.tolist() == [1.0] * n

    def test_threshold_abort_past_first_panel(self):
        # Runs through the exact 2^-20 pivot at step 50 and aborts on the exact zero at step 100.
        n = 128
        diagonal = np.where(np.arange(n) == 49, 2.0**-20, 1.0)
        diagonal[99] = 0.0
        a, _, _ = integer_lu_product(77, n, diagonal)
        with pytest.raises(ZeroPivotError) as err:
            factor.genp_factor(a)
        assert (err.value.step, err.value.pivot) == (100, 0.0)
        with pytest.raises(ZeroPivotError) as want:
            reference_genp_factor(a)
        assert (want.value.step, want.value.pivot) == (100, 0.0)


class TestBlockedGepp:
    """The panel-blocked ``gepp_factor`` against the unblocked loop it replaced."""

    @staticmethod
    def assert_identical(fact, want):
        assert np.array_equal(fact.permutation, want.permutation)
        assert np.array_equal(fact.l_factor, want.l_factor)
        assert np.array_equal(fact.u_factor, want.u_factor)

    @pytest.mark.parametrize("n", [1, 2, 63, 64])
    def test_single_panel_bit_identical(self, n):
        assert n <= factor._PANEL
        a = RNG(80 + n).standard_normal((n, n))
        self.assert_identical(factor.gepp_factor(a), reference_gepp_factor(a))

    def test_hard_instance_bit_identical(self):
        # Trial 0 of a tables-n64 round at the default seed.
        seed = experiments.instance_seed(experiments.DEFAULT_MASTER_SEED, 64, 0)
        inst = hard_matrix(seed, 64, experiments.DEFAULT_NULLITY)
        self.assert_identical(factor.gepp_factor(inst.matrix), reference_gepp_factor(inst.matrix))

    @pytest.mark.parametrize("n", [65, 100, 128, 130, 256])
    def test_blocked_agrees_to_rounding(self, n):
        rng = RNG(81 + n)
        a = rng.standard_normal((n, n))
        fact = factor.gepp_factor(a)
        want = reference_gepp_factor(a)
        perm = fact.permutation
        assert sorted(perm.tolist()) == list(range(n))
        assert np.array_equal(perm, want.permutation)
        assert np.abs(fact.l_factor).max() <= 1.0
        assert np.array_equal(np.tril(fact.l_factor), fact.l_factor)
        assert np.array_equal(np.diag(fact.l_factor), np.ones(n))
        assert np.array_equal(np.triu(fact.u_factor), fact.u_factor)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a[perm] - fact.l_factor @ fact.u_factor) <= 1e-14 * scale
        assert np.allclose(fact.l_factor, want.l_factor, rtol=0, atol=1e-12)
        assert np.allclose(fact.u_factor, want.u_factor, rtol=0, atol=1e-12 * scale)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            x = factor.lu_solve(fact, b)
            assert x.shape == b.shape
            assert np.allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-10)
            xt = factor.gepp_solve_transpose(fact, b)
            assert xt.shape == b.shape
            assert np.allclose(xt, np.linalg.solve(a.T, b), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n, widths", [(64, []), (65, [1]), (256, [192, 128, 64])])
    def test_one_substitution_per_panel_boundary(self, n, widths, monkeypatch):
        shapes = []
        original = factor._substitute
        monkeypatch.setattr(factor, "_substitute", lambda t, b, **kw: shapes.append(b.shape) or original(t, b, **kw))
        factor.gepp_factor(RNG(82).standard_normal((n, n)))
        assert shapes == [(64, w) for w in widths]

    def test_zero_column_past_first_panel(self):
        # Every update of an exactly zero column leaves it zero, whatever the pivots.
        a = RNG(83).standard_normal((128, 128))
        a[:, 99] = 0.0
        for eliminate in (factor.gepp_factor, reference_gepp_factor):
            with pytest.raises(SingularMatrixError) as err:
                eliminate(a)
            assert err.value.step == 100

    def test_zero_schur_column_past_first_panel(self):
        # Column 100 of the Schur complement comes out exactly zero from the
        # first panel's update (no row exchanges: ties keep the first row).
        n = 128
        a, _, _ = integer_lu_product(84, n, np.where(np.arange(n) == 99, 0, 1))
        assert np.abs(a[:, 99]).max() > 0
        for eliminate in (factor.gepp_factor, reference_gepp_factor):
            with pytest.raises(SingularMatrixError) as err:
                eliminate(a)
            assert err.value.step == 100

    def test_block_elimination_with_wide_pivot_blocks(self, monkeypatch):
        # Pivot blocks of 128 are factored by the blocked GEPP.
        n = 256
        a = spd_like(85, n)
        b = RNG(86).standard_normal(n)
        fact, _ = factor.block_genp_factor(a, (128, 128))
        monkeypatch.setattr(factor, "gepp_factor", reference_gepp_factor)
        want, _ = factor.block_genp_factor(a, (128, 128))
        for step, want_step in zip(fact.steps, want.steps):
            got_pf, want_pf = step.pivot_factorization, want_step.pivot_factorization
            assert np.array_equal(got_pf.permutation, want_pf.permutation)
            assert np.allclose(got_pf.u_factor, want_pf.u_factor, rtol=0, atol=1e-12 * np.abs(want_pf.u_factor).max())
            assert np.allclose(step.row_mult, want_step.row_mult, rtol=1e-9, atol=1e-12)
        x = fact.solve(b)
        assert np.allclose(x, want.solve(b), rtol=1e-9, atol=0)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=0)


class TestGepp:
    def test_swap_example(self):
        fact = factor.gepp_factor([[0.0, 1.0], [1.0, 0.0]])
        assert fact.permutation.tolist() == [1, 0]
        assert np.allclose(fact.l_factor, np.eye(2))
        assert np.allclose(fact.u_factor, np.eye(2))

    def test_diagonal_identity_permutation(self):
        fact = factor.gepp_factor(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert fact.permutation.tolist() == [0, 1, 2, 3]

    def test_multipliers_bounded(self):
        a = RNG(3).standard_normal((20, 20))
        fact = factor.gepp_factor(a)
        assert np.max(np.abs(fact.l_factor)) <= 1.0 + 1e-14
        assert np.linalg.norm(fact.l_factor @ fact.u_factor - a[fact.permutation], 2) <= 1e-10 * (
            np.linalg.norm(fact.l_factor, 2) * np.linalg.norm(fact.u_factor, 2)
        )

    def test_hard_matrix_accurate(self):
        inst = hard_matrix(Seed(100).derive("i", 0), 64, 4)
        x = factor.lu_solve(factor.gepp_factor(inst.matrix), inst.rhs)
        residual = np.linalg.norm(inst.matrix @ x - inst.rhs)
        assert residual <= 1e-11

    def test_singular_failure(self):
        with pytest.raises(SingularMatrixError):
            factor.gepp_factor(np.zeros((3, 3)))


class TestLuSolve:
    def test_identity(self):
        fact, _ = factor.genp_factor(np.eye(4))
        b = RNG(4).standard_normal(4)
        assert np.array_equal(factor.lu_solve(fact, b), b)

    def test_hand_solve(self):
        fact, _ = factor.genp_factor([[2.0, 1.0], [1.0, 1.0]])
        assert np.allclose(factor.lu_solve(fact, np.array([3.0, 2.0])), [1.0, 1.0])

    def test_residual_oracle(self):
        a = spd_like(5, 32)
        b = RNG(6).standard_normal(32)
        x = factor.lu_solve(factor.gepp_factor(a), b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(a, 2) * np.linalg.norm(x)

    def test_matrix_rhs(self):
        a = spd_like(7, 8)
        rhs = RNG(8).standard_normal((8, 3))
        x = factor.lu_solve(factor.gepp_factor(a), rhs)
        assert np.linalg.norm(a @ x - rhs) <= 1e-10

    def test_zero_diagonal(self):
        fact = factor.GenpFactorization(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SingularMatrixError):
            factor.lu_solve(fact, np.ones(2))
        # Zeros at rows 2 and 3 of U: the backward U solve meets row 3 first,
        # the forward U^T solve row 2.
        u = np.triu(RNG(11).standard_normal((4, 4))) + 4 * np.eye(4)
        u[1, 1] = u[2, 2] = 0.0
        gepp = factor.GeppFactorization(np.arange(4), np.eye(4), u)
        for fact in (factor.GenpFactorization(np.eye(4), u), gepp):
            with pytest.raises(SingularMatrixError) as info:
                factor.lu_solve(fact, np.ones(4))
            assert info.value.step == 3
        with pytest.raises(SingularMatrixError) as info:
            factor.gepp_solve_transpose(gepp, np.ones(4))
        assert info.value.step == 2

    def test_dimension_mismatch(self):
        fact, _ = factor.genp_factor(np.eye(3))
        with pytest.raises(ShapeError):
            factor.lu_solve(fact, np.ones(4))
        a = spd_like(3, 4)
        genp, _ = factor.genp_factor(a)
        gepp = factor.gepp_factor(a)
        for b in (np.float64(1.0), np.ones((4, 2, 2))):
            with pytest.raises(ShapeError):
                factor.lu_solve(gepp, b)
        for length in (3, 5):
            for b in (np.ones(length), np.ones((length, 2))):
                for fact in (genp, gepp):
                    with pytest.raises(ShapeError):
                        factor.lu_solve(fact, b)
                with pytest.raises(ShapeError):
                    factor.gepp_solve_transpose(gepp, b)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("columns", [None, 3])
    @pytest.mark.parametrize("method", ["genp", "gepp"])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_linalg_solve_oracle(self, n, columns, method, transpose):
        rng = RNG(100 + n)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n if columns is None else (n, columns))
        if method == "genp":
            genp, _ = factor.genp_factor(a)
            fact = factor.GeppFactorization(np.arange(n), genp.l_factor, genp.u_factor)
        else:
            fact = factor.gepp_factor(a)
        if transpose:
            x, expected = factor.gepp_solve_transpose(fact, b), np.linalg.solve(a.T, b)
        else:
            x, expected = factor.lu_solve(fact, b), np.linalg.solve(a, b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_transpose_solve(self):
        a = RNG(9).standard_normal((10, 10)) + 3 * np.eye(10)
        fact = factor.gepp_factor(a)
        b = RNG(10).standard_normal(10)
        x = factor.gepp_solve_transpose(fact, b)
        assert np.linalg.norm(a.T @ x - b) <= 1e-10 * np.linalg.norm(x)


class TestSchurComplement:
    def test_block_diagonal(self):
        b = RNG(11).standard_normal((3, 3)) + 3 * np.eye(3)
        e = RNG(12).standard_normal((2, 2))
        a = np.block([[b, np.zeros((3, 2))], [np.zeros((2, 3)), e]])
        assert np.allclose(factor.schur_complement(a, 3), e)

    def test_hand_example(self):
        assert np.allclose(factor.schur_complement([[2.0, 1.0], [1.0, 1.0]], 1), [[0.5]])

    def test_nesting_identity(self):
        # S(A^(h), A^(k)) equals the leading (k-h) block of S(A^(h), A).
        a = spd_like(13, 12)
        h, k = 3, 7
        inner = factor.schur_complement(a[:k, :k], h)
        outer = factor.schur_complement(a, h)[: k - h, : k - h]
        assert np.linalg.norm(inner - outer) <= 1e-10 * np.linalg.norm(outer)

    def test_singular_pivot_block(self):
        with pytest.raises(SingularPivotBlockError):
            factor.schur_complement([[0.0, 1.0], [1.0, 0.0]], 1)

    def test_full_size_is_empty(self):
        assert factor.schur_complement(np.eye(3), 3).shape == (0, 0)


class TestBlockFactorization:
    def test_single_block_trivial(self):
        a = spd_like(14, 6)
        fact, report = factor.block_genp_factor(a, (6,))
        assert len(fact.steps) == 1
        assert fact.steps[0].row_mult.shape == (6, 0)
        assert report.records[0].complement_norm is None
        assert np.linalg.norm(fact.reconstruct() - a) <= 1e-10 * np.linalg.norm(a)

    def test_scalar_schedule_hand_example(self):
        fact, _ = factor.block_genp_factor([[2.0, 1.0], [1.0, 1.0]], (1, 1), record_complements=True)
        assert np.allclose(fact.schur_complements[1], [[0.5]])

    def test_schedule_invariance(self):
        # Any two schedules with a common prefix sum produce the same complement.
        a = spd_like(15, 16)
        _, _ = factor.genp_factor(a)
        fine, _ = factor.block_genp_factor(a, (1,) * 16, record_complements=True)
        coarse, _ = factor.block_genp_factor(a, (4, 4, 4, 4), record_complements=True)
        s_fine = fine.schur_complements[8]
        s_coarse = coarse.schur_complements[8]
        assert np.linalg.norm(s_fine - s_coarse) <= 1e-10 * np.linalg.norm(s_fine)
        direct = factor.schur_complement(a, 8)
        assert np.linalg.norm(s_fine - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_reconstruction_bound(self):
        a = RNG(16).standard_normal((12, 12)) + 4 * np.eye(12)
        fact, report = factor.block_genp_factor(a, (3, 5, 4))
        tol = 1e-9 * np.linalg.norm(a, 2) * 2.0
        assert np.linalg.norm(fact.reconstruct() - a, 2) <= tol

    def test_solve_matches_gepp(self):
        a = spd_like(17, 12)
        b = RNG(18).standard_normal(12)
        fact, _ = factor.block_genp_factor(a, (4, 4, 4))
        x = factor.lu_solve(fact, b)
        x_ref = factor.lu_solve(factor.gepp_factor(a), b)
        assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)

    def test_singular_pivot_block_failure(self):
        inst = hard_matrix(Seed(100).derive("i", 1), 16, 4)
        with pytest.raises(SingularPivotBlockError) as err:
            factor.block_genp_factor(inst.matrix, (8, 8))
        assert err.value.step == 1

    def test_schedule_validation(self):
        for schedule in [(), (0, 4), (-1, 5), (3, 3)]:
            with pytest.raises(ShapeError):
                factor.block_genp_factor(np.eye(4), schedule)

    def test_block_inversion_identity(self):
        # Inverting the three block factors reproduces the dense inverse.
        a = spd_like(19, 8)
        k = 4
        b = a[:k, :k]
        c = a[:k, k:]
        d = a[k:, :k]
        s = factor.schur_complement(a, k)
        b_inv = np.linalg.inv(b)
        s_inv = np.linalg.inv(s)
        upper = np.block([[np.eye(k), -b_inv @ c], [np.zeros((k, k)), np.eye(k)]])
        middle = np.block([[b_inv, np.zeros((k, k))], [np.zeros((k, k)), s_inv]])
        lower = np.block([[np.eye(k), np.zeros((k, k))], [-d @ b_inv, np.eye(k)]])
        assembled = upper @ middle @ lower
        reference = np.linalg.inv(a)
        assert np.linalg.norm(assembled - reference) <= 1e-8 * np.linalg.norm(reference)


class TestDeterminant:
    def test_det_product_identity(self):
        # det A = det B * det S over random instances.
        rng = RNG(20)
        for _ in range(25):
            a = rng.standard_normal((8, 8)) + 3 * np.eye(8)
            k = int(rng.integers(1, 8))
            det_a = np.linalg.det(a)
            det_b = np.linalg.det(a[:k, :k])
            det_s = np.linalg.det(factor.schur_complement(a, k))
            assert det_a == pytest.approx(det_b * det_s, rel=1e-8)

    def test_exact_shadow_iff_minors(self):
        # GENP admits threshold-zero completion over the rationals exactly
        # when every leading minor is nonzero (checked with exact integers).
        rng = RNG(21)
        seen_failure = False
        for _ in range(60):
            m = rng.integers(-3, 4, size=(4, 4))
            minors = verify.leading_principal_minors_int(m)
            pivots = exact_genp_pivots(m)
            clean = all(v != 0 for v in minors)
            assert clean == (None not in pivots)
            if clean:
                # Exact pivots are the ratios of consecutive leading minors.
                for j, pivot in enumerate(pivots):
                    prev = 1 if j == 0 else minors[j - 1]
                    assert pivot == Fraction(minors[j], prev)
            else:
                seen_failure = True
        assert seen_failure  # the sweep must exercise both branches


class TestSafety:
    def test_identity_matrix(self):
        a = np.eye(4)
        _, report = factor.genp_factor(a, monitor="spectral")
        result = factor.safety_check(factor.safety_bounds(a), report)
        assert result.bounds.strongly_nonsingular
        assert result.verdict is True
        assert result.bounds.input_norm == pytest.approx(1.0)
        assert result.bounds.max_inverse_norm == pytest.approx(1.0)
        assert result.pivot_bound == pytest.approx(2.0)
        assert np.allclose(report.pivot_magnitudes, 1.0)

    def test_spd_like_passes(self):
        a = spd_like(22, 16)
        _, report = factor.genp_factor(a, monitor="spectral")
        result = factor.safety_check(factor.safety_bounds(a), report)
        assert result.verdict is True
        assert result.growth_factor <= result.growth_bound

    def test_block_report_passes(self):
        a = spd_like(23, 16)
        _, report = factor.block_genp_factor(a, (4, 4, 4, 4), monitor="spectral")
        result = factor.safety_check(factor.safety_bounds(a), report)
        assert result.verdict is True
        assert all(r.complement_inverse_norm is not None for r in report.records[:-1])

    def test_hard_matrix_not_strongly_nonsingular(self):
        inst = hard_matrix(Seed(100).derive("i", 2), 64, 4)
        _, report = factor.genp_factor(inst.matrix)
        bounds = factor.safety_bounds(inst.matrix)
        assert not bounds.strongly_nonsingular and bounds.max_inverse_norm is None
        result = factor.safety_check(bounds, report)
        assert result.bounds is bounds
        assert result.verdict is None
        assert (result.pivot_bound, result.growth_bound, result.violations, result.margin) == (None, None, [], None)
        assert 28 < bounds.singular_block <= 32

    def test_norm_product_at_least_one(self):
        a = spd_like(24, 8)
        _, report = factor.genp_factor(a, monitor="spectral")
        result = factor.safety_check(factor.safety_bounds(a), report)
        assert result.bounds.max_inverse_norm * result.bounds.input_norm >= 1.0 - 1e-10


class TestMonitor:
    """The spectral monitor is opt-in; without it a report holds pivots only."""

    def test_default_reports_hold_pivots_only(self):
        a = spd_like(30, 12)
        bounds = factor.safety_bounds(a)
        (_, scalar), (_, block) = factor.genp_factor(a), factor.block_genp_factor(a, (4, 4, 4))
        for report in (scalar, block):
            assert report.monitor is None
            assert all(rec.complement_norm is None for rec in report.records)
            assert factor.safety_check(bounds, report).growth_factor == 1.0
        assert block.u_growth is None

    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_spectral_complement_norms_match_linalg(self, n):
        a = spd_like(31 + n, n)
        _, report = factor.genp_factor(a, monitor="spectral")
        bounds = factor.safety_bounds(a)
        assert bounds.input_norm == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)
        for k, rec in enumerate(report.records, start=1):
            if k == n:
                assert rec.complement_norm is None
                continue
            schur = a[k:, k:] - a[k:, :k] @ np.linalg.solve(a[:k, :k], a[:k, k:])
            assert rec.complement_norm == pytest.approx(np.linalg.norm(schur, 2), rel=1e-10)
        expected = max([1.0] + [r.complement_norm / bounds.input_norm for r in report.records[:-1]])
        assert factor.safety_check(bounds, report).growth_factor == expected

    @pytest.mark.parametrize("a, expected", [([[2.0, 1.0], [1.0, 1.0]], 1.0), ([[1.0, 2.0], [3.0, 4.0]], 0.5)])
    def test_u_growth_hand_examples(self, a, expected):
        fact, report = factor.genp_factor(a)
        assert report.u_growth == expected
        assert report.u_growth == np.abs(fact.u_factor).max() / np.abs(np.asarray(a)).max()

    def test_frobenius_monitor_rejected(self):
        a = spd_like(34, 4)
        with pytest.raises(ValueError):
            factor.genp_factor(a, monitor="frobenius")
        with pytest.raises(ValueError):
            factor.block_genp_factor(a, (2, 2), monitor="frobenius")

    def test_degenerate_check_reports_exact_input_norm(self):
        inst = hard_matrix(Seed(100).derive("i", 2), 64, 4)
        _, report = factor.genp_factor(inst.matrix)
        result = factor.safety_check(factor.safety_bounds(inst.matrix), report)
        assert result.bounds.strongly_nonsingular is False
        assert result.bounds.input_norm == dense.spectral_norm(inst.matrix)


class TestSafetySplit:
    """``safety_check(safety_bounds(a), report)`` equals the one-call check field by field."""

    @staticmethod
    def assert_same(a, report):
        got = factor.safety_check(factor.safety_bounds(a), report)
        want = reference_safety_check(a, report)
        assert got.__dict__ == want.__dict__

    @pytest.mark.parametrize("monitor", [None, "spectral"])
    @pytest.mark.parametrize("n, schedule", [(1, (1,)), (2, (1, 1)), (5, (2, 3)), (16, (4, 4, 4, 4))])
    def test_matches_reference_on_spd(self, n, schedule, monitor):
        a = spd_like(40 + n, n)
        self.assert_same(a, factor.genp_factor(a, monitor=monitor)[1])
        self.assert_same(a, factor.block_genp_factor(a, schedule, monitor=monitor)[1])

    def test_matches_reference_on_degenerate_input(self):
        inst = hard_matrix(Seed(100).derive("i", 2), 64, 4)
        self.assert_same(inst.matrix, factor.genp_factor(inst.matrix)[1])
        # A numerically singular 2x2 leading block: GENP runs through the 2^-46
        # pivot, so the monitored growth factor is large on the degenerate path.
        small = spd_like(49, 8)
        small[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + 2.0**-46]]
        _, report = factor.genp_factor(small, monitor="spectral")
        assert factor.safety_check(factor.safety_bounds(small), report).growth_factor > 1e10
        self.assert_same(small, report)

    def test_matches_reference_on_sampled_scan(self):
        # Above _FULL_SCAN_LIMIT the scan samples power-of-two leading blocks.
        n = 130
        assert n > factor._FULL_SCAN_LIMIT
        a = spd_like(45, n)
        self.assert_same(a, factor.block_genp_factor(a, (65, 65), monitor="spectral")[1])

    def test_order_mismatch_rejected(self):
        _, report = factor.genp_factor(spd_like(46, 4))
        with pytest.raises(ShapeError):
            factor.safety_check(factor.safety_bounds(spd_like(46, 5)), report)

    def test_monitored_elimination_makes_no_svd_of_its_input(self, monkeypatch):
        a = spd_like(47, 8)
        shapes = []
        original = dense.singular_values
        monkeypatch.setattr(dense, "singular_values", lambda m: shapes.append(np.shape(m)) or original(m))
        factor.genp_factor(a, monitor="spectral")
        assert shapes == [(k, k) for k in range(7, 0, -1)]
        shapes.clear()
        factor.block_genp_factor(a, (4, 4), monitor="spectral")
        assert (8, 8) not in shapes

    def test_suite_trial_svd_count(self, monkeypatch):
        # n = 16, block 4: 16 scan blocks, ||A||_2, 15 GENP complements, and
        # 4 pivot blocks plus 3 complements of the block run (58 with a scan
        # per check and ||A||_2 in every elimination and check).
        calls = []
        original = dense.singular_values
        monkeypatch.setattr(dense, "singular_values", lambda m: calls.append(1) or original(m))
        verify.check_safety_bounds(Seed(48), trials=1, n=16)
        assert len(calls) == 16 + 1 + 15 + 7


class TestInverseNormEstimate:
    def test_matches_jacobi(self):
        a = RNG(25).standard_normal((24, 24)) + 2 * np.eye(24)
        exact = 1.0 / dense.singular_values(a)[-1]
        assert factor.inverse_norm_estimate(a) == pytest.approx(exact, rel=1e-3)

    def test_large_path(self):
        a = gaussian_matrix(Seed(26), 200, 200) + 10 * np.eye(200)
        expected = 1.0 / np.linalg.svd(a, compute_uv=False)[-1]
        assert factor.inverse_norm_estimate(a) == pytest.approx(expected, rel=1e-3)
