import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nopivot import dense, verify
from nopivot.errors import SizeError
from nopivot.randgen import FiniteSet, Seed

RNG = np.random.default_rng


def cofactor_determinant(m):
    """Exact cofactor-expansion determinant oracle over Python ints."""
    rows = [[int(v) for v in row] for row in m]
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


class TestExactDeterminant:
    def test_identity(self):
        assert verify.exact_determinant_int(np.eye(3)) == 1

    def test_hand_example(self):
        assert verify.exact_determinant_int([[1, 2], [3, 4]]) == -2

    def test_matches_cofactor_oracle(self):
        rng = RNG(0)
        for _ in range(50):
            m = rng.integers(0, 10, size=(4, 4))
            assert verify.exact_determinant_int(m) == cofactor_determinant(m)

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3))
    def test_cofactor_property(self, rows):
        assert verify.exact_determinant_int(rows) == cofactor_determinant(rows)

    def test_zero_pivot_with_row_swap(self):
        m = [[0, 1, 2], [1, 0, 3], [4, 5, 6]]
        assert verify.exact_determinant_int(m) == cofactor_determinant(m)

    def test_singular(self):
        assert verify.exact_determinant_int([[1, 2], [2, 4]]) == 0

    def test_dimension_cap(self):
        with pytest.raises(SizeError):
            verify.exact_determinant_int(np.eye(7))

    def test_overflow_guard(self):
        big = (np.ones((6, 6)) * 10**21).astype(object)
        with pytest.raises(SizeError):
            verify.exact_determinant_int([[10**21] * 6] * 6)
        del big

    def test_integrality_required(self):
        with pytest.raises(ValueError):
            verify.exact_determinant_int([[1.5, 0.0], [0.0, 1.0]])


class TestLeadingMinors:
    def test_matches_blockwise_dets(self):
        rng = RNG(1)
        for _ in range(50):
            m = rng.integers(-5, 6, size=(4, 4))
            minors = verify.leading_principal_minors_int(m)
            expected = [cofactor_determinant(m[: j + 1, : j + 1]) for j in range(4)]
            assert minors == expected

    def test_zero_minor_midway(self):
        m = [[0, 1, 2], [1, 1, 1], [2, 0, 1]]
        assert verify.leading_principal_minors_int(m) == [0, -1, cofactor_determinant(m)]

    def test_all_zero(self):
        assert verify.leading_principal_minors_int(np.zeros((3, 3), dtype=int)) == [0, 0, 0]


class TestFiniteSetSingularity:
    def test_one_by_one_exact_half(self):
        # Delta = {0, 1}, k = 1: singular exactly when the entry is 0.
        report = verify.check_finite_set_singularity(
            Seed(0), k=1, delta=FiniteSet((0, 1)), trials=4000
        )
        dense_check = report.checks[0]
        assert dense_check.bound == pytest.approx(0.5)
        assert abs(dense_check.empirical - 0.5) <= 4 * np.sqrt(0.25 / 4000)
        assert report.passed

    def test_standard_configuration(self):
        report = verify.check_finite_set_singularity(
            Seed(1), k=3, delta=FiniteSet(tuple(range(10))), trials=5000
        )
        assert report.passed
        names = {c.name for c in report.checks}
        assert names == {"nonsingular-frequency", "strongly-nonsingular-frequency"}
        kinds = {c.params["kind"] for c in report.checks}
        assert kinds == {"dense", "toeplitz"}
        for check in report.checks:
            if check.name == "nonsingular-frequency":
                assert check.bound == pytest.approx(0.7)
            else:
                assert check.bound == pytest.approx(0.4)

    def test_size_guards(self):
        with pytest.raises(SizeError):
            verify.check_finite_set_singularity(Seed(0), k=7, trials=10)
        with pytest.raises(SizeError):
            verify.check_finite_set_singularity(
                Seed(0), k=2, delta=FiniteSet(tuple(range(1001))), trials=10
            )


@pytest.fixture(scope="module")
def tail_report():
    return verify.check_tail_bounds(Seed(2), samples=10_000)


class TestTailBounds:
    @pytest.fixture
    def report(self, tail_report):
        return tail_report

    def test_all_points_pass(self, report):
        failing = [c.line() for c in report.checks if not c.passed]
        assert not failing, failing

    def test_every_check_reports_bound_empirical_margin(self, report):
        for check in report.checks:
            assert np.isfinite(check.bound)
            assert 0.0 <= check.empirical <= 1.0 or check.name == "vector-condition-exact"
            assert check.margin >= 0.0
            assert check.samples > 0

    def test_theorem_families_present(self, report):
        names = {c.name for c in report.checks}
        assert names == {
            "norm-tail",
            "norm-tail-2sqrt",
            "smallest-sv-tail",
            "vector-smallest-sv-tail",
            "condition-tail",
            "vector-condition-exact",
        }

    def test_vector_condition_exact(self, report):
        points = [c for c in report.checks if c.name == "vector-condition-exact"]
        assert {p.params["m"] for p in points} == {1, 5, 16}
        for p in points:
            assert p.empirical <= 1e-12

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            verify.check_tail_bounds(Seed(0), samples=100)


class TestSpectralBounds:
    def test_smoke_sweep_passes(self):
        report = verify.check_spectral_bounds(Seed(3), trials=120, max_size=10)
        assert report.passed, [f.violations[:2] for f in report.checks if not f.passed]
        assert sum(f.instances for f in report.checks) == 120
        assert all(f.comparisons > 0 for f in report.checks)

    def test_family_names(self):
        report = verify.check_spectral_bounds(Seed(4), trials=60, max_size=8)
        assert [f.name for f in report.checks] == [
            "product-lower-bound-left",
            "product-lower-bound-right",
            "pseudo-inverse-product-bound",
            "leading-block-pinv-bound",
            "submatrix-interlacing",
            "inverse-perturbation-bound",
        ]

    def test_size_cap(self):
        with pytest.raises(SizeError):
            verify.check_spectral_bounds(Seed(0), trials=10, max_size=64)

    def test_orthogonal_equality_case(self):
        # Orthogonal A and identity F: the product lower bound is tight.
        from nopivot.randgen import random_orthonormal

        a = random_orthonormal(Seed(5), 6)
        svd_a = dense.jacobi_svd(a)
        f_hat = np.eye(6) @ svd_a.left_factor
        sigma_product = dense.singular_values(np.eye(6) @ a)
        sigma_hat = dense.singular_values(f_hat)  # the k = m block is f_hat itself
        for j in range(6):
            lhs = sigma_product[j]
            rhs = svd_a.singular_values[5] * sigma_hat[j]
            assert lhs >= rhs - 1e-10
            assert lhs == pytest.approx(rhs, abs=1e-10)  # equality at k = m

    def test_diagonal_hand_case(self):
        # A = diag(2, 1), H = I: sigma(AH) dominates sigma_l(A) * sigma(H_hat).
        a = np.diag([2.0, 1.0])
        svd_a = dense.jacobi_svd(a)
        h_hat = svd_a.right_factor.T @ np.eye(2)
        sigma_product = dense.singular_values(a @ np.eye(2))
        sigma_hat = dense.singular_values(h_hat)
        assert np.all(sigma_product >= svd_a.singular_values[1] * sigma_hat - 1e-12)


class TestPerturbationSuite:
    def test_sweep_passes(self):
        report = verify.check_perturbation(Seed(6), trials=25, max_size=10)
        assert report.passed
        assert report.checks[0].comparisons > 0


class TestSafetySuite:
    def test_sweep_passes(self):
        report = verify.check_safety_bounds(Seed(7), trials=8, n=16)
        assert report.passed
        assert report.extras["scalar_failures"] == 0
        assert report.extras["block_failures"] == 0

    def test_block_size_must_divide(self):
        with pytest.raises(ValueError, match="n must be a multiple of 4"):
            verify.check_safety_bounds(Seed(0), trials=1, n=15)


class TestReportRendering:
    def test_lines_and_dict(self):
        report = verify.check_finite_set_singularity(Seed(8), k=2, delta=FiniteSet((0, 1, 2)), trials=2000)
        lines = report.lines()
        assert len(lines) == len(report.checks) + 1
        assert all(line.startswith(("PASS", "FAIL")) for line in lines)
        payload = report.to_dict()
        assert payload["passed"] == report.passed
        assert len(payload["checks"]) == len(report.checks)
