import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nopivot import dense
from nopivot.errors import ConvergenceError, ShapeError, SizeError

RNG = np.random.default_rng


finite_entries = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


class TestSpectralNorm:
    def test_diagonal(self):
        assert dense.spectral_norm(np.diag([3.0, 2.0, 1.0])) == pytest.approx(3.0, rel=1e-12)

    def test_single_entry(self):
        assert dense.spectral_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, rel=1e-12)

    def test_matches_svd_oracle(self):
        a = RNG(2).standard_normal((8, 6))
        top = dense.jacobi_svd(a).singular_values[0]
        assert dense.spectral_norm(a) == pytest.approx(top, rel=1e-8)
        assert dense.spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)

    def test_submultiplicative(self):
        rng = RNG(3)
        for _ in range(10):
            a = rng.standard_normal((6, 5))
            b = rng.standard_normal((5, 7))
            lhs = dense.spectral_norm(a @ b)
            rhs = dense.spectral_norm(a) * dense.spectral_norm(b)
            assert lhs <= rhs * (1 + 1e-8)

    def test_power_iteration_path(self):
        a = RNG(4).standard_normal((150, 140))  # above the Jacobi cutoff
        assert dense.spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)

    def test_estimate_matches(self):
        a = RNG(5).standard_normal((40, 40))
        assert dense.spectral_norm_estimate(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-6)


def reference_power_spectral_norm(a, iters=200, tol=1e-10):
    """The power iteration as it was before its norm was carried across iterations."""
    rng = np.random.Generator(np.random.PCG64(0x5EED_0B5E))
    v = rng.standard_normal(a.shape[1])
    v /= math.sqrt(v @ v)
    w = a @ v
    estimate = 0.0
    for _ in range(iters):
        s = math.sqrt(w @ w)
        if s == 0.0:
            return 0.0
        v = a.T @ w
        nv = math.sqrt(v @ v)
        if nv == 0.0:
            return s
        v /= nv
        w = a @ v
        new_estimate = math.sqrt(w @ w)
        if estimate > 0.0 and abs(new_estimate - estimate) <= tol * new_estimate:
            return max(new_estimate, estimate)
        estimate = new_estimate
    return estimate


class TestPowerIterationBits:
    @pytest.mark.parametrize(
        "a",
        [
            RNG(30).standard_normal((32, 32)),
            RNG(31).standard_normal((64, 64)),
            RNG(32).standard_normal((40, 9)),
            RNG(33).standard_normal((9, 40)),
            np.zeros((6, 6)),
            np.array([[-2.5]]),
            np.outer(RNG(34).standard_normal(12), RNG(35).standard_normal(7)),
        ],
        ids=["square-32", "square-64", "tall", "wide", "zero", "1x1", "rank-1"],
    )
    def test_equals_reference_loop(self, a):
        assert dense._power_spectral_norm(a) == reference_power_spectral_norm(a)
        # A small budget ends on the iteration cap rather than on convergence.
        assert dense._power_spectral_norm(a, iters=3) == reference_power_spectral_norm(a, iters=3)


class TestJacobiSvd:
    def test_diagonal_with_zero(self):
        res = dense.jacobi_svd(np.diag([1.0, 0.0]))
        assert np.allclose(res.singular_values, [1.0, 0.0])

    def test_orthogonal_input_all_ones(self):
        theta = 0.7
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        res = dense.jacobi_svd(q)
        assert np.allclose(res.singular_values, 1.0, atol=1e-10)

    def test_transpose_self_oracle(self):
        a = RNG(6).standard_normal((6, 4))
        s1 = dense.jacobi_svd(a).singular_values
        s2 = dense.jacobi_svd(a.T).singular_values
        assert np.allclose(s1, s2, atol=1e-10)

    @pytest.mark.parametrize("shape", [(5, 5), (7, 3), (3, 7), (1, 4), (6, 1)])
    def test_factor_invariants(self, shape):
        a = RNG(hash(shape) % 2**32).standard_normal(shape)
        res = dense.jacobi_svd(a)
        m, n = shape
        norm_a = np.linalg.norm(a, 2)
        assert np.linalg.norm(res.left_factor.T @ res.left_factor - np.eye(m)) <= 1e-10
        assert np.linalg.norm(res.right_factor.T @ res.right_factor - np.eye(n)) <= 1e-10
        assert np.linalg.norm(res.reconstruct() - a, 2) <= 1e-10 * max(norm_a, 1.0)
        assert np.all(np.diff(res.singular_values) <= 1e-15)

    def test_matches_lapack_values(self):
        a = RNG(7).standard_normal((9, 6))
        mine = dense.jacobi_svd(a).singular_values
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(mine, ref, rtol=1e-10, atol=1e-12)

    def test_low_rank_truncation_optimality(self):
        # The best rank-(s-1) approximation misses by exactly sigma_s.
        a = RNG(8).standard_normal((7, 5))
        res = dense.jacobi_svd(a)
        for s in (1, 3, 5):
            sigma = res.singular_values.copy()
            sigma[s - 1 :] = 0.0
            m, n = a.shape
            smat = np.zeros((m, n))
            smat[:n, :n] = np.diag(sigma)
            trunc = res.left_factor @ smat @ res.right_factor.T
            gap = np.linalg.norm(a - trunc, 2)
            assert gap == pytest.approx(res.singular_values[s - 1], rel=1e-9, abs=1e-12)

    def test_zero_matrix(self):
        res = dense.jacobi_svd(np.zeros((3, 2)))
        assert np.allclose(res.singular_values, 0.0)
        assert np.allclose(res.left_factor.T @ res.left_factor, np.eye(3), atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(SizeError):
            dense.jacobi_svd(np.zeros((1030, 1030)))


def reference_cyclic_singular_values(a, tol=1e-14, max_sweeps=60):
    """Singular values from the cyclic one-sided Jacobi loop, one column pair at a time."""
    work = np.array(a, dtype=float)
    if work.shape[0] < work.shape[1]:
        work = work.T.copy()
    n = work.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                cols = work[:, (i, j)]
                g = cols.T @ cols
                alpha, beta, gamma = g[0, 0], g[1, 1], g[0, 1]
                denom = alpha * beta
                if denom <= 0.0 or abs(gamma) / np.sqrt(denom) <= tol:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) if zeta != 0 else 1.0
                t /= abs(zeta) + np.hypot(1.0, zeta)
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                work[:, (i, j)] = cols @ np.array([[c, s], [-s, c]])
                rotated = True
        if not rotated:
            return np.sort(np.sqrt(np.einsum("ij,ij->j", work, work)))[::-1]
    raise AssertionError("reference Jacobi did not converge")


def graded(seed, m, n):
    """Gaussian columns scaled from 1e-10 to 1e10."""
    return RNG(seed).standard_normal((m, n)) * np.logspace(-10, 10, n)


class TestRoundRobin:
    @pytest.mark.parametrize("n", range(1, 18))
    def test_every_pair_once_in_disjoint_steps(self, n):
        steps = dense._round_robin(n)
        assert len(steps) == (0 if n == 1 else n - 1 + n % 2)
        pairs = []
        for step in steps:
            assert step.ndim == 2 and step.shape[1] == 2 and not step.flags.writeable
            assert len(set(step.ravel().tolist())) == step.size
            pairs += [tuple(p) for p in step.tolist()]
        assert all(i < j for i, j in pairs)
        assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i + 1, n)]


class TestJacobiAgainstCyclicReference:
    @pytest.mark.parametrize(
        "a",
        [
            graded(40, 12, 12),
            graded(41, 20, 9),
            RNG(42).standard_normal((10, 4)) @ RNG(43).standard_normal((4, 10)),
            np.column_stack([RNG(44).standard_normal((7, 3)), np.zeros(7), RNG(45).standard_normal((7, 2))]),
            RNG(46).standard_normal((1, 6)),
            RNG(47).standard_normal((6, 1)),
            RNG(48).standard_normal((5, 11)),
            RNG(49).standard_normal((17, 17)),
        ],
        ids=["graded-square", "graded-tall", "rank-4", "zero-column", "1xn", "mx1", "wide", "square-17"],
    )
    def test_singular_values_agree(self, a):
        mine = dense.singular_values(a)
        ref = reference_cyclic_singular_values(a)
        assert mine.shape == ref.shape
        # Rank-deficient input: singular values at rounding level of sigma_1 are noise in both.
        floor = 1e-13 * ref[0] if np.linalg.matrix_rank(a) < min(a.shape) else 0.0
        assert np.all(np.abs(mine - ref) <= 1e-13 * ref + floor)

    def test_vectors_of_graded_input(self):
        a = graded(50, 9, 9)
        res = dense.jacobi_svd(a)
        assert np.allclose(res.singular_values, reference_cyclic_singular_values(a), rtol=1e-13, atol=0.0)
        assert np.linalg.norm(res.right_factor.T @ res.right_factor - np.eye(9)) <= 1e-13
        assert np.linalg.norm(res.reconstruct() - a) <= 1e-13 * np.linalg.norm(a)

    def test_sweep_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(dense, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as info:
            dense.singular_values(RNG(51).standard_normal((8, 8)))
        assert info.value.residual > dense._JACOBI_TOL
        assert "did not converge in 1 sweeps" in str(info.value)


class TestHouseholderQr:
    def test_identity(self):
        res = dense.householder_qr(np.eye(3))
        assert np.allclose(res.q_factor, np.eye(3))
        assert np.allclose(res.r_factor, np.eye(3))

    def test_unit_column(self):
        res = dense.householder_qr([[0.0], [1.0]])
        assert np.allclose(res.q_factor, [[0.0], [1.0]])
        assert np.allclose(res.r_factor, [[1.0]])

    def test_reconstruction_oracle(self):
        a = RNG(9).standard_normal((6, 6))
        res = dense.householder_qr(a)
        assert np.linalg.norm(res.q_factor.T @ res.q_factor - np.eye(6)) <= 1e-10
        assert np.linalg.norm(res.q_factor @ res.r_factor - a) <= 1e-10 * np.linalg.norm(a)
        assert np.all(np.diag(res.r_factor) >= 0)
        assert np.allclose(res.r_factor, np.triu(res.r_factor))

    def test_rank_deficient_zero_diagonal(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [2.0, 0.0, 1.0]])
        res = dense.householder_qr(a)
        assert res.r_factor[1, 1] == 0.0
        assert np.linalg.norm(res.q_factor @ res.r_factor - a) <= 1e-10 * np.linalg.norm(a)

    def test_wide_rejected(self):
        with pytest.raises(ShapeError):
            dense.householder_qr(np.zeros((2, 3)))


class TestLeadingBlock:
    def test_interlacing_oracle(self):
        # Singular values of a submatrix never exceed those of the matrix.
        a = RNG(11).standard_normal((8, 8))
        sig_a = dense.jacobi_svd(a).singular_values
        sig_b = dense.jacobi_svd(a[:3, :3]).singular_values
        for j in range(3):
            assert sig_a[j] >= sig_b[j] - 1e-8 * sig_a[0]

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_interlacing_property(self, k, l, seed):
        a = RNG(seed).standard_normal((6, 6))
        sig_a = dense.singular_values(a)
        sig_b = dense.singular_values(a[:k, :l])
        assert np.all(sig_a[: len(sig_b)] >= sig_b - 1e-8 * sig_a[0])


class TestColumnInterlacing:
    def test_leftmost_strips(self):
        rng = RNG(12)
        for _ in range(10):
            a = rng.standard_normal((9, 7))
            r = int(rng.integers(1, 7))
            l = int(rng.integers(0, 7 - r + 1))
            narrow = dense.singular_values(a[:, :r])
            wide = dense.singular_values(a[:, : r + l])
            scale = wide[0]
            for k in range(1, r + 1):
                assert narrow[k - 1] >= wide[k + l - 1] - 1e-8 * scale

    def test_pinv_monotonicity(self):
        rng = RNG(13)
        for _ in range(10):
            a = rng.standard_normal((9, 6))
            narrow = dense.singular_values(a[:, :4])
            wide = dense.singular_values(a)
            assert 1.0 / narrow[-1] <= (1.0 / wide[-1]) * (1 + 1e-8)


class TestInverseNorm:
    def test_pseudo_inverse_identity(self):
        # Full-column-rank A: 1/sigma_min agrees with || (A^T A)^{-1} A^T ||.
        a = RNG(16).standard_normal((8, 4))
        pinv = np.linalg.inv(a.T @ a) @ a.T
        expected = dense.spectral_norm(pinv)
        mine = 1.0 / dense.singular_values(a)[-1]
        assert mine == pytest.approx(expected, rel=1e-6)


class TestPerturbationBound:
    def test_inverse_of_perturbed(self):
        rng = RNG(17)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            a = rng.standard_normal((n, n)) + 3 * np.eye(n)
            e = rng.standard_normal((n, n))
            mu_raw = dense.spectral_norm(np.linalg.solve(a, e))
            e *= 0.4 / mu_raw
            mu = dense.spectral_norm(np.linalg.solve(a, e))
            assert mu <= 0.5 + 1e-12
            lhs = 1.0 / dense.singular_values(a + e)[-1]
            rhs = (1.0 / dense.singular_values(a)[-1]) / (1.0 - mu)
            assert lhs <= rhs + 1e-8


class TestTextFormat:
    def test_round_trip_exact(self, tmp_path):
        a = RNG(18).standard_normal((4, 3)) * 1e3
        path = tmp_path / "m.txt"
        dense.write_matrix(a, path)
        assert np.array_equal(dense.read_matrix(path), a)

    @given(arrays(float, (2, 3), elements=finite_entries))
    def test_round_trip_property(self, a):
        assert np.array_equal(dense.parse_matrix(dense.format_matrix(a)), a)

    def test_header_and_digits(self):
        text = dense.format_matrix(np.array([[1.0 / 3.0]]))
        lines = text.splitlines()
        assert lines[0] == "1 1"
        mantissa = lines[1].split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 17

    def test_comment_lines_skipped(self):
        text = "# generated\n2 2\n1 2\n3 4\n"
        assert np.array_equal(dense.parse_matrix(text), [[1.0, 2.0], [3.0, 4.0]])

    def test_malformed(self):
        with pytest.raises(ShapeError):
            dense.parse_matrix("2 2\n1 2\n")
        with pytest.raises(ShapeError):
            dense.parse_matrix("2\n1\n2\n")
        with pytest.raises(ShapeError):
            dense.parse_matrix("")

    def test_rows_after_the_header_count(self):
        # An instance file: the matrix, then its right-hand side.
        with pytest.raises(ShapeError, match="expected 2 data rows, got 5"):
            dense.parse_matrix("2 2\n1 2\n3 4\n2 1\n5\n6\n")
