import numpy as np
import pytest

from nopivot import dense, randgen
from nopivot.errors import ShapeError
from nopivot.randgen import FiniteSet, Seed


class TestSeed:
    def test_determinism(self):
        a = randgen.gaussian_matrix(Seed(42), 5, 5)
        b = randgen.gaussian_matrix(Seed(42), 5, 5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = randgen.gaussian_matrix(Seed(42, 0), 5, 5)
        b = randgen.gaussian_matrix(Seed(42, 1), 5, 5)
        assert not np.array_equal(a, b)

    def test_derive_stable_and_sensitive(self):
        s = Seed(7)
        assert s.derive("x", 3) == s.derive("x", 3)
        assert s.derive("x", 3) != s.derive("x", 4)
        assert s.derive("x", 3) != s.derive("y", 3)
        assert s.derive("x", 3).master == 7

    def test_derive_rejects_bad_keys(self):
        with pytest.raises(TypeError):
            Seed(1).derive(3.14)

    def test_parse_seed(self):
        assert randgen.parse_seed("123") == 123
        assert randgen.parse_seed("0xff") == 255


class TestGaussianMatrix:
    def test_moments(self):
        g = randgen.gaussian_matrix(Seed(1), 200, 200)
        assert abs(g.mean()) <= 0.02  # 4 standard errors of the mean
        assert abs(g.var(ddof=1) - 1.0) <= 0.05

    def test_full_rank_always(self):
        # Rank deficiency has probability zero; 100 draws all full rank.
        for t in range(100):
            g = randgen.gaussian_matrix(Seed(2).derive(t), 8, 8)
            sigma = dense.singular_values(g)
            assert sigma[-1] / sigma[0] > 1e-10

    def test_generic_rank_profile(self):
        # All leading blocks of Gaussian draws are numerically nonsingular.
        for t in range(100):
            g = randgen.gaussian_matrix(Seed(3).derive(t), 8, 8)
            for k in range(1, 9):
                sigma = dense.singular_values(g[:k, :k])
                assert sigma[-1] / sigma[0] > 1e-10

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            randgen.gaussian_matrix(Seed(0), 0, 3)


class TestOrthogonalInvariance:
    def test_rotated_gaussian_moments(self):
        # S G should look Gaussian at the level of first and second moments.
        s = randgen.random_orthonormal(Seed(4), 16)
        pooled = []
        for t in range(50):
            g = randgen.gaussian_matrix(Seed(5).derive(t), 16, 16)
            pooled.append((s @ g).ravel())
        pooled = np.concatenate(pooled)
        stderr = 1.0 / np.sqrt(pooled.size)
        assert abs(pooled.mean()) <= 4 * stderr
        assert abs(pooled.var(ddof=1) - 1.0) <= 4 * np.sqrt(2.0 / pooled.size)


class TestProductRank:
    def test_rank_of_products(self):
        # rank(FA) = rank(AH) = min(r, rho) for Gaussian F, H.
        rng_sizes = np.random.default_rng(0)
        for t in range(100):
            m = int(rng_sizes.integers(2, 17))
            n = int(rng_sizes.integers(2, 17))
            rho = int(rng_sizes.integers(1, min(m, n) + 1))
            r = int(rng_sizes.integers(1, min(m, n) + 1))
            seed = Seed(6).derive(t)
            a = randgen.gaussian_matrix(seed.derive("g1"), m, rho) @ randgen.gaussian_matrix(
                seed.derive("g2"), rho, n
            )
            f = randgen.gaussian_matrix(seed.derive("f"), r, m)
            h = randgen.gaussian_matrix(seed.derive("h"), n, r)
            assert np.linalg.matrix_rank(f @ a, rtol=1e-10) == min(r, rho)
            assert np.linalg.matrix_rank(a @ h, rtol=1e-10) == min(r, rho)


class TestGaussianCirculant:
    def test_determinism_and_draw_count(self):
        op = randgen.gaussian_circulant(Seed(7), 16)
        expected = Seed(7).rng().standard_normal(16)  # exactly n draws
        assert np.array_equal(op.first_column, expected)

    def test_index_law(self):
        op = randgen.gaussian_circulant(Seed(8), 8)
        mat = op.materialize()
        for i in range(8):
            for j in range(8):
                assert mat[i, j] == op.first_column[(i - j) % 8]

    def test_power_of_two_required(self):
        with pytest.raises(ShapeError):
            randgen.gaussian_circulant(Seed(0), 12)

    def test_usually_well_conditioned(self):
        hits = 0
        for t in range(100):
            op = randgen.gaussian_circulant(Seed(9).derive(t), 64)
            mags = np.abs(op.spectrum)
            if mags.max() / mags.min() < 1e6:
                hits += 1
        assert hits >= 95


class TestGaussianToeplitz:
    def test_determinism_and_coefficients(self):
        op = randgen.gaussian_toeplitz(Seed(10), 5, 4)
        vals = Seed(10).rng().standard_normal(5 + 4 - 1)
        assert np.array_equal(op.first_column, vals[3:])
        assert np.array_equal(op.first_row, vals[3::-1])

    def test_index_law(self):
        op = randgen.gaussian_toeplitz(Seed(11), 6, 6)
        mat = op.materialize()
        for i in range(1, 6):
            for j in range(1, 6):
                assert mat[i, j] == mat[i - 1, j - 1]

    def test_hankel_kind(self):
        op = randgen.gaussian_toeplitz(Seed(12), 6, 6, kind="hankel")
        mat = op.materialize()
        for i in range(5):
            for j in range(1, 6):
                assert mat[i, j] == mat[i + 1, j - 1]

    def test_coefficient_moments(self):
        op = randgen.gaussian_toeplitz(Seed(13), 300, 300)
        coeffs = np.concatenate([op.first_row[::-1], op.first_column[1:]])
        stderr = 1.0 / np.sqrt(coeffs.size)
        assert abs(coeffs.mean()) <= 4 * stderr
        assert abs(coeffs.var(ddof=1) - 1.0) <= 4 * np.sqrt(2.0 / coeffs.size)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            randgen.gaussian_toeplitz(Seed(0), 3, 3, kind="circulant")


class TestRandomOrthonormal:
    def test_one_by_one(self):
        q = randgen.random_orthonormal(Seed(14), 1)
        assert abs(abs(q[0, 0]) - 1.0) <= 1e-14

    def test_orthonormality(self):
        q = randgen.random_orthonormal(Seed(15), 16)
        assert np.linalg.norm(q.T @ q - np.eye(16)) <= 1e-10

    def test_singular_values_all_one(self):
        q = randgen.random_orthonormal(Seed(16), 12)
        sigma = dense.jacobi_svd(q).singular_values
        assert np.allclose(sigma, 1.0, atol=1e-10)

    def test_determinism(self):
        assert np.array_equal(randgen.random_orthonormal(Seed(17), 8), randgen.random_orthonormal(Seed(17), 8))


class TestFiniteSetMatrix:
    def test_singleton_set(self):
        m = randgen.finite_set_matrix(Seed(18), 3, 4, FiniteSet((5,)))
        assert np.array_equal(m, np.full((3, 4), 5.0))

    def test_determinism(self):
        delta = FiniteSet(tuple(range(-3, 4)))
        a = randgen.finite_set_matrix(Seed(19), 6, 6, delta)
        b = randgen.finite_set_matrix(Seed(19), 6, 6, delta)
        assert np.array_equal(a, b)

    def test_uniform_frequencies(self):
        delta = FiniteSet(tuple(range(10)))
        draws = randgen.finite_set_matrix(Seed(20), 1000, 100, delta).ravel()
        p = 1.0 / 10
        limit = 4 * np.sqrt(p * (1 - p) / draws.size)
        for value in delta.values:
            assert abs(np.mean(draws == value) - p) <= limit

    def test_finite_set_validation(self):
        with pytest.raises(ValueError):
            FiniteSet(())
        with pytest.raises(ValueError):
            FiniteSet((1, 1))
        with pytest.raises(TypeError):
            FiniteSet((1.5, 2.0))
