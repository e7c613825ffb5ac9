import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nopivot import dense, transforms
from nopivot.errors import ShapeError, SizeError
from nopivot.transforms import CirculantOperator, HankelOperator, ToeplitzOperator

RNG = np.random.default_rng


def direct_dft(v, inverse=False):
    """O(n^2) discrete Fourier transform oracle."""
    n = len(v)
    sign = 1 if inverse else -1
    w = np.exp(sign * 2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    out = w @ v
    return out / n if inverse else out


def reference_fft_columns(x, inverse):
    """The radix-2 loop as it was before its butterflies ran in place."""
    length, ncols = x.shape
    out = x[transforms._bit_reversal(length)].astype(np.complex128, copy=True)
    if length == 1:
        return out
    table = transforms._twiddles(length, +1 if inverse else -1)
    size = 2
    while size <= length:
        half = size // 2
        tw = table[:: length // size][:half]
        view = out.reshape(length // size, size, ncols)
        low = view[:, :half, :]
        high = view[:, half:, :] * tw[None, :, None]
        transforms.op_counter.add(mults=(length // 2) * ncols, adds=length * ncols)
        view[:, half:, :] = low - high
        view[:, :half, :] = low + high
        size *= 2
    if inverse:
        out *= 1.0 / length
        transforms.op_counter.add(mults=length * ncols)
    return out


class TestFftBits:
    @pytest.mark.parametrize("length", [2**p for p in range(10)])
    @pytest.mark.parametrize("ncols", [1, 7])
    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_equals_reference_loop(self, length, ncols, inverse):
        rng = RNG(length * 10 + ncols)
        x = rng.standard_normal((length, ncols)) + 1j * rng.standard_normal((length, ncols))
        before = x.copy()
        transforms.op_counter.reset()
        want = reference_fft_columns(x, inverse)
        want_counts = (transforms.op_counter.mults, transforms.op_counter.adds)
        transforms.op_counter.reset()
        got = transforms._fft_columns(x, inverse)
        assert (transforms.op_counter.mults, transforms.op_counter.adds) == want_counts
        transforms.op_counter.reset()
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
        assert np.array_equal(x, before)
        assert not np.shares_memory(got, x)


def fft(v, inverse=False):
    """The package's radix-2 FFT of one complex vector."""
    return transforms._fft_columns(np.asarray(v, dtype=complex)[:, None], inverse)[:, 0]


class TestFft:
    def test_impulse(self):
        assert np.allclose(fft([1, 0, 0, 0]), np.ones(4))

    def test_constant(self):
        assert np.allclose(fft([1, 1, 1, 1]), [4, 0, 0, 0])

    def test_matches_direct_dft(self):
        rng = RNG(0)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        mine = fft(v)
        assert np.linalg.norm(mine - direct_dft(v)) <= 1e-12 * np.linalg.norm(mine)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 4, 8, 32]))
    def test_round_trip(self, seed, n):
        rng = RNG(seed)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = fft(fft(v), inverse=True)
        assert np.linalg.norm(back - v) <= 1e-12 * max(np.linalg.norm(v), 1e-30)

    def test_parseval(self):
        rng = RNG(1)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        spec = fft(v)
        energy = np.linalg.norm(v) ** 2
        assert np.linalg.norm(spec) ** 2 / 64 == pytest.approx(energy, rel=1e-12)

    def test_inverse_dft_oracle(self):
        rng = RNG(2)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(fft(v, inverse=True), direct_dft(v, inverse=True), atol=1e-13)

    def test_non_power_of_two(self):
        with pytest.raises(ShapeError):
            fft(np.zeros(3))

    def test_length_one(self):
        assert np.allclose(fft([3.0]), [3.0])


class TestCirculant:
    def test_identity_operator(self):
        op = CirculantOperator([1.0, 0.0, 0.0, 0.0])
        a = RNG(3).standard_normal((4, 2))
        assert np.allclose(op.apply(a), a, atol=1e-14)

    def test_shift_operator(self):
        op = CirculantOperator([0.0, 1.0, 0.0, 0.0])
        col = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(op.apply(col), [4.0, 1.0, 2.0, 3.0], atol=1e-13)

    def test_materialize_index_law(self):
        op = CirculantOperator([1.0, 2.0, 3.0])
        assert np.array_equal(op.materialize(), [[1.0, 3.0, 2.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])

    def test_against_dense_oracle(self):
        rng = RNG(4)
        op = CirculantOperator(rng.standard_normal(64))
        a = rng.standard_normal((64, 64))
        dense_out = op.materialize() @ a
        fast = op.apply(a)
        assert np.linalg.norm(fast - dense_out) <= 1e-12 * np.linalg.norm(dense_out)
        v = rng.standard_normal(64)
        expected = op.materialize() @ v
        out = op.apply(v)
        assert out.shape == (64,)
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_operators_commute(self):
        rng = RNG(6)
        c1 = CirculantOperator(rng.standard_normal(32))
        c2 = CirculantOperator(rng.standard_normal(32))
        a = rng.standard_normal((32, 4))
        first = c1.apply(c2.apply(a))
        second = c2.apply(c1.apply(a))
        assert np.linalg.norm(first - second) <= 1e-11 * np.linalg.norm(first)

    def test_spectrum_gives_singular_values(self):
        # Circulants are normal: singular values are the spectrum magnitudes.
        op = CirculantOperator(RNG(7).standard_normal(8))
        from_fft = np.sort(np.abs(op.spectrum))[::-1]
        from_svd = dense.jacobi_svd(op.materialize()).singular_values
        assert np.allclose(from_fft, from_svd, atol=1e-10)

    def test_spectrum_on_first_use(self):
        transforms.op_counter.reset()
        op = CirculantOperator(RNG(8).standard_normal(64))
        op.materialize()
        assert transforms.op_counter.total == 0
        spectrum = op.spectrum
        first = transforms.op_counter.total
        assert first > 0
        assert op.spectrum is spectrum and transforms.op_counter.total == first
        assert np.allclose(spectrum, np.fft.fft(op.first_column), rtol=0, atol=1e-12)
        assert CirculantOperator([1.0, 2.0, 3.0]).spectrum is None

    def test_fast_apply_needs_power_of_two(self):
        op = CirculantOperator([1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            op.apply(np.ones((3, 1)))

    def test_materialize_cap(self):
        with pytest.raises(SizeError):
            CirculantOperator(np.ones(8192)).materialize()

    def test_vector_round_trip(self):
        op = CirculantOperator(RNG(8).standard_normal(8))
        v = RNG(9).standard_normal(8)
        assert op.apply(v).shape == (8,)


class TestToeplitz:
    def test_identity(self):
        op = ToeplitzOperator([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        a = RNG(10).standard_normal((3, 2))
        assert np.allclose(op.apply(a), a, atol=1e-13)

    def test_lower_shift(self):
        op = ToeplitzOperator([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0])
        col = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(op.apply(col), [0.0, 1.0, 2.0, 3.0], atol=1e-13)

    def test_materialize_hand_example(self):
        op = ToeplitzOperator([1.0, 4.0], [1.0, 2.0])
        assert np.array_equal(op.materialize(), [[1.0, 2.0], [4.0, 1.0]])

    def test_round_trip_coefficients(self):
        rng = RNG(11)
        col = rng.standard_normal(5)
        row = rng.standard_normal(4)
        row[0] = col[0]
        op = ToeplitzOperator(col, row)
        dense_matrix = op.materialize()
        assert np.array_equal(dense_matrix[:, 0], col)
        assert np.array_equal(dense_matrix[0, :], row)

    @pytest.mark.parametrize("shape", [(32, 32), (8, 5), (5, 8)])
    def test_against_dense_oracle(self, shape):
        rng = RNG(12)
        m, n = shape
        col = rng.standard_normal(m)
        row = rng.standard_normal(n)
        row[0] = col[0]
        op = ToeplitzOperator(col, row)
        a = rng.standard_normal((n, 3))
        expected = op.materialize() @ a
        assert np.linalg.norm(op.apply(a) - expected) <= 1e-12 * np.linalg.norm(expected)
        v = rng.standard_normal(n)
        out = op.apply(v)
        assert out.shape == (m,)
        assert np.linalg.norm(out - op.materialize() @ v) <= 1e-12 * np.linalg.norm(op.materialize() @ v)

    def test_corner_mismatch(self):
        with pytest.raises(ShapeError):
            ToeplitzOperator([1.0, 2.0], [3.0, 4.0])


class TestHankel:
    def test_materialize_reverses_rows(self):
        rng = RNG(13)
        col = rng.standard_normal(4)
        row = rng.standard_normal(4)
        row[0] = col[0]
        top = ToeplitzOperator(col, row)
        hank = HankelOperator(top)
        assert np.array_equal(hank.materialize(), top.materialize()[::-1])

    def test_anti_diagonal_law(self):
        hank = HankelOperator(ToeplitzOperator([3.0, 2.0, 1.0], [3.0, 4.0, 5.0]))
        h = hank.materialize()
        vals = np.concatenate([h[0, :], h[1:, -1]])
        for i in range(3):
            for j in range(3):
                assert h[i, j] == vals[i + j]

    def test_apply_matches_dense(self):
        rng = RNG(14)
        col = rng.standard_normal(8)
        row = rng.standard_normal(8)
        row[0] = col[0]
        hank = HankelOperator(ToeplitzOperator(col, row))
        a = rng.standard_normal((8, 3))
        expected = hank.materialize() @ a
        assert np.linalg.norm(hank.apply(a) - expected) <= 1e-12 * np.linalg.norm(expected)
        v = rng.standard_normal(8)
        out = hank.apply(v)
        assert out.shape == (8,)
        assert np.linalg.norm(out - hank.materialize() @ v) <= 1e-12 * np.linalg.norm(hank.materialize() @ v)


class TestOperationCounts:
    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_fast_apply_accuracy_grid(self, n):
        rng = RNG(n)
        op = CirculantOperator(rng.standard_normal(n))
        a = rng.standard_normal((n, n))
        expected = op.materialize() @ a
        assert np.linalg.norm(op.apply(a) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_circulant_apply_op_count(self):
        n = 256
        rng = RNG(15)
        op = CirculantOperator(rng.standard_normal(n))
        a = rng.standard_normal((n, n))
        transforms.op_counter.reset()
        op.apply(a)
        count = transforms.op_counter.total
        assert count < n**3 / 4
        assert count <= 4 * n * n * np.log2(n)

    def test_counter_accumulates_and_resets(self):
        transforms.op_counter.reset()
        fft(np.ones(8))
        first = transforms.op_counter.total
        assert first > 0
        fft(np.ones(8))
        assert transforms.op_counter.total == 2 * first
        transforms.op_counter.reset()
        assert transforms.op_counter.total == 0
