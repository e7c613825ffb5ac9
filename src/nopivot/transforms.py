"""Radix-2 FFT and fast circulant / Toeplitz / Hankel multiplication.

An n-by-n circulant times an n-by-k dense matrix costs O(n k log n) scalar
multiply/add events instead of the O(n^2 k) of the dense product; Toeplitz
and Hankel multiplication reduce to the circulant case by embedding into a
circulant of the next power-of-two size.  A module-level counter tracks
multiply and add events (complex operations count as single events) so the
asymptotic saving can be asserted rather than assumed.  The solve multiplies
by ``materialize()`` instead: a BLAS GEMM with it is faster in wall time.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeError, SizeError

_MATERIALIZE_CAP = 4096


class OpCounter:
    """Running count of scalar multiply / add events in the fast kernels."""

    __slots__ = ("mults", "adds")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.mults = 0
        self.adds = 0

    def add(self, mults: int = 0, adds: int = 0) -> None:
        self.mults += mults
        self.adds += adds

    @property
    def total(self) -> int:
        return self.mults + self.adds


op_counter = OpCounter()


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


_bitrev_cache: dict[int, np.ndarray] = {}
_twiddle_cache: dict[tuple[int, int], np.ndarray] = {}


def _bit_reversal(length: int) -> np.ndarray:
    perm = _bitrev_cache.get(length)
    if perm is None:
        bits = length.bit_length() - 1
        perm = np.zeros(length, dtype=np.intp)
        for i in range(length):
            rev = 0
            x = i
            for _ in range(bits):
                rev = (rev << 1) | (x & 1)
                x >>= 1
            perm[i] = rev
        _bitrev_cache[length] = perm
    return perm


def _twiddles(length: int, sign: int) -> np.ndarray:
    key = (length, sign)
    table = _twiddle_cache.get(key)
    if table is None:
        table = np.exp(sign * 2j * np.pi * np.arange(length // 2) / length)
        _twiddle_cache[key] = table
    return table


def _fft_columns(x: np.ndarray, inverse: bool) -> np.ndarray:
    """Iterative radix-2 FFT along axis 0 of a complex (L, k) array."""
    length, ncols = x.shape
    if not is_power_of_two(length):
        raise ShapeError(f"FFT length must be a power of two, got {length}")
    # The gather already copies, so the cast need not copy again.
    out = x[_bit_reversal(length)].astype(np.complex128, copy=False)
    if length == 1:
        return out
    table = _twiddles(length, +1 if inverse else -1)
    size = 2
    while size <= length:
        half = size // 2
        tw = table[:: length // size][:half]
        view = out.reshape(length // size, size, ncols)
        low = view[:, :half, :]
        high = view[:, half:, :] * tw[None, :, None]
        op_counter.add(mults=(length // 2) * ncols, adds=length * ncols)
        # In place: `high` is the stage's only temporary.
        np.subtract(low, high, out=view[:, half:, :])
        low += high
        size *= 2
    if inverse:
        out *= 1.0 / length
        op_counter.add(mults=length * ncols)
    return out


def _as_columns(a, rows: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(a, dtype=float)
    was_vector = arr.ndim == 1
    if was_vector:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != rows:
        raise ShapeError(f"operand must have {rows} rows, got shape {np.shape(a)}")
    return arr, was_vector


def _spectral_product(spectrum: np.ndarray, arr: np.ndarray, rows: int) -> np.ndarray:
    """First ``rows`` rows of C @ arr, C the circulant with eigenvalues ``spectrum``.

    ``arr`` may have fewer rows than C; it is zero-padded to C's order.
    """
    length = spectrum.size
    spec = np.zeros((length, arr.shape[1]), dtype=np.complex128)
    spec[: arr.shape[0]] = arr
    # Rebinding drops the padded input before the inverse transform allocates.
    spec = _fft_columns(spec, inverse=False)
    spec *= spectrum[:, None]
    op_counter.add(mults=length * arr.shape[1])
    return _fft_columns(spec, inverse=True).real[:rows]


class CirculantOperator:
    """Circulant matrix C with entries c[(i - j) mod n], stored by first column.

    Fast application needs n to be a power of two; materialization works for
    any size up to the cap.
    """

    def __init__(self, first_column):
        c = np.asarray(first_column, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ShapeError("first_column must be a nonempty 1-D vector")
        if not np.isfinite(c).all():
            raise ShapeError("first_column contains non-finite entries")
        self.first_column = c.copy()
        self.n = c.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @functools.cached_property
    def spectrum(self) -> np.ndarray | None:
        """Eigenvalues of C, the FFT of its first column; None unless n is a power of two."""
        if not is_power_of_two(self.n):
            return None
        return _fft_columns(self.first_column.astype(np.complex128)[:, None], inverse=False)[:, 0]

    def materialize(self) -> np.ndarray:
        if self.n > _MATERIALIZE_CAP:
            raise SizeError(f"materialize caps n at {_MATERIALIZE_CAP}, got {self.n}")
        idx = np.mod(np.subtract.outer(np.arange(self.n), np.arange(self.n)), self.n)
        return self.first_column[idx]

    def apply(self, a) -> np.ndarray:
        """C @ a for a vector or an n-row matrix."""
        if self.spectrum is None:
            raise ShapeError(f"fast circulant apply needs power-of-two n, got {self.n}")
        arr, was_vector = _as_columns(a, self.n)
        out = _spectral_product(self.spectrum, arr, self.n)
        return out[:, 0] if was_vector else out


class ToeplitzOperator:
    """Toeplitz matrix with entry (i, j) = t[i - j], stored by first column/row.

    Multiplication embeds the operator into a circulant of the next
    power-of-two size >= m + n - 1 and runs three FFTs per column batch.
    """

    def __init__(self, first_column, first_row):
        col = np.asarray(first_column, dtype=float)
        row = np.asarray(first_row, dtype=float)
        if col.ndim != 1 or row.ndim != 1 or col.size < 1 or row.size < 1:
            raise ShapeError("first_column and first_row must be nonempty 1-D vectors")
        if col[0] != row[0]:
            raise ShapeError("first_column[0] and first_row[0] must agree (shared corner)")
        if not (np.isfinite(col).all() and np.isfinite(row).all()):
            raise ShapeError("generating coefficients contain non-finite entries")
        self.first_column = col.copy()
        self.first_row = row.copy()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.first_column.size, self.first_row.size)

    def materialize(self) -> np.ndarray:
        m, n = self.shape
        if max(m, n) > _MATERIALIZE_CAP:
            raise SizeError(f"materialize caps dimensions at {_MATERIALIZE_CAP}")
        diff = np.subtract.outer(np.arange(m), np.arange(n))
        return np.where(
            diff >= 0,
            self.first_column[np.clip(diff, 0, m - 1)],
            self.first_row[np.clip(-diff, 0, n - 1)],
        )

    @functools.cached_property
    def _embedding(self) -> np.ndarray:
        """Spectrum of the power-of-two circulant that embeds this operator."""
        m, n = self.shape
        length = next_power_of_two(m + n - 1)
        c = np.zeros(length)
        c[:m] = self.first_column
        if n > 1:
            c[length - (n - 1) :] = self.first_row[1:][::-1]
        return _fft_columns(c.astype(np.complex128)[:, None], inverse=False)[:, 0]

    def apply(self, a) -> np.ndarray:
        """T @ a for a vector or an n-row matrix (T is m-by-n)."""
        m, n = self.shape
        arr, was_vector = _as_columns(a, n)
        out = _spectral_product(self._embedding, arr, m)
        return out[:, 0] if was_vector else out


class HankelOperator:
    """Hankel matrix realized as a Toeplitz operator with reversed row order."""

    def __init__(self, toeplitz: ToeplitzOperator):
        self.toeplitz = toeplitz

    @property
    def shape(self) -> tuple[int, int]:
        return self.toeplitz.shape

    def materialize(self) -> np.ndarray:
        return self.toeplitz.materialize()[::-1].copy()

    def apply(self, a) -> np.ndarray:
        """H @ a for a vector or an n-row matrix."""
        return self.toeplitz.apply(a)[::-1].copy()
