"""Seeded samplers for every random object the experiments draw.

All randomness flows through :class:`Seed`, a (master, stream) pair feeding
numpy's PCG64 generator.  Identical seeds reproduce identical output within
this implementation; derived sub-streams give independent, reproducible
per-trial generators.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import dense
from .errors import ShapeError
from .transforms import CirculantOperator, HankelOperator, ToeplitzOperator, is_power_of_two

_MASK64 = (1 << 64) - 1
_MIX_MULT = 0x9E3779B97F4A7C15


def _mix64(h: int, value: int) -> int:
    h = (h ^ (value & _MASK64)) & _MASK64
    h = (h * _MIX_MULT) & _MASK64
    h ^= h >> 31
    return h


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & _MASK64
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"seed derivation keys must be int or str, got {type(key)!r}")


@dataclass(frozen=True)
class Seed:
    """Reproducible generator identity: a master seed plus a sub-stream id."""

    master: int
    stream: int = 0

    def rng(self) -> np.random.Generator:
        entropy = np.random.SeedSequence((self.master & _MASK64, self.stream & _MASK64))
        return np.random.Generator(np.random.PCG64(entropy))

    def derive(self, *keys) -> "Seed":
        """New seed with a sub-stream mixed from ``keys`` (ints or strings)."""
        h = self.stream & _MASK64
        for key in keys:
            h = _mix64(h, _key_to_int(key))
        return Seed(self.master, h)


def parse_seed(text: str) -> int:
    """Accept decimal or hex (0x...) seed values from the command line."""
    return int(text, 0)


@dataclass(frozen=True)
class FiniteSet:
    """Ordered set of distinct integers to sample matrix entries from."""

    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("finite set must be nonempty")
        if len(set(self.values)) != len(self.values):
            raise ValueError("finite set values must be distinct")
        if any(not isinstance(v, (int, np.integer)) for v in self.values):
            raise TypeError("finite set values must be integers")

    @property
    def size(self) -> int:
        return len(self.values)


def gaussian_matrix(seed: Seed, m: int, n: int) -> np.ndarray:
    """m-by-n matrix of i.i.d. standard normal entries."""
    if m < 1 or n < 1:
        raise ShapeError(f"dimensions must be positive, got {(m, n)}")
    return seed.rng().standard_normal((m, n))


def gaussian_vector(seed: Seed, n: int) -> np.ndarray:
    if n < 1:
        raise ShapeError(f"dimension must be positive, got {n}")
    return seed.rng().standard_normal(n)


def gaussian_circulant(seed: Seed, n: int) -> CirculantOperator:
    """Circulant operator whose first column is n i.i.d. standard normals."""
    if not is_power_of_two(n):
        raise ShapeError(f"gaussian_circulant needs power-of-two n, got {n}")
    return CirculantOperator(seed.rng().standard_normal(n))


def gaussian_toeplitz(seed: Seed, m: int, n: int, kind: str = "toeplitz"):
    """Toeplitz (or Hankel) operator from m+n-1 i.i.d. normal coefficients."""
    if m < 1 or n < 1:
        raise ShapeError(f"dimensions must be positive, got {(m, n)}")
    if kind not in ("toeplitz", "hankel"):
        raise ValueError(f"kind must be 'toeplitz' or 'hankel', got {kind!r}")
    vals = seed.rng().standard_normal(m + n - 1)
    first_column = vals[n - 1 :]
    first_row = vals[n - 1 :: -1]
    op = ToeplitzOperator(first_column, first_row)
    return HankelOperator(op) if kind == "hankel" else op


def random_orthonormal(seed: Seed, k: int) -> np.ndarray:
    """Orthogonal k-by-k matrix: the sign-normalized Q factor of a Gaussian.

    With the R diagonal forced nonnegative the Q factor is unique, which makes
    the distribution the Haar measure on the orthogonal group.
    """
    if k < 1:
        raise ShapeError(f"dimension must be positive, got {k}")
    g = gaussian_matrix(seed, k, k)
    return dense.householder_qr(g).q_factor


def finite_set_matrix(seed: Seed, m: int, n: int, delta: FiniteSet) -> np.ndarray:
    """Integer-valued matrix with entries i.i.d. uniform over ``delta``."""
    if m < 1 or n < 1:
        raise ShapeError(f"dimensions must be positive, got {(m, n)}")
    values = np.asarray(delta.values, dtype=float)
    return values[seed.rng().integers(0, delta.size, size=(m, n))]
