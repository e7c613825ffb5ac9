"""Hard test systems: nonsingular matrices whose leading half-block is singular.

The construction assembles ``A = [[A_k, B], [C, D]]`` with ``k = n/2`` where
``A_k = U diag(1,...,1,0,...,0) V^T`` has exactly ``h`` zero singular values
(U, V Haar-orthogonal) and B, C, D are random Toeplitz blocks rescaled to
unit spectral norm.  Elimination without pivoting degrades catastrophically
on these systems while they remain comfortably solvable overall.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dense, factor, randgen
from .errors import GenerationError, ShapeError
from .transforms import is_power_of_two

DEFAULT_NULLITY = 4
_FULL_MATRIX_RATIO = 1e-12
_MAX_ATTEMPTS = 5
_ORTHO_RESIDUAL_TOL = 1e-10
# Bytes of matrix, right-hand side and GEPP solution the instance cache
# keeps; enough for 100 trials at n = 64 and n = 256 (about 56 MB).
CACHE_BYTES = 64 * 2**20


@dataclass
class HardInstance:
    """One generated system plus its construction record."""

    matrix: np.ndarray
    rhs: np.ndarray
    n: int
    h: int
    seed: randgen.Seed
    block_norms: dict = field(default_factory=dict)
    attempt: int = 1
    gepp_solution: np.ndarray | None = None  # the screen's GEPP solve; None if read from a file


class _InstanceCache:
    """Instances of the latest master seed, keyed by ``(seed, n, h)``.

    A call with another master seed empties it, so memory stays flat while a
    caller moves through seeds.  It holds at most ``CACHE_BYTES``.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.master = None
        self.entries = {}
        self.nbytes = 0

    def get(self, key):
        master = key[0].master
        if master != self.master:
            self.clear()
            self.master = master
        return self.entries.get(key)

    def put(self, key, inst: HardInstance) -> None:
        size = inst.matrix.nbytes + inst.rhs.nbytes + inst.gepp_solution.nbytes
        if self.nbytes + size <= CACHE_BYTES:
            self.entries[key] = inst
            self.nbytes += size


_CACHE = _InstanceCache()


def _orthonormal_residual(q: np.ndarray) -> float:
    return float(np.linalg.norm(q.T @ q - np.eye(q.shape[0])))


def hard_matrix(seed: randgen.Seed, n: int, h: int = DEFAULT_NULLITY) -> HardInstance:
    """Generate one hard instance (resampling if the full matrix degenerates).

    Requires power-of-two n >= 8 and 0 <= h < n/2.  The orthogonal factors
    are validated by their Frobenius orthonormality residual, which pins the
    singular values of the leading block to {1, 0} up to that residual.

    The function is pure, so while ``seed.master`` stays the same an instance
    is built once per ``(seed, n, h)`` and later calls return that same
    object, as long as it fits in ``CACHE_BYTES``.  Its ``matrix``, ``rhs``
    and ``gepp_solution`` are read-only; copy them to modify.
    """
    if not is_power_of_two(n) or n < 8:
        raise ShapeError(f"n must be a power of two >= 8, got {n}")
    k = n // 2
    if not (0 <= h < k):
        raise ShapeError(f"nullity h must satisfy 0 <= h < n/2, got h={h}")
    key = (seed, n, h)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        attempt_seed = seed.derive("attempt", attempt)
        u = randgen.random_orthonormal(attempt_seed.derive("left-factor"), k)
        v = randgen.random_orthonormal(attempt_seed.derive("right-factor"), k)
        if max(_orthonormal_residual(u), _orthonormal_residual(v)) > _ORTHO_RESIDUAL_TOL:
            continue
        sigma = np.ones(k)
        if h > 0:
            sigma[k - h :] = 0.0
        leading = (u * sigma) @ v.T
        blocks = {}
        raw_norms = {}
        for name in ("b", "c", "d"):
            op = randgen.gaussian_toeplitz(attempt_seed.derive("block", name), k, k)
            block = op.materialize()
            norm = dense.spectral_norm_estimate(block)
            raw_norms[name] = norm
            blocks[name] = block / norm
        a = np.block([[leading, blocks["b"]], [blocks["c"], blocks["d"]]])
        rhs = randgen.gaussian_vector(attempt_seed.derive("rhs"), n)
        rhs /= np.linalg.norm(rhs)
        # Assembly does not guarantee the full matrix stays nonsingular.
        smax = dense.spectral_norm_estimate(a)
        try:
            fact = factor.gepp_factor(a)
            inv_norm = factor.inverse_norm_estimate(a, fact)
        except factor.SingularMatrixError:
            continue
        if 1.0 / (inv_norm * smax) <= _FULL_MATRIX_RATIO:
            continue
        solution = factor.lu_solve(fact, rhs)
        for array in (a, rhs, solution):
            array.flags.writeable = False
        inst = HardInstance(
            matrix=a,
            rhs=rhs,
            n=n,
            h=h,
            seed=attempt_seed,
            block_norms={"raw": raw_norms, "inverse_norm": inv_norm, "norm": smax},
            attempt=attempt,
            gepp_solution=solution,
        )
        _CACHE.put(key, inst)
        return inst
    raise GenerationError(f"could not generate a nonsingular hard instance in {_MAX_ATTEMPTS} attempts")


# --- instance files ----------------------------------------------------------
#
# Header line "# seed=<master>/<stream> n=<n> h=<h>", then the matrix in the
# dense text format, then the right-hand side as an n-by-1 matrix.


def format_instance(inst: HardInstance) -> str:
    header = f"# seed={inst.seed.master}/{inst.seed.stream} n={inst.n} h={inst.h}\n"
    return header + dense.format_matrix(inst.matrix) + dense.format_matrix(inst.rhs[:, None])


def write_instance(inst: HardInstance, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_instance(inst))


def read_instance(path) -> HardInstance:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    meta = {}
    if lines and lines[0].startswith("#"):
        for token in lines[0][1:].split():
            key, _, value = token.partition("=")
            meta[key] = value
        lines = lines[1:]
    m, n = (int(tok) for tok in lines[0].split())
    matrix = dense.parse_matrix("\n".join(lines[: 1 + m]))
    rhs = dense.parse_matrix("\n".join(lines[1 + m :]))[:, 0]
    master, _, stream = meta.get("seed", "0/0").partition("/")
    return HardInstance(
        matrix=matrix,
        rhs=rhs,
        n=int(meta.get("n", n)),
        h=int(meta.get("h", 0)),
        seed=randgen.Seed(int(master), int(stream or 0)),
    )
