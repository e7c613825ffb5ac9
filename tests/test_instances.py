import numpy as np
import pytest

from nopivot import dense, factor, instances, pipeline
from nopivot.errors import ShapeError
from nopivot.randgen import Seed


class TestConstruction:
    def test_no_nullity_control(self):
        # h = 0 leaves the leading block a product of orthogonal factors.
        inst = instances.hard_matrix(Seed(0), 8, 0)
        sigma = dense.jacobi_svd(inst.matrix[:4, :4]).singular_values
        assert np.allclose(sigma, 1.0, atol=1e-10)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_leading_block_spectrum(self, n):
        inst = instances.hard_matrix(Seed(1).derive(n), n, 4)
        k = n // 2
        sigma = dense.jacobi_svd(inst.matrix[:k, :k]).singular_values
        assert np.count_nonzero(sigma < 1e-10) == 4
        assert np.allclose(sigma[: k - 4], 1.0, atol=1e-10)

    def test_rhs_unit_norm(self):
        inst = instances.hard_matrix(Seed(2), 16, 4)
        assert abs(np.linalg.norm(inst.rhs) - 1.0) <= 1e-14

    def test_full_matrix_nonsingular(self):
        inst = instances.hard_matrix(Seed(3), 16, 4)
        assert np.linalg.matrix_rank(inst.matrix, rtol=1e-10) == 16

    def test_blocks_unit_norm(self):
        inst = instances.hard_matrix(Seed(4), 32, 4)
        a = inst.matrix
        k = 16
        for block in (a[:k, k:], a[k:, :k], a[k:, k:]):
            assert dense.spectral_norm(block) == pytest.approx(1.0, rel=1e-6)

    def test_determinism(self):
        a = instances.hard_matrix(Seed(5), 16, 4)
        b = instances.hard_matrix(Seed(5), 16, 4)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.rhs, b.rhs)

    def test_parameter_validation(self):
        with pytest.raises(ShapeError):
            instances.hard_matrix(Seed(0), 12, 4)  # not a power of two
        with pytest.raises(ShapeError):
            instances.hard_matrix(Seed(0), 4, 0)  # too small
        with pytest.raises(ShapeError):
            instances.hard_matrix(Seed(0), 16, 8)  # h >= n/2


class TestCache:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        instances._CACHE.clear()
        yield
        instances._CACHE.clear()

    def test_repeat_returns_read_only_instance(self):
        first = instances.hard_matrix(Seed(20), 16, 4)
        again = instances.hard_matrix(Seed(20), 16, 4)
        assert again is first
        for array in (again.matrix, again.rhs):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_new_master_drops_old_instances(self):
        old = [instances.hard_matrix(Seed(21).derive(t), 16, 4) for t in range(2)]
        assert len(instances._CACHE.entries) == 2
        instances.hard_matrix(Seed(22), 16, 4)
        assert list(instances._CACHE.entries) == [(Seed(22), 16, 4)]
        rebuilt = instances.hard_matrix(Seed(21).derive(0), 16, 4)
        assert rebuilt is not old[0]
        assert np.array_equal(rebuilt.matrix, old[0].matrix)
        assert np.array_equal(rebuilt.rhs, old[0].rhs)

    def test_one_gepp_factor_per_accepted_attempt(self, monkeypatch):
        calls = []
        original = factor.gepp_factor

        def counted(a):
            calls.append(1)
            return original(a)

        monkeypatch.setattr(factor, "gepp_factor", counted)
        for t in range(3):
            inst = instances.hard_matrix(Seed(24).derive(t), 16, 4)
            assert inst.attempt == 1
            assert len(calls) == t + 1
            assert instances.hard_matrix(Seed(24).derive(t), 16, 4) is inst
            assert len(calls) == t + 1

    def test_gepp_solution_stored_read_only(self):
        inst = instances.hard_matrix(Seed(25), 16, 4)
        x = factor.lu_solve(factor.gepp_factor(inst.matrix), inst.rhs)
        assert inst.gepp_solution.tobytes() == x.tobytes()
        assert not inst.gepp_solution.flags.writeable
        with pytest.raises(ValueError):
            inst.gepp_solution[0] = 1.0

    def test_instance_over_budget_returned_not_kept(self, monkeypatch):
        size = 16 * 16 * 8 + 16 * 8 + 16 * 8
        monkeypatch.setattr(instances, "CACHE_BYTES", size + size // 2)
        kept = instances.hard_matrix(Seed(23).derive(0), 16, 4)
        over = instances.hard_matrix(Seed(23).derive(1), 16, 4)
        assert instances._CACHE.nbytes == size
        assert list(instances._CACHE.entries) == [(Seed(23).derive(0), 16, 4)]
        assert instances.hard_matrix(Seed(23).derive(0), 16, 4) is kept
        again = instances.hard_matrix(Seed(23).derive(1), 16, 4)
        assert again is not over
        assert np.array_equal(again.matrix, over.matrix)
        assert not over.matrix.flags.writeable


class TestInverseNorms:
    def test_bracket_at_64(self):
        # 100 instances land inside the generous inverse-norm bracket.
        for t in range(100):
            inst = instances.hard_matrix(Seed(6).derive(t), 64, 4)
            inv_norm = factor.inverse_norm_estimate(inst.matrix)
            assert 1e1 <= inv_norm <= 1e5

    def test_defect_local_not_global(self):
        # Paired h=0 vs h=4 runs: the nullity destroys the leading block's
        # conditioning while the full matrix stays in the same bracket.
        for t in range(10):
            seed = Seed(7).derive(t)
            with_defect = instances.hard_matrix(seed, 32, 4)
            without = instances.hard_matrix(seed, 32, 0)
            sigma_defect = dense.singular_values(with_defect.matrix[:16, :16])
            sigma_clean = dense.singular_values(without.matrix[:16, :16])
            assert sigma_defect[-1] / sigma_defect[0] <= 1e-10
            assert sigma_clean[-1] / sigma_clean[0] >= 0.9
            full = factor.inverse_norm_estimate(with_defect.matrix)
            assert 1e0 <= full <= 1e5


class TestEliminationContrast:
    def test_gepp_solves_genp_fails(self):
        # Shared instances: partial pivoting stays at rounding level while
        # the no-pivoting solve loses every digit.
        gepp_res = []
        genp_res = []
        for t in range(10):
            inst = instances.hard_matrix(Seed(9).derive(t), 64, 4)
            x = factor.lu_solve(factor.gepp_factor(inst.matrix), inst.rhs)
            gepp_res.append(pipeline.relative_residual(inst.matrix, x, inst.rhs))
            out = pipeline.preconditioned_solve(
                inst.matrix, inst.rhs, pipeline.PreconditionPlan(left=None, right=None), Seed(10)
            )
            genp_res.append(out.relative_residual)
        assert max(gepp_res) <= 1e-10
        assert min(genp_res) >= 1e-3
        assert min(np.array(genp_res) / np.array(gepp_res)) >= 1e6


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        inst = instances.hard_matrix(Seed(11), 16, 4)
        path = tmp_path / "inst.txt"
        instances.write_instance(inst, path)
        loaded = instances.read_instance(path)
        assert np.array_equal(loaded.matrix, inst.matrix)
        assert np.array_equal(loaded.rhs, inst.rhs)
        assert loaded.n == 16 and loaded.h == 4
        assert loaded.seed.master == inst.seed.master

    def test_header_line(self, tmp_path):
        inst = instances.hard_matrix(Seed(12), 8, 2)
        text = instances.format_instance(inst)
        first = text.splitlines()[0]
        assert first.startswith("#")
        assert "n=8" in first and "h=2" in first and "seed=" in first
