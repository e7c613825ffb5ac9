import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nopivot import experiments, factor, instances, pipeline


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            experiments.ExperimentConfig(method="cholesky")

    def test_plan_required(self):
        with pytest.raises(ValueError):
            experiments.ExperimentConfig(method="genp+plan", plan=None)

    def test_dims_power_of_two(self):
        with pytest.raises(ValueError):
            experiments.ExperimentConfig(dims=(12,))
        with pytest.raises(ValueError):
            experiments.ExperimentConfig(dims=(4,))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            experiments.ExperimentConfig(trials=0)

    def test_nullity_below_half_dimension(self):
        # hard_matrix needs 0 <= h < n/2; n = 8 leaves room for h <= 3 only.
        with pytest.raises(ValueError):
            experiments.ExperimentConfig(dims=(8,))
        with pytest.raises(ValueError):
            experiments.ExperimentConfig(dims=(16, 8), nullity=4)
        with pytest.raises(ValueError):
            experiments.ExperimentConfig(dims=(16,), nullity=-1)
        assert experiments.ExperimentConfig(dims=(8,), nullity=3).nullity == 3


class TestSeedDerivation:
    def test_instance_seed_is_method_free(self):
        # The instance stream depends only on (master, n, trial), so every
        # method sees the same systems and the multiplier stream is disjoint.
        s1 = experiments.instance_seed(5, 16, 3)
        s2 = experiments.instance_seed(5, 16, 3)
        assert s1 == s2
        assert experiments.instance_seed(5, 16, 4) != s1
        assert experiments.multiplier_seed(5, 16, 3) != s1

    def test_shared_instances_across_methods(self):
        inst_a = instances.hard_matrix(experiments.instance_seed(7, 16, 0), 16, 4)
        inst_b = instances.hard_matrix(experiments.instance_seed(7, 16, 0), 16, 4)
        assert np.array_equal(inst_a.matrix, inst_b.matrix)


class TestRunExperiment:
    def test_gepp_row_shape(self):
        config = experiments.ExperimentConfig(dims=(16,), trials=5, method="gepp", master_seed=11)
        report = experiments.run_residual_experiment(config)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.dimension == 16 and row.iterations == 0
        assert row.failures == 0
        assert row.max <= 1e-10

    def test_refinement_rows_per_level(self):
        plan = pipeline.PreconditionPlan(refinement_steps=1)
        config = experiments.ExperimentConfig(
            dims=(16,), trials=5, method="genp+plan", plan=plan, master_seed=11
        )
        report = experiments.run_residual_experiment(config)
        assert [(r.dimension, r.iterations) for r in report.rows] == [(16, 0), (16, 1)]

    def test_determinism(self):
        config = experiments.ExperimentConfig(dims=(16,), trials=4, method="genp", master_seed=13)
        first = experiments.run_residual_experiment(config)
        second = experiments.run_residual_experiment(config)
        assert first.to_dict() == second.to_dict()

    def test_workers_match_sequential(self):
        plan = pipeline.PreconditionPlan()
        config = experiments.ExperimentConfig(
            dims=(16,), trials=6, method="genp+plan", plan=plan, master_seed=17
        )
        sequential = experiments.run_residual_experiment(config, workers=1)
        parallel = experiments.run_residual_experiment(config, workers=2)
        assert sequential.to_dict() == parallel.to_dict()

    def test_import_loads_no_process_pool(self):
        # ProcessPoolExecutor is imported only when workers > 1.
        probe = "import sys, nopivot; print(sorted({'concurrent.futures', 'multiprocessing', 'subprocess'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"

    def test_cached_instances_match_fresh_ones(self):
        # The four scripts/run_tables.py methods on one master seed: the warm
        # pass reuses the instances the first method built.
        runs = [
            ("gepp", None),
            ("genp", None),
            ("genp+plan", pipeline.PreconditionPlan(refinement_steps=1)),
            ("genp+plan", pipeline.PreconditionPlan(left="circulant", right="circulant", refinement_steps=1)),
        ]
        configs = [
            experiments.ExperimentConfig(dims=(16, 32), trials=4, method=method, plan=plan, master_seed=23)
            for method, plan in runs
        ]
        cold = []
        for config in configs:
            instances._CACHE.clear()
            cold.append(experiments.run_residual_experiment(config).to_dict())
        warm = [experiments.run_residual_experiment(config).to_dict() for config in configs]
        assert warm == cold

    def test_gepp_reads_stored_solution(self, monkeypatch):
        # The GEPP table solves nothing itself: the instance screen's
        # factorization already gave the solution, warm cache or cold.
        config = experiments.ExperimentConfig(dims=(16, 32), trials=4, method="gepp", master_seed=29)
        instances._CACHE.clear()
        cold = experiments.run_residual_experiment(config).to_dict()
        calls = []
        original = factor.gepp_factor

        def counted(a):
            calls.append(1)
            return original(a)

        monkeypatch.setattr(factor, "gepp_factor", counted)
        warm = experiments.run_residual_experiment(config).to_dict()
        assert calls == []
        assert warm == cold

    def test_config_echo(self):
        config = experiments.ExperimentConfig(dims=(16,), trials=2, method="gepp", master_seed=19)
        report = experiments.run_residual_experiment(config)
        assert report.master_seed == 19
        assert report.config["method"] == "gepp"
        assert report.config["dims"] == [16]
