"""Residual experiments over batches of hard instances.

Per-trial instances are derived from (master seed, dimension, trial index)
only, so elimination variants run on identical systems and the multiplier is
the single varying factor.  Trials may run in parallel; results come back in
trial order either way, and aggregation sorts its values, so reports are
order independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import instances, pipeline
from .errors import NopivotError
from .randgen import Seed
from .reports import StatsRow, TableReport, aggregate_stats
from .transforms import is_power_of_two

DEFAULT_MASTER_SEED = 20120
DEFAULT_NULLITY = instances.DEFAULT_NULLITY

METHODS = ("gepp", "genp", "genp+plan")


@dataclass(frozen=True)
class ExperimentConfig:
    dims: tuple[int, ...] = (64, 256)
    trials: int = 100
    method: str = "gepp"
    plan: pipeline.PreconditionPlan | None = None
    master_seed: int = DEFAULT_MASTER_SEED
    nullity: int = DEFAULT_NULLITY

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method == "genp+plan" and self.plan is None:
            raise ValueError("method 'genp+plan' needs a plan")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for n in self.dims:
            if not is_power_of_two(n) or n < 8:
                raise ValueError(f"dimensions must be powers of two >= 8, got {n}")
            if not 0 <= self.nullity < n // 2:
                raise ValueError(f"nullity must satisfy 0 <= nullity < n/2, got {self.nullity} at n={n}")

    def describe(self) -> dict:
        plan = None
        if self.plan is not None:
            plan = {
                "left": self.plan.left,
                "right": self.plan.right,
                "refinement_steps": self.plan.refinement_steps,
                "zero_pivot_threshold": 0.0,  # GENP aborts only on an exactly zero pivot
            }
        return {
            "dims": list(self.dims),
            "trials": self.trials,
            "method": self.method,
            "plan": plan,
            "nullity": self.nullity,
        }


def instance_seed(master: int, n: int, trial: int) -> Seed:
    """Seed of the trial's test system; independent of the solve method."""
    return Seed(master).derive("instance", n, trial)


def multiplier_seed(master: int, n: int, trial: int) -> Seed:
    """Seed of the trial's random multipliers; disjoint from the instance stream."""
    return Seed(master).derive("multiplier", n, trial)


def _run_trial(args) -> list[float] | None:
    master, n, trial, method, plan, nullity = args
    try:
        inst = instances.hard_matrix(instance_seed(master, n, trial), n, nullity)
    except NopivotError:
        return None
    if method == "gepp":
        return [pipeline.relative_residual(inst.matrix, inst.gepp_solution, inst.rhs)]
    if method == "genp":
        plan = pipeline.PreconditionPlan(left=None, right=None)
    outcome = pipeline.preconditioned_solve(inst.matrix, inst.rhs, plan, multiplier_seed(master, n, trial))
    if outcome.failure is not None and not outcome.residual_history:
        return None
    return list(outcome.residual_history)


def run_residual_experiment(config: ExperimentConfig, workers: int = 1) -> TableReport:
    """One StatsRow per (dimension, refinement level); failures counted per row."""
    levels = 1
    if config.method == "genp+plan":
        levels = config.plan.refinement_steps + 1
    rows: list[StatsRow] = []
    for n in config.dims:
        jobs = [
            (config.master_seed, n, t, config.method, config.plan, config.nullity)
            for t in range(config.trials)
        ]
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                histories = list(pool.map(_run_trial, jobs))
        else:
            histories = [_run_trial(job) for job in jobs]
        for level in range(levels):
            values = [
                hist[level]
                for hist in histories
                if hist is not None and len(hist) > level and math.isfinite(hist[level])
            ]
            failures = config.trials - len(values)
            lo, hi, mean, std = aggregate_stats(values)
            rows.append(
                StatsRow(
                    dimension=n,
                    iterations=level,
                    min=lo,
                    max=hi,
                    mean=mean,
                    std=std,
                    failures=failures,
                )
            )
    title = f"relative residual norms: {config.method}"
    if config.plan is not None and config.method == "genp+plan":
        title += f" (left={config.plan.left}, right={config.plan.right})"
    return TableReport(
        title=title,
        master_seed=config.master_seed,
        config=config.describe(),
        rows=rows,
    )
