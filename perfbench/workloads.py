"""The benchmark's workloads and the correctness gate applied to their output.

A workload is a list of parts run once per round.  A table part is one
``experiments.run_residual_experiment`` call; a suite part is one
verification suite.  Round ``r`` uses master seed ``seed + r * 2**32``, so
every round draws fresh instances and a run's inputs depend only on
``--seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from nopivot import experiments, verify
from nopivot.pipeline import PreconditionPlan
from nopivot.randgen import FiniteSet, Seed

ROUND_STRIDE = 1 << 32


def round_seed(seed: int, r: int) -> int:
    return seed + r * ROUND_STRIDE


@dataclass(frozen=True)
class Table:
    """One ``scripts/run_tables.py`` method and the bound on its final residual.

    ``bound`` is None for plain GENP, which is not gated: on these instances
    a garbage residual is its expected outcome, and so is a structured abort
    on an exactly zero pivot (about one trial in 80 at n = 64).
    """

    label: str
    method: str
    plan: PreconditionPlan | None
    bound: float | None


TABLES = (
    # Criterion 01: every GEPP residual at most 1e-10.
    Table("gepp", "gepp", None, 1e-10),
    Table("genp", "genp", None, None),
    # Criteria 03 and 04: the 4e-9 target with its 1e2 slack.
    Table("gauss2-r1", "genp+plan", PreconditionPlan(refinement_steps=1), 4e-7),
    Table("circ2-r1", "genp+plan", PreconditionPlan(left="circulant", right="circulant", refinement_steps=1), 4e-7),
)


def check_table(table: Table, report, trials: int) -> tuple[int, int]:
    """(attempted, failed) trials of one residual table.

    The last row holds the final refinement level.  Its ``failures`` are the
    aborted or non-finite trials.  The table keeps only the row maximum, so a
    maximum above the bound counts as one failed trial.
    """
    if table.bound is None:
        return trials, 0
    row = report.rows[-1]
    failed = row.failures
    if not row.max <= table.bound:
        failed += 1
    return trials, min(failed, trials)


class TableWorkload:
    """The four residual tables at one dimension."""

    metric_prefix = "table_s"

    def __init__(self, n: int, trials: int, trace_rounds: int):
        self.n = n
        self.trials = trials
        self.trace_rounds = trace_rounds
        self.parts = {t.label: t for t in TABLES}

    def config(self, table: Table, master: int, trials: int | None = None):
        return experiments.ExperimentConfig(
            dims=(self.n,),
            trials=trials or self.trials,
            method=table.method,
            plan=table.plan,
            master_seed=master,
        )

    def run_part(self, label: str, master: int):
        return experiments.run_residual_experiment(self.config(self.parts[label], master), workers=1)

    def check(self, label: str, report) -> tuple[int, int]:
        return check_table(self.parts[label], report, self.trials)

    def warm_up(self, master: int) -> None:
        table = self.parts["circ2-r1"]
        experiments.run_residual_experiment(self.config(table, master, trials=1), workers=1)

    def instance_labels(self, master: int) -> dict:
        """Trace label of every hard instance a round draws, keyed as the tracer sees it."""
        return {
            (experiments.instance_seed(master, self.n, t), self.n): f"{master}/n{self.n}/t{t}"
            for t in range(self.trials)
        }


class SuiteWorkload:
    """The five ``scripts/run_verification.py`` suites, scaled down.

    A round is kept near one second, so that a run holds enough rounds for a
    steady median: the spectral, finite-set and perturbation suites run a
    twenty-fifth of their desk-scale trials and the safety suite a fiftieth.
    The tail-bound suite refuses fewer than its desk-scale 10^4 samples.
    """

    metric_prefix = "suite_s"

    def __init__(self, trace_rounds: int):
        self.trace_rounds = trace_rounds
        self.parts = {
            "spectral": lambda seed: verify.check_spectral_bounds(seed, trials=40, max_size=12),
            "tails": lambda seed: verify.check_tail_bounds(seed, samples=10_000),
            "finite-set": lambda seed: verify.check_finite_set_singularity(
                seed, k=3, delta=FiniteSet(tuple(range(10))), trials=4_000
            ),
            "safety": lambda seed: verify.check_safety_bounds(seed, trials=2, n=16),
            "perturbation": lambda seed: verify.check_perturbation(seed, trials=6, max_size=12),
        }

    def run_part(self, label: str, master: int):
        return self.parts[label](Seed(master))

    def check(self, label: str, report) -> tuple[int, int]:
        return 1, int(not report.passed)

    def warm_up(self, master: int) -> None:
        verify.check_safety_bounds(Seed(master), trials=1, n=16)

    def instance_labels(self, master: int) -> dict:
        return {}


# A table workload's trace rounds make at least 100 preconditioned solves, so
# that at least ten solve times lie beyond the reported p90.
WORKLOADS = {
    # Python-loop regime; circulants are materialized below n = 128, so the
    # FFT apply is bypassed (the control for transforms work).
    "tables-n64": TableWorkload(64, trials=8, trace_rounds=5),
    # O(n^3) regime with the live FFT circulant apply.
    "tables-n256": TableWorkload(256, trials=1, trace_rounds=34),
    # Jacobi SVD and exact integer arithmetic; never touches instances,
    # pipeline or the FFT.
    "verify-desk": SuiteWorkload(trace_rounds=4),
}


def fingerprint(report) -> str:
    """Canonical text of a table or suite report, for comparing two passes."""
    return json.dumps(report.to_dict(), sort_keys=True, default=repr)
