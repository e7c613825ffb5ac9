"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import math
from pathlib import Path

import pytest

import run
import tracer
import workloads
from nopivot import experiments, verify
from nopivot.reports import StatsRow, TableReport
from nopivot.verify import BoundCheck, VerificationReport

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SEED = experiments.DEFAULT_MASTER_SEED


def tiny_tables():
    return workloads.TableWorkload(16, trials=2, trace_rounds=1)


def tiny_suites():
    suites = workloads.SuiteWorkload(trace_rounds=1)
    suites.parts = {
        "spectral": lambda seed: verify.check_spectral_bounds(seed, trials=6, max_size=6),
        "finite-set": lambda seed: verify.check_finite_set_singularity(seed, k=2, trials=50),
        "safety": lambda seed: verify.check_safety_bounds(seed, trials=1, n=8),
    }
    return suites


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def emitted(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_smoke_end_to_end_emits_every_metric_with_its_unit():
    setup_s = run.measure_setup("tables-n64", SEED, samples=1)
    metrics, log = run.end_to_end(tiny_tables(), SEED, seconds=0.0, setup_s=setup_s)
    assert emitted(metrics) == declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert len(log.walls) == run.MIN_ROUNDS
    assert log.attempted == run.MIN_ROUNDS * 4 * 2 and log.failed == 0


@pytest.mark.parametrize("make", [tiny_tables, tiny_suites])
def test_smoke_per_layer_emits_every_metric_with_its_unit(make, tmp_path):
    path = tmp_path / "trace.json"
    metrics, log, problems = run.per_layer(make(), SEED, path, {"seed": SEED})
    assert problems == []
    assert emitted(metrics) == declared("per_layer")
    assert log.failed == 0
    written = json.loads(path.read_text())
    assert written["span_fields"] == ["name", "start", "end", "parent", "trial"]
    assert len(written["spans"]) > 0


def test_table_controls_and_exact_counts():
    metrics, _, _ = run.per_layer(tiny_tables(), SEED, None, {})
    values = {name: value for name, (value, _) in metrics.items()}
    assert values["transforms.apply.calls"] == 0  # n < MATERIALIZE_BELOW
    assert values["dense.singular_values.calls"] == 0
    assert values["instances.calls_per_instance"] == 4.0
    assert values["factor.genp_factor.calls"] == 3 * 2
    assert values["factor.genp_factor.gflop_computed"] == pytest.approx(6 * 2 * 16**3 / 3 / 1e9)


def row(max_value, failures=0, iterations=0):
    return StatsRow(dimension=64, iterations=iterations, min=0.0, max=max_value, mean=max_value / 2, std=0.0,
                    failures=failures)


def test_gate_counts_a_fabricated_out_of_bound_row():
    gepp, genp, gauss, _ = workloads.TABLES
    ok = TableReport("t", SEED, rows=[row(1e-14)])
    bad = TableReport("t", SEED, rows=[row(1e-3)])
    assert workloads.check_table(gepp, ok, 8) == (8, 0)
    assert workloads.check_table(gepp, bad, 8) == (8, 1)
    # Only the final refinement level is gated.
    refined = TableReport("t", SEED, rows=[row(1e-3), row(1e-14, iterations=1)])
    assert workloads.check_table(gauss, refined, 8) == (8, 0)
    refined.rows[-1] = row(1e-3, iterations=1)
    assert workloads.check_table(gauss, refined, 8) == (8, 1)
    # Plain GENP is not gated: garbage residuals and zero-pivot aborts are expected.
    assert workloads.check_table(genp, TableReport("t", SEED, rows=[row(50.0, failures=3)]), 8) == (8, 0)
    assert workloads.check_table(gauss, TableReport("t", SEED, rows=[row(1e-3), row(1e-14, 2, 1)]), 8) == (8, 2)
    nan_row = StatsRow(64, 0, math.nan, math.nan, math.nan, math.nan, failures=8)
    assert workloads.check_table(gepp, TableReport("t", SEED, rows=[nan_row]), 8) == (8, 8)


def test_gate_counts_a_failed_suite():
    failing = VerificationReport("s", SEED, checks=[BoundCheck("c", {}, 1.0, 2.0, 0.0, 1, passed=False)])
    suites = workloads.WORKLOADS["verify-desk"]
    assert suites.check("safety", failing) == (1, 1)
    assert suites.check("safety", VerificationReport("s", SEED)) == (1, 0)


def originals():
    return {(owner, attr): vars(owner)[attr] for owner, attr in tracer.wrap_targets()}


def test_no_wrapper_left_installed_after_traced_run():
    before = originals()
    run.per_layer(tiny_tables(), SEED, None, {})
    assert originals() == before


def test_wrappers_are_removed_when_the_traced_block_raises():
    before = originals()
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert all(vars(owner)[attr] is not fn for (owner, attr), fn in before.items())
            raise RuntimeError("boom")
    assert originals() == before


def test_self_time_subtracts_child_spans():
    spans = [
        ("root", 0.0, 10.0, -1, None),
        ("child", 1.0, 4.0, 0, None),
        ("grandchild", 2.0, 3.0, 1, None),
        ("child", 5.0, 6.0, 0, None),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
