import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "benchpairs.py"
spec = importlib.util.spec_from_file_location("benchpairs", SCRIPT)
benchpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpairs)

DIRECTIONS = {"norm_cpu_s": "lower", "gflops": "higher", "absent": "lower"}


def result(norm_cpu_s, gflops):
    return {
        "correct": True,
        "attempted": 4,
        "failed": 0,
        "metrics": {
            "norm_cpu_s": {"value": norm_cpu_s, "unit": "s"},
            "gflops": {"value": gflops, "unit": "Gflop/s"},
        },
    }


def runs_of(parent, change):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs.append({"pair": pair, "side": "parent", "result": result(*p)})
        runs.append({"pair": pair, "side": "change", "result": result(*c)})
    return runs


def test_summary_of_fabricated_runs():
    parent = [(0.20, 1.0), (0.21, 2.0), (0.22, 3.0), (0.23, 4.0), (0.24, 5.0)]
    change = [(0.16, 1.5), (0.17, 1.0), (0.18, 3.5), (0.25, 4.5), (0.17, 5.0)]
    summary = benchpairs.summarize(runs_of(parent, change), DIRECTIONS)
    assert set(summary) == {"norm_cpu_s", "gflops"}
    cpu = summary["norm_cpu_s"]
    assert cpu["parent"] == pytest.approx({"median": 0.22, "q1": 0.21, "q3": 0.23})
    assert cpu["change"] == pytest.approx({"median": 0.17, "q1": 0.17, "q3": 0.18})
    assert (cpu["change_wins"], cpu["pairs"], cpu["unit"]) == (4, 5, "s")
    assert cpu["median_rel_change"] == pytest.approx(-0.05 / 0.22)
    assert cpu["gap_exceeds_parent_iqr"] is True
    # Higher is better: wins in pairs 0, 2 and 3, a tie in pair 4.
    gflops = summary["gflops"]
    assert gflops["change_wins"] == 3
    assert (gflops["parent"]["median"], gflops["change"]["median"]) == (3.0, 3.5)
    assert gflops["gap_exceeds_parent_iqr"] is False


def test_gap_in_the_worse_direction_is_not_a_gain():
    parent = [(0.20, 1.0), (0.21, 1.0), (0.22, 1.0)]
    change = [(0.30, 1.0), (0.31, 1.0), (0.32, 1.0)]
    summary = benchpairs.summarize(runs_of(parent, change), DIRECTIONS)
    assert summary["norm_cpu_s"]["change_wins"] == 0
    assert summary["norm_cpu_s"]["gap_exceeds_parent_iqr"] is False


def test_unpaired_run_is_left_out():
    runs = runs_of([(0.2, 1.0)], [(0.1, 1.0)])
    runs.append({"pair": 1, "side": "parent", "result": result(9.0, 9.0)})
    assert benchpairs.summarize(runs, DIRECTIONS)["norm_cpu_s"]["parent"]["median"] == 0.2


def test_parse_output_takes_last_two_lines():
    env = {"environment": {"workload": "w"}, "rounds": 3}
    out = "warming up\n" + json.dumps(env) + "\n" + json.dumps(result(0.2, 1.0)) + "\n"
    assert benchpairs.parse_output(out) == (env, result(0.2, 1.0))
    with pytest.raises(ValueError):
        benchpairs.parse_output("{}\n")


def test_main_alternates_checkouts(tmp_path, capsys):
    # Each fake checkout's run.py appends its side to a shared log and prints
    # a result whose norm_cpu_s is its seed, scaled down in the change.
    log = tmp_path / "order.txt"
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        bench = tmp_path / side / "perfbench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text(
            "import json, sys\n"
            f"open({str(log)!r}, 'a').write({side!r} + ' ' + sys.argv[sys.argv.index('--seed') + 1] + '\\n')\n"
            "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
            "print(json.dumps({'environment': {'seed': seed}}))\n"
            "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {\n"
            f"    'norm_cpu_s': {{'value': seed * {scale}, 'unit': 's'}}}}}}))\n"
        )
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", "3", "--seed", "10", "--out", str(out)]
    assert benchpairs.main(argv) == 0
    assert log.read_text().split("\n")[:-1] == [
        "parent 10", "change 10", "change 11", "parent 11", "parent 12", "change 12",
    ]
    report = json.loads(out.read_text())
    assert [(r["pair"], r["side"], r["seed"]) for r in report["runs"]][:3] == [
        (0, "parent", 10), (0, "change", 10), (1, "change", 11),
    ]
    assert report["runs"][0]["environment_line"] == {"environment": {"seed": 10}}
    cpu = report["summary"]["norm_cpu_s"]
    assert (cpu["parent"]["median"], cpu["change"]["median"], cpu["change_wins"]) == (11.0, 5.5, 3)
    assert "norm_cpu_s: 11 (IQR 1) -> 5.5 s, change better in 3/3" in capsys.readouterr().out
