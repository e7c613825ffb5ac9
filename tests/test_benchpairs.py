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


def fake_checkouts(tmp_path, body=""):
    """Parent and change checkouts whose run.py logs its side and seed, then
    prints ``rounds`` = seed and ``norm_cpu_s`` = seed, halved in the change.
    ``body`` runs first, with ``side`` and ``seed`` set."""
    log = tmp_path / "order.txt"
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        bench = tmp_path / side / "perfbench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text(
            "import json, sys\n"
            f"side = {side!r}\n"
            "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
            f"open({str(log)!r}, 'a').write(side + ' ' + str(seed) + '\\n')\n"
            f"{body}"
            "correct = not (side == 'change' and seed == 11)\n"
            "print(json.dumps({'environment': {'seed': seed}, 'rounds': seed}))\n"
            "print(json.dumps({'correct': correct, 'attempted': 4, 'failed': int(not correct), 'metrics': {\n"
            f"    'norm_cpu_s': {{'value': seed * {scale}, 'unit': 's'}}}}}}))\n"
        )
    return log


def bench_argv(tmp_path, out, pairs=3):
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", str(pairs), "--seed", "10", "--out", str(out)]


def test_main_alternates_checkouts(tmp_path, capsys):
    log = fake_checkouts(tmp_path)
    out = tmp_path / "bench.json"
    assert benchpairs.main(bench_argv(tmp_path, out)) == 0
    assert log.read_text().split("\n")[:-1] == [
        "parent 10", "change 10", "change 11", "parent 11", "parent 12", "change 12",
    ]
    report = json.loads(out.read_text())
    assert [(r["pair"], r["side"], r["seed"]) for r in report["runs"]][:3] == [
        (0, "parent", 10), (0, "change", 10), (1, "change", 11),
    ]
    assert report["runs"][0]["environment_line"] == {"environment": {"seed": 10}, "rounds": 10}
    cpu = report["summary"]["norm_cpu_s"]
    assert (cpu["parent"]["median"], cpu["change"]["median"], cpu["change_wins"]) == (11.0, 5.5, 3)
    printed = capsys.readouterr().out
    assert "norm_cpu_s: 11 (IQR 1) -> 5.5 s, change better in 3/3" in printed
    assert "rounds reached: parent 10..12, change 10..12" in printed


def test_incorrect_run_is_listed(tmp_path, capsys):
    fake_checkouts(tmp_path)
    out = tmp_path / "bench.json"
    benchpairs.main(bench_argv(tmp_path, out))
    report = json.loads(out.read_text())
    assert report["incorrect_runs"] == [
        {"pair": 1, "side": "change", "seed": 11, "rounds": 11, "failed": 1, "attempted": 4},
    ]
    assert report["rounds_reached"] == {"parent": [10, 12], "change": [10, 12]}
    assert "correct false: pair 1 change seed 11 rounds 11 failed 1/4" in capsys.readouterr().out


def test_failed_run_is_recorded_and_the_series_goes_on(tmp_path, capsys):
    body = (
        "if side == 'parent' and seed == 11:\n"
        "    sys.stderr.write('\\n'.join(f'line {k}' for k in range(30)) + '\\n')\n"
        "    sys.exit(3)\n"
    )
    log = fake_checkouts(tmp_path, body)
    out = tmp_path / "bench.json"
    assert benchpairs.main(bench_argv(tmp_path, out)) == 0
    assert len(log.read_text().split("\n")[:-1]) == 6
    report = json.loads(out.read_text())
    failed = [r for r in report["runs"] if "exit_code" in r]
    assert failed == [{
        "pair": 1, "side": "parent", "seed": 11, "exit_code": 3,
        "stderr_tail": [f"line {k}" for k in range(30 - benchpairs.STDERR_TAIL, 30)],
    }]
    # Pair 1 lacks its parent run, so only pairs 0 and 2 enter the statistics.
    assert report["summary"]["norm_cpu_s"]["pairs"] == 2
    assert report["rounds_reached"] == {"parent": [10, 12], "change": [10, 12]}
    assert "exit code 3: pair 1 parent seed 11: line 29" in capsys.readouterr().out
