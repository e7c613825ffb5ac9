#!/usr/bin/env python3
"""Alternate ``perfbench/run.py --trace 0`` between two checkouts and summarize.

    python scripts/benchpairs.py --parent ../before --change ../after \\
        --workload tables-n64 --pairs 10 --seed 41001 --out BENCH_tables-n64.json

Pair i runs both checkouts at seed S + i, the parent first in even pairs and
the change first in odd ones, each as ``python3 perfbench/run.py --workload W
--seed S+i --trace 0`` with the checkout as its working directory, one run at
a time.  Compare fresh ``git archive`` checkouts at paths of equal length: the
end-to-end metrics move a little with the checkout directory alone.

The JSON written to ``--out`` holds every run's environment line and result
line, and per metric of ``BENCHMARK.json`` that the result lines carry: the
median, q1 and q3 of each side, the pairs in which the change read better,
the median's relative change, and whether the gap between the medians, in
the better direction, exceeds the parent's interquartile range.  It also
holds each side's range of rounds reached and every run whose result reads
``correct: false``, with its seed, rounds and failed/attempted.  A run that
exits non-zero is kept with its exit code and the tail of its standard error,
its pair is left out of the statistics, and the series goes on.  A one-line
summary per metric, the rounds, the incorrect runs and the failed runs go to
standard output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
STDERR_TAIL = 20  # lines of standard error kept from a run that exits non-zero


def metric_directions(benchmark: dict) -> dict:
    """``better`` ("lower" or "higher") of every metric ``BENCHMARK.json`` names."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list[dict], directions: dict) -> dict:
    """Per-metric statistics of paired runs, each ``{"pair", "side", "result"}``."""
    by_pair = {}
    for run in runs:
        if "result" in run:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [by_pair[p] for p in sorted(by_pair) if set(by_pair[p]) == set(SIDES)]
    summary = {}
    for name, better in directions.items():
        if not pairs or not all(name in pair[side] for pair in pairs for side in SIDES):
            continue
        values = {side: [pair[side][name]["value"] for pair in pairs] for side in SIDES}
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        summary[name] = {
            "better": better,
            "unit": pairs[0]["parent"][name]["unit"],
            **stats,
            "change_wins": int(wins),
            "pairs": len(pairs),
            "median_rel_change": (change - parent) / parent if parent else None,
            "gap_exceeds_parent_iqr": sign * (parent - change) > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return summary


def rounds_reached(runs: list[dict]) -> dict:
    """``[fewest, most]`` rounds of each side's runs that printed an environment line."""
    reached = {}
    for side in SIDES:
        rounds = [run["environment_line"]["rounds"] for run in runs if run["side"] == side and "result" in run]
        if rounds:
            reached[side] = [min(rounds), max(rounds)]
    return reached


def incorrect_runs(runs: list[dict]) -> list[dict]:
    """Runs whose result line reads ``correct: false``: where, rounds, failed/attempted."""
    return [
        {
            "pair": run["pair"],
            "side": run["side"],
            "seed": run["seed"],
            "rounds": run["environment_line"]["rounds"],
            "failed": run["result"]["failed"],
            "attempted": run["result"]["attempted"],
        }
        for run in runs
        if "result" in run and not run["result"]["correct"]
    ]


def parse_output(stdout: str) -> tuple[dict, dict]:
    """(environment line, result line) of one ``perfbench/run.py`` run: its last two lines."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"expected an environment line and a result line, got {stdout!r}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """``environment_line`` and ``result`` of one run, or its ``exit_code`` and ``stderr_tail``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        return {"exit_code": out.returncode, "stderr_tail": out.stderr.splitlines()[-STDERR_TAIL:]}
    env_line, result = parse_output(out.stdout)
    return {"environment_line": env_line, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default %(default)s)")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    directions = metric_directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            run = {"pair": pair, "side": side, "seed": seed, **run_once(checkouts[side], args.workload, seed)}
            runs.append(run)
            status = f"correct {run['result']['correct']}" if "result" in run else f"exit code {run['exit_code']}"
            print(f"pair {pair} {side} seed {seed} {status}", file=sys.stderr, flush=True)
    summary = summarize(runs, directions)
    reached = rounds_reached(runs)
    incorrect = incorrect_runs(runs)
    exited = [run for run in runs if "exit_code" in run]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "runs": runs,
        "summary": summary,
        "rounds_reached": reached,
        "incorrect_runs": incorrect,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("rounds reached: " + ", ".join(f"{side} {lo}..{hi}" for side, (lo, hi) in reached.items()))
    for run in incorrect:
        print(
            f"correct false: pair {run['pair']} {run['side']} seed {run['seed']} rounds {run['rounds']} "
            f"failed {run['failed']}/{run['attempted']}"
        )
    for run in exited:
        last = run["stderr_tail"][-1] if run["stderr_tail"] else ""
        print(f"exit code {run['exit_code']}: pair {run['pair']} {run['side']} seed {run['seed']}: {last}")
    for name, s in summary.items():
        print(
            f"{name}: {s['parent']['median']:.4g} (IQR {s['parent']['q3'] - s['parent']['q1']:.2g}) -> "
            f"{s['change']['median']:.4g} {s['unit']}, change better in {s['change_wins']}/{s['pairs']}, "
            f"gap exceeds parent IQR: {s['gap_exceeds_parent_iqr']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
