#!/usr/bin/env python3
"""Layered benchmark of the nopivot package.

    python3 perfbench/run.py --workload tables-n64 --seed 20120 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src``, and the
benchmark fails at import when ``src`` is missing.  With
``--trace 0`` the workload repeats in rounds for ``--seconds`` seconds with
tracing off and the end-to-end metrics are reported.  With ``--trace 1`` a
fixed number of rounds runs twice, untraced and then traced, and the
per-layer metrics come from the traced pass; its tables must equal the
untraced pass's.

Set-up, rounds and parts are timed in CPU seconds of the process doing the
work, normalized by ``calibrate``: the workload is single threaded (BLAS
pinned to one thread, ``--workers 1``), so CPU time leaves out the time
other tenants of a shared machine take, and the reference kernel measured
next to each round cancels the drift of CPU speed.  Span times in the trace
are plain wall seconds.  Spans are written to ``perfbench/out/``.  Every part's
output goes through the correctness gate in ``workloads``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: on a small shared machine two
# threads made solve times noisier without making them faster.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402  (after the BLAS pin and the path above)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from nopivot import experiments, transforms  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 7
MIN_ROUNDS = 3

# Child process timing one import of the package plus one warm-up call.
_SETUP_PROBE = """
import sys, time
start = time.process_time()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].warm_up({seed})
cpu = time.process_time() - start
import calibrate
print(cpu * calibrate.REFERENCE_SECONDS / calibrate.reference_cpu())
"""

# Span names whose self time is reported as "<name>.s"; groups sum several.
SELF_TIMES = (
    "instances.hard_matrix",
    "dense.spectral_norm_estimate",
    "dense.householder_qr",
    "randgen.random_orthonormal",
    "factor.inverse_norm_estimate",
    "factor.gepp_solve_transpose",
    "factor.lu_solve",
    "factor.genp_factor",
    "factor.gepp_factor",
    "factor.block_genp_factor",
    "factor.safety_check",
    "dense.singular_values",
    "transforms.apply",
    "transforms.materialize",
    "pipeline.apply_multiplier.dense",
    "pipeline.apply_multiplier.structured",
    "pipeline.build_multiplier",
    "pipeline.preconditioned_solve",
    "pipeline.compensated_residual",
    "pipeline.refine_once",
    "experiments.run_residual_experiment",
)
SELF_TIME_GROUPS = {
    "randgen.draw": (
        "randgen.gaussian_matrix",
        "randgen.gaussian_vector",
        "randgen.gaussian_circulant",
        "randgen.gaussian_toeplitz",
        "randgen.finite_set_matrix",
    ),
    "verify.exact_integer": ("verify.exact_determinant_int", "verify.leading_principal_minors_int"),
}
CALL_COUNTS = (
    "instances.hard_matrix",
    "dense.spectral_norm_estimate",
    "factor.inverse_norm_estimate",
    "factor.lu_solve",
    "factor.genp_factor",
    "dense.singular_values",
    "transforms.apply",
    "pipeline.compensated_residual",
)


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def environment(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = {}
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def measure_setup(name: str, seed: int, samples: int = SETUP_SAMPLES) -> float:
    """Median over child processes of import plus one warm-up call, in normalized CPU seconds."""
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class RoundLog:
    """Per-part and per-round CPU times, round walls, gate counts and report fingerprints.

    ``part_norm`` and ``round_norm`` hold normalized CPU seconds, ``round_cpu``
    plain ones.
    """

    def __init__(self):
        self.part_norm = defaultdict(list)
        self.round_norm: list[float] = []
        self.round_cpu: list[float] = []
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.fingerprints: list[str] = []


def run_rounds(workload, seed: int, *, rounds: int | None = None, seconds: float | None = None) -> RoundLog:
    """Run whole rounds: exactly ``rounds`` of them, or as many as fit ``seconds``."""
    log = RoundLog()
    start = time.perf_counter()
    reference = calibrate.reference_cpu()
    r = 0
    while True:
        if rounds is not None and r >= rounds:
            break
        if rounds is None and r >= MIN_ROUNDS and time.perf_counter() - start + log.walls[-1] > seconds:
            break
        master = workloads.round_seed(seed, r)
        round_start = time.perf_counter()
        round_cpu = time.process_time()
        part_cpu = {}
        for label in workload.parts:
            t0 = time.process_time()
            report = workload.run_part(label, master)
            part_cpu[label] = time.process_time() - t0
            attempted, failed = workload.check(label, report)
            log.attempted += attempted
            log.failed += failed
            log.fingerprints.append(workloads.fingerprint(report))
        round_cpu = time.process_time() - round_cpu
        log.walls.append(time.perf_counter() - round_start)
        # The kernel runs before and after each round; their mean is the
        # machine's speed during it.
        after = calibrate.reference_cpu()
        scale = calibrate.REFERENCE_SECONDS / ((reference + after) / 2)
        reference = after
        for label, cpu in part_cpu.items():
            log.part_norm[label].append(cpu * scale)
        log.round_cpu.append(round_cpu)
        log.round_norm.append(round_cpu * scale)
        r += 1
    return log


def end_to_end(workload, seed: int, seconds: float, setup_s: float) -> tuple[dict, RoundLog]:
    workload.warm_up(seed)
    log = run_rounds(workload, seed, seconds=seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "norm_cpu_s": (statistics.median(log.round_norm), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, log


def part_metrics(workload, log: RoundLog) -> dict:
    """Median normalized CPU seconds per part, plain CPU and wall seconds per round.

    Parts of other workloads read 0.
    """
    metrics = {}
    for other in workloads.WORKLOADS.values():
        for label in other.parts:
            metrics[f"{other.metric_prefix}.{label}"] = (0.0, "s")
    for label, times in log.part_norm.items():
        metrics[f"{workload.metric_prefix}.{label}"] = (statistics.median(times), "s")
    metrics["cpu_s"] = (statistics.median(log.round_cpu), "s")
    metrics["wall_s"] = (statistics.median(log.walls), "s")
    return metrics


def per_layer(workload, seed: int, trace_path: Path | None, env: dict) -> tuple[dict, RoundLog, list[str]]:
    """Untraced pass, then traced pass, over the workload's fixed trace rounds."""
    problems = []
    workload.warm_up(seed)
    transforms.op_counter.reset()
    untraced = run_rounds(workload, seed, rounds=workload.trace_rounds)
    untraced_ops = transforms.op_counter.total

    tracer = Tracer()
    for r in range(workload.trace_rounds):
        tracer.instance_labels.update(workload.instance_labels(workloads.round_seed(seed, r)))
    transforms.op_counter.reset()
    with tracer.installed():
        traced = run_rounds(workload, seed, rounds=workload.trace_rounds)
    ops = transforms.op_counter.total

    if traced.fingerprints != untraced.fingerprints:
        problems.append("traced tables differ from untraced tables")
    if ops != untraced_ops:
        problems.append(f"transforms.ops differs between passes: {ops} traced, {untraced_ops} untraced")

    own, inclusive, calls = tracer.totals()
    metrics = {}
    for name in SELF_TIMES:
        metrics[f"{name}.s"] = (own.get(name, 0.0), "s")
    for group, names in SELF_TIME_GROUPS.items():
        metrics[f"{group}.s"] = (sum(own.get(n, 0.0) for n in names), "s")
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")

    distinct = len(tracer.instance_calls)
    attempts = tracer.instance_attempts
    metrics["instances.calls_per_instance"] = (
        sum(tracer.instance_calls.values()) / distinct if distinct else 0.0,
        "calls/instance",
    )
    metrics["instances.attempts_per_instance"] = (sum(attempts) / len(attempts) if attempts else 0.0, "attempts/inst")

    gflop = tracer.genp_flops / 1e9
    genp_time = inclusive.get("factor.genp_factor", 0.0)
    metrics["factor.genp_factor.gflop_computed"] = (gflop, "Gflop")
    metrics["factor.genp_factor.gflops"] = (gflop / genp_time if genp_time else 0.0, "Gflop/s")
    metrics["transforms.ops"] = (ops, "count")

    metrics["pipeline.preconditioned_solve.failed"] = (tracer.solve_failures, "count")
    solve_ms = [d * 1e3 for d in tracer.durations("pipeline.preconditioned_solve")]
    p50, p90 = np.percentile(solve_ms, [50, 90]) if solve_ms else (0.0, 0.0)
    metrics["pipeline.preconditioned_solve.ms_p50"] = (float(p50), "ms")
    metrics["pipeline.preconditioned_solve.ms_p90"] = (float(p90), "ms")

    overhead = sum(traced.round_norm) / sum(untraced.round_norm) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    metrics.update(part_metrics(workload, untraced))

    if trace_path is not None:
        summary = {name: value for name, (value, _) in metrics.items()}
        tracer.write(trace_path, {"environment": env, "metrics": summary, "solve_calls": len(solve_ms)})
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    return metrics, traced, problems


def result_line(metrics: dict, attempted: int, failed: int, correct: bool) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of the nopivot package.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=experiments.DEFAULT_MASTER_SEED, help="master seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed
    env = environment(args.workload, seed)

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}.json"
        metrics, log, problems = per_layer(workload, seed, trace_path, env)
        detail = {"rounds": workload.trace_rounds, "trace_file": str(trace_path.relative_to(ROOT))}
    else:
        setup_s = measure_setup(args.workload, seed)
        metrics, log = end_to_end(workload, seed, args.seconds, setup_s)
        problems = []
        detail = {"rounds": len(log.walls), "setup_samples": SETUP_SAMPLES}
    detail["failed_frac"] = log.failed / log.attempted
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, **detail}))
    print(result_line(metrics, log.attempted, log.failed, log.failed == 0 and not problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
