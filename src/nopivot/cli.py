"""Command-line driver: experiments, verification suites, generation, solving.

Exit codes: 0 when everything passed, 1 when any verification or solve
failed, 2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import dense, experiments, instances, pipeline, verify
from .errors import NopivotError, ShapeError
from .randgen import FiniteSet, Seed, parse_seed
from .reports import render_report

_MULTIPLIER_CHOICES = ("none",) + pipeline.MULTIPLIER_KINDS


def _parse_dims(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _parse_delta(text: str) -> FiniteSet:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return FiniteSet(tuple(range(int(lo), int(hi) + 1)))
    return FiniteSet(tuple(int(tok) for tok in text.split(",") if tok))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nopivot",
        description="Randomized multipliers for Gaussian elimination without pivoting",
    )
    parser.add_argument("--seed", type=parse_seed, default=experiments.DEFAULT_MASTER_SEED,
                        help="master seed, decimal or hex (default %(default)s)")
    parser.add_argument("--trials", type=int, default=100, help="trials per configuration")
    parser.add_argument("--dims", type=_parse_dims, default=(64, 256),
                        help="comma-separated dimensions, powers of two (default 64,256)")
    parser.add_argument("--format", choices=("csv", "markdown", "json"), default="markdown")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="residual statistics over hard instances")
    exp.add_argument("--method", choices=experiments.METHODS, default="gepp")
    exp.add_argument("--left", choices=_MULTIPLIER_CHOICES, default="gaussian")
    exp.add_argument("--right", choices=_MULTIPLIER_CHOICES, default="gaussian")
    exp.add_argument("--refine", type=int, default=0, help="refinement steps (genp+plan)")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=("spectral", "tails", "finite-set", "safety", "perturbation"))
    ver.add_argument("--instances", type=int, default=1000,
                     help="random instances for the spectral sweep")
    ver.add_argument("--samples", type=int, default=10_000, help="Monte-Carlo samples (tails)")
    ver.add_argument("--draws", type=int, default=100_000, help="sampled matrices (finite-set)")
    ver.add_argument("--sizes", type=int, default=12, help="max matrix size (spectral/perturbation)")
    ver.add_argument("--k", type=int, default=3, help="matrix size (finite-set)")
    ver.add_argument("--delta", type=_parse_delta, default=FiniteSet(tuple(range(10))),
                     help="finite set, e.g. '0..9' or '1,2,3'")
    ver.add_argument("--n", type=int, default=16, help="matrix size (safety)")

    gen = sub.add_parser("generate", help="write hard instances in the text format")
    gen.add_argument("--n", type=int, default=64)
    gen.add_argument("--h", type=int, default=instances.DEFAULT_NULLITY,
                     help="nullity of the leading half block")
    gen.add_argument("--count", type=int, default=1)

    sol = sub.add_parser("solve", help="solve one system from matrix/rhs files")
    sol.add_argument("--matrix", required=True)
    sol.add_argument("--rhs", required=True)
    sol.add_argument("--left", choices=_MULTIPLIER_CHOICES, default="gaussian")
    sol.add_argument("--right", choices=_MULTIPLIER_CHOICES, default="gaussian")
    sol.add_argument("--refine", type=int, default=0)
    sol.add_argument("--json", action="store_true", help="emit the outcome as JSON")
    sol.add_argument("--emit-solution", action="store_true")
    return parser


def _write(args, text: str) -> None:
    """Write a command's output to ``--out`` when given, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_or_none(value: float) -> float | None:
    """JSON (RFC 8259) has no Infinity or NaN; write null instead."""
    return value if math.isfinite(value) else None


def _cmd_experiment(args) -> int:
    plan = None
    if args.method == "genp+plan":
        plan = pipeline.PreconditionPlan(left=args.left, right=args.right, refinement_steps=args.refine)
    config = experiments.ExperimentConfig(
        dims=args.dims,
        trials=args.trials,
        method=args.method,
        plan=plan,
        master_seed=args.seed,
    )
    report = experiments.run_residual_experiment(config, workers=args.workers)
    _write(args, render_report(report, args.format))
    return 0


def _cmd_verify(args) -> int:
    seed = Seed(args.seed)
    if args.suite == "spectral":
        report = verify.check_spectral_bounds(seed, trials=args.instances, max_size=args.sizes)
    elif args.suite == "tails":
        report = verify.check_tail_bounds(seed, samples=args.samples)
    elif args.suite == "finite-set":
        report = verify.check_finite_set_singularity(
            seed, k=args.k, delta=args.delta, trials=args.draws
        )
    elif args.suite == "safety":
        report = verify.check_safety_bounds(seed, trials=args.trials, n=args.n)
    else:
        report = verify.check_perturbation(seed, trials=args.trials, max_size=args.sizes)
    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    else:
        text = "\n".join([f"# {report.title} (seed {args.seed})", *report.lines()]) + "\n"
    _write(args, text)
    return 0 if report.passed else 1


def _cmd_generate(args) -> int:
    import os

    target = args.out or "."
    os.makedirs(target, exist_ok=True)
    for i in range(args.count):
        inst = instances.hard_matrix(Seed(args.seed).derive("generate", args.n, i), args.n, args.h)
        path = os.path.join(target, f"instance-n{args.n}-h{args.h}-{i}.txt")
        instances.write_instance(inst, path)
        sys.stdout.write(path + "\n")
    return 0


def _cmd_solve(args) -> int:
    a = dense.read_matrix(args.matrix)
    b = dense.read_matrix(args.rhs)
    if b.shape != (a.shape[0], 1):
        raise ShapeError(f"right-hand side must be {a.shape[0]}-by-1, got {b.shape[0]}-by-{b.shape[1]}")
    b = b[:, 0]
    plan = pipeline.PreconditionPlan(left=args.left, right=args.right, refinement_steps=args.refine)
    outcome = pipeline.preconditioned_solve(a, b, plan, Seed(args.seed).derive("solve"))
    if args.json:
        payload = {
            "n": int(a.shape[0]),
            "seed": args.seed,
            "plan": {"left": plan.left, "right": plan.right, "refinement_steps": plan.refinement_steps},
            "relative_residual": _finite_or_none(outcome.relative_residual),
            "residual_history": [_finite_or_none(r) for r in outcome.residual_history],
            "failure": None
            if outcome.failure is None
            else {"kind": outcome.failure.kind, "step": outcome.failure.step, "message": outcome.failure.message},
            "safety": None
            if outcome.safety is None
            else {
                "u_growth": _finite_or_none(outcome.safety.u_growth),
                "min_pivot": _finite_or_none(float(np.min(outcome.safety.pivot_magnitudes))),
                "max_pivot": _finite_or_none(float(np.max(outcome.safety.pivot_magnitudes))),
            },
        }
        if args.emit_solution and outcome.solution is not None:
            payload["solution"] = [float(v) for v in outcome.solution]
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        lines = [f"relative residual: {outcome.relative_residual:.6e}"]
        lines.append("history: " + " ".join(f"{r:.6e}" for r in outcome.residual_history))
        if outcome.failure is not None:
            lines.append(f"failure: {outcome.failure.kind} at step {outcome.failure.step}")
        if args.emit_solution and outcome.solution is not None:
            lines.append("solution: " + " ".join(f"{v:.17e}" for v in outcome.solution))
        text = "\n".join(lines) + "\n"
    _write(args, text)
    return 0 if outcome.failure is None else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "verify": _cmd_verify,
        "generate": _cmd_generate,
        "solve": _cmd_solve,
    }
    try:
        return handlers[args.command](args)
    except (NopivotError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
