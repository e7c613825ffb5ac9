#!/usr/bin/env python3
"""Print a sha256 of every benchmark part's output, one line per part.

Runs every part of the three `perfbench` workloads (tables-n64, tables-n256,
verify-desk) for ``--rounds`` rounds on the benchmark's round seeds and
prints ``<workload> <round> <part> <sha256>`` of ``workloads.fingerprint``.
Run it on two checkouts and diff the outputs to check that a change keeps
every table and suite byte-identical:

    python scripts/fingerprints.py --seed 20120 --rounds 3 > after.txt

With ``--values`` each line ends in the part's canonical JSON instead of its
sha256; ``scripts/valuediff.py`` compares two such files value by value.

With ``--gates`` the script scans for benchmark gate misses instead: it
prints ``<workload> <round> <part> failed <failed>/<attempted> max <final
max>`` for every part that fails ``workload.check`` (the final max is that of
a table's last row, ``-`` for a suite), a count on standard error, and exits
1 if any part failed.  ``--workload`` and ``--start`` pick the workload and
the first round:

    python scripts/fingerprints.py --gates --workload tables-n256 --rounds 300

The package and ``perfbench/workloads.py`` are imported from this script's
own checkout, and BLAS is pinned to one thread as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=20120, help="benchmark seed (default %(default)s)")
    parser.add_argument("--rounds", type=int, default=3, help="rounds per workload (default %(default)s)")
    parser.add_argument("--start", type=int, default=0, help="first round (default %(default)s)")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="run only this workload")
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--values", action="store_true", help="print each part's canonical JSON, not its sha256")
    output.add_argument("--gates", action="store_true", help="print only the parts that fail the benchmark's gate")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.start < 0:
        parser.error("--start must be >= 0")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    scanned = missed = 0
    for name in names:
        workload = workloads.WORKLOADS[name]
        for r in range(args.start, args.start + args.rounds):
            master = workloads.round_seed(args.seed, r)
            for label in workload.parts:
                report = workload.run_part(label, master)
                if args.gates:
                    attempted, failed = workload.check(label, report)
                    scanned += 1
                    if failed:
                        missed += 1
                        final = report.rows[-1].max if isinstance(workload, workloads.TableWorkload) else "-"
                        print(f"{name} {r} {label} failed {failed}/{attempted} max {final}", flush=True)
                    continue
                text = workloads.fingerprint(report)
                if not args.values:
                    text = hashlib.sha256(text.encode()).hexdigest()
                print(f"{name} {r} {label} {text}", flush=True)
    if args.gates:
        print(f"{missed} of {scanned} parts missed their gate", file=sys.stderr)
    return int(missed > 0)


if __name__ == "__main__":
    sys.exit(main())
