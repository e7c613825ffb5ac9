#!/usr/bin/env python3
"""Compare two ``scripts/fingerprints.py --values`` outputs value by value.

Prints one line per (workload, round, part):

    <workload> <round> <part> identical
    <workload> <round> <part> max_rel <x> at <path>: <a> -> <b>

where ``x`` is the largest relative difference |a - b| / max(|a|, |b|) over
the part's numeric leaves, ``path`` the leaf where it occurs, and ``a`` and
``b`` its values before and after.  A residual is itself a rounding error, so
a rounding-level change of the arithmetic can move it by a large relative
amount; the two values show whether it stayed at its size.  A part whose
non-numeric leaves or structure differ, or that only one file holds, is
reported as ``differs at <path>`` or ``missing in BEFORE|AFTER``.  Exits 1
when any part is not identical:

    python scripts/fingerprints.py --values --seed 20120 --rounds 3 > before.txt
    (on the other checkout)                                         > after.txt
    python scripts/valuediff.py before.txt after.txt
"""

import argparse
import json
import math
import sys


class Mismatch(Exception):
    """Two parts differ in a non-numeric leaf or in structure; the message is its path."""


def read_parts(path: str) -> dict:
    parts = {}
    with open(path) as fh:
        for line in fh:
            workload, rnd, label, text = line.rstrip("\n").split(" ", 3)
            parts[(workload, rnd, label)] = json.loads(text)
    return parts


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def max_rel_diff(a, b, path: str = "") -> tuple[float, str, object, object]:
    """(largest relative difference, its path, its two values) over the numeric leaves of a and b."""
    if _is_number(a) and _is_number(b):
        return _rel_diff(float(a), float(b)), path, a, b
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = [(a[k], b[k], f"{path}.{k}") for k in sorted(a)]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif a == b:
        return 0.0, path, a, b
    else:
        raise Mismatch(path or ".")
    return max((max_rel_diff(x, y, p) for x, y, p in pairs), default=(0.0, path, a, b), key=lambda t: t[0])


def compare(before: dict, after: dict) -> list[str]:
    lines = []
    for key in sorted(before.keys() | after.keys(), key=lambda k: (k[0], int(k[1]), k[2])):
        name = " ".join(key)
        if key not in after:
            lines.append(f"{name} missing in AFTER")
        elif key not in before:
            lines.append(f"{name} missing in BEFORE")
        else:
            try:
                rel, path, a, b = max_rel_diff(before[key], after[key])
            except Mismatch as exc:
                lines.append(f"{name} differs at {exc}")
                continue
            lines.append(f"{name} identical" if rel == 0 else f"{name} max_rel {rel:.3e} at {path}: {a!r} -> {b!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("before", help="fingerprints.py --values output of the parent checkout")
    parser.add_argument("after", help="fingerprints.py --values output of the changed checkout")
    args = parser.parse_args(argv)
    lines = compare(read_parts(args.before), read_parts(args.after))
    print("\n".join(lines))
    return 0 if all(line.endswith(" identical") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
