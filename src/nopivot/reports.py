"""Result tables and their CSV / Markdown / JSON serializations."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

CSV_COLUMNS = ("dimension", "iterations", "min", "max", "mean", "std", "failures")


def aggregate_stats(values) -> tuple[float, float, float, float]:
    """(min, max, mean, sample std) of a sequence; order independent."""
    data = sorted(float(v) for v in values)
    if not data:
        return (math.nan, math.nan, math.nan, math.nan)
    count = len(data)
    mean = sum(data) / count
    if count > 1:
        var = sum((v - mean) ** 2 for v in data) / (count - 1)
    else:
        var = 0.0
    return (data[0], data[-1], mean, math.sqrt(var))


@dataclass
class StatsRow:
    """One aggregate row: residual statistics at a (dimension, iterations) cell."""

    dimension: int
    iterations: int
    min: float
    max: float
    mean: float
    std: float
    failures: int = 0

    def __post_init__(self):
        if not (math.isnan(self.mean) or self.min <= self.mean <= self.max):
            raise ValueError(f"inconsistent stats row: min={self.min} mean={self.mean} max={self.max}")
        if not (math.isnan(self.std) or self.std >= 0):
            raise ValueError("std must be nonnegative")


@dataclass
class TableReport:
    title: str
    master_seed: int
    config: dict = field(default_factory=dict)
    rows: list[StatsRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "master_seed": self.master_seed,
            "config": self.config,
            "rows": [asdict(row) for row in self.rows],
        }


def render_csv(report: TableReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        lines.append(
            f"{row.dimension},{row.iterations},{row.min:.6e},{row.max:.6e},"
            f"{row.mean:.6e},{row.std:.6e},{row.failures}"
        )
    return "\n".join(lines) + "\n"


def render_markdown(report: TableReport) -> str:
    lines = [
        f"### {report.title}",
        "",
        "| dimension | iterations | min | max | mean | std | failures |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in report.rows:
        lines.append(
            f"| {row.dimension} | {row.iterations} | {row.min:.1e} | {row.max:.1e} "
            f"| {row.mean:.1e} | {row.std:.1e} | {row.failures} |"
        )
    return "\n".join(lines) + "\n"


def render_json(report: TableReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


_RENDERERS = {"csv": render_csv, "markdown": render_markdown, "json": render_json}


def render_report(report: TableReport, fmt: str) -> str:
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(_RENDERERS)}") from None
    return renderer(report)

