import json
import math

import pytest

from nopivot import reports


def make_report(rows=None):
    return reports.TableReport(
        title="demo",
        master_seed=99,
        config={"method": "gepp"},
        rows=rows if rows is not None else [],
    )


class TestAggregateStats:
    def test_values(self):
        lo, hi, mean, std = reports.aggregate_stats([2.0, 4.0, 6.0])
        assert (lo, hi, mean) == (2.0, 6.0, 4.0)
        assert std == pytest.approx(2.0)  # sample std, divisor n - 1

    def test_order_independent(self):
        assert reports.aggregate_stats([3.0, 1.0, 2.0]) == reports.aggregate_stats([1.0, 2.0, 3.0])

    def test_single_value(self):
        lo, hi, mean, std = reports.aggregate_stats([5.0])
        assert (lo, hi, mean, std) == (5.0, 5.0, 5.0, 0.0)

    def test_empty(self):
        assert all(math.isnan(v) for v in reports.aggregate_stats([]))


class TestStatsRow:
    def test_validation(self):
        with pytest.raises(ValueError):
            reports.StatsRow(dimension=8, iterations=0, min=2.0, max=1.0, mean=1.5, std=0.1)
        with pytest.raises(ValueError):
            reports.StatsRow(dimension=8, iterations=0, min=1.0, max=2.0, mean=1.5, std=-0.1)

    def test_nan_row_allowed(self):
        row = reports.StatsRow(8, 0, math.nan, math.nan, math.nan, math.nan, failures=3)
        assert row.failures == 3


class TestRenderers:
    def test_csv_header_exact(self):
        text = reports.render_csv(make_report())
        assert text == "dimension,iterations,min,max,mean,std,failures\n"

    def test_csv_row(self):
        row = reports.StatsRow(64, 1, 1e-15, 1e-12, 1e-13, 2e-13, failures=2)
        lines = reports.render_csv(make_report([row])).splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "64" and fields[1] == "1" and fields[-1] == "2"

    def test_markdown_row_count(self):
        rows = [
            reports.StatsRow(64, 0, 1e-15, 1e-12, 1e-13, 2e-13),
            reports.StatsRow(64, 1, 1e-16, 1e-13, 1e-14, 2e-14),
        ]
        text = reports.render_markdown(make_report(rows))
        table_rows = [ln for ln in text.splitlines() if ln.startswith("| 64")]
        assert len(table_rows) == 2

    def test_json_round_trip(self):
        row = reports.StatsRow(64, 0, 1.25e-15, 3.5e-12, 4.125e-13, 2e-13, failures=1)
        payload = json.loads(reports.render_json(make_report([row])))
        assert payload["master_seed"] == 99
        assert payload["config"] == {"method": "gepp"}
        got = payload["rows"][0]
        assert got == {
            "dimension": 64,
            "iterations": 0,
            "min": 1.25e-15,
            "max": 3.5e-12,
            "mean": 4.125e-13,
            "std": 2e-13,
            "failures": 1,
        }

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            reports.render_report(make_report(), "xml")
