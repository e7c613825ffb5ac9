import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "valuediff.py"
spec = importlib.util.spec_from_file_location("valuediff", SCRIPT)
valuediff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(valuediff)


def write_parts(path, parts):
    path.write_text("".join(f"{key} {json.dumps(value, sort_keys=True)}\n" for key, value in parts.items()))
    return str(path)


def test_reports_each_part(tmp_path, capsys):
    table = {"title": "t", "rows": [{"max": 2e-12, "failures": 0}, {"max": 1.0, "failures": 1}]}
    moved = {"title": "t", "rows": [{"max": 1e-12, "failures": 0}, {"max": 1.0 + 1e-15, "failures": 1}]}
    before = write_parts(tmp_path / "before.txt", {
        "w 0 same": table, "w 0 moved": table, "w 0 renamed": table, "w 1 gone": table,
    })
    after = write_parts(tmp_path / "after.txt", {
        "w 0 same": table, "w 0 moved": moved, "w 0 renamed": {**table, "title": "u"}, "w 2 new": table,
    })
    assert valuediff.main([before, after]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "w 0 moved max_rel 5.000e-01 at .rows[0].max: 2e-12 -> 1e-12",
        "w 0 renamed differs at .title",
        "w 0 same identical",
        "w 1 gone missing in AFTER",
        "w 2 new missing in BEFORE",
    ]


def test_identical_files_exit_zero(tmp_path, capsys):
    parts = {"w 0 p": {"rows": [{"max": float("nan"), "n": 3}]}}
    path = write_parts(tmp_path / "a.txt", parts)
    assert valuediff.main([path, path]) == 0
    assert capsys.readouterr().out == "w 0 p identical\n"


def test_non_finite_leaf_differs_infinitely():
    assert valuediff.max_rel_diff({"x": [1.0, float("inf")]}, {"x": [1.0, 2.0]})[:2] == (float("inf"), ".x[1]")
