import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_tables.py"
spec = importlib.util.spec_from_file_location("run_tables", SCRIPT)
run_tables = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_tables)


def test_prints_the_four_tables(capsys):
    assert run_tables.main(["--dims", "16,128", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    titles = [line for line in out.splitlines() if line.startswith("### ")]
    assert [title.rpartition(": ")[2] for title in titles] == [
        "gepp",
        "genp",
        "genp+plan (left=gaussian, right=gaussian)",
        "genp+plan (left=circulant, right=circulant)",
    ]
    # gepp and plain genp: one row per size; the plans: levels 0 and 1 per size.
    rows = [line for line in out.splitlines() if line.startswith(("| 16 |", "| 128 |"))]
    assert len(rows) == 2 + 2 + 4 + 4
