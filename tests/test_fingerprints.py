import dataclasses
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fingerprints.py"
spec = importlib.util.spec_from_file_location("fingerprints", SCRIPT)
fingerprints = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprints)
workloads = fingerprints.workloads


def test_gate_scan_passes(capsys):
    assert fingerprints.main(["--gates", "--workload", "tables-n64", "--rounds", "1"]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "0 of 4 parts missed their gate\n"


def test_gate_scan_reports_a_miss(capsys, monkeypatch):
    # A bound no residual meets makes every trial of that table a miss.
    parts = workloads.WORKLOADS["tables-n64"].parts
    monkeypatch.setitem(parts, "gepp", dataclasses.replace(parts["gepp"], bound=0.0))
    assert fingerprints.main(["--gates", "--workload", "tables-n64", "--start", "2", "--rounds", "1"]) == 1
    out, err = capsys.readouterr()
    words = out.split()
    assert words[:5] == ["tables-n64", "2", "gepp", "failed", "1/8"]
    assert words[5] == "max" and 0.0 < float(words[6]) <= 1e-10
    assert len(out.splitlines()) == 1
    assert err == "1 of 4 parts missed their gate\n"


def test_fingerprint_lines(capsys):
    assert fingerprints.main(["--workload", "tables-n64", "--start", "1", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [["tables-n64", "1", t.label] for t in workloads.TABLES]
    assert all(len(line.split()[3]) == 64 for line in lines)
