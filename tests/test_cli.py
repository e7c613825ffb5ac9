import json
import math

import numpy as np
import pytest

from nopivot import cli, dense, instances, verify
from nopivot.randgen import FiniteSet, Seed


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_hex_seed(self):
        parser = cli.build_parser()
        args = parser.parse_args(["--seed", "0x10", "verify", "tails"])
        assert args.seed == 16

    def test_delta_parsing(self):
        parser = cli.build_parser()
        args = parser.parse_args(["verify", "finite-set", "--delta", "0..4"])
        assert args.delta == FiniteSet((0, 1, 2, 3, 4))
        args = parser.parse_args(["verify", "finite-set", "--delta", "1,5,9"])
        assert args.delta == FiniteSet((1, 5, 9))


class TestExperimentCommand:
    def test_csv_output(self, capsys):
        code = cli.main(
            ["--seed", "21", "--trials", "3", "--dims", "16", "--format", "csv",
             "experiment", "--method", "gepp"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("dimension,iterations,min,max,mean,std,failures")
        assert out.splitlines()[1].startswith("16,0,")

    def test_json_to_file(self, tmp_path):
        target = tmp_path / "report.json"
        code = cli.main(
            ["--seed", "21", "--trials", "2", "--dims", "16", "--format", "json",
             "--out", str(target), "experiment", "--method", "genp"]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["master_seed"] == 21
        assert payload["rows"][0]["dimension"] == 16

    def test_plan_options(self, capsys):
        code = cli.main(
            ["--seed", "21", "--trials", "2", "--dims", "16", "--format", "csv",
             "experiment", "--method", "genp+plan", "--left", "circulant",
             "--right", "none", "--refine", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # header + two refinement levels


class TestVerifyCommand:
    def test_finite_set_passes(self, capsys):
        code = cli.main(["--seed", "3", "verify", "finite-set", "--k", "2", "--draws", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nonsingular-frequency" in out
        assert "bound=" in out and "empirical=" in out and "margin=" in out

    def test_spectral_smoke(self, capsys):
        code = cli.main(["--seed", "3", "verify", "spectral", "--instances", "60", "--sizes", "8"])
        assert code == 0
        assert "product-lower-bound-left" in capsys.readouterr().out

    def test_safety_smoke(self, capsys):
        code = cli.main(["--seed", "3", "--trials", "3", "verify", "safety", "--n", "8"])
        assert code == 0

    def test_perturbation_smoke(self, capsys):
        code = cli.main(["--seed", "3", "--trials", "5", "verify", "perturbation"])
        assert code == 0

    def test_json_format(self, capsys):
        code = cli.main(["--seed", "3", "--format", "json",
                         "verify", "finite-set", "--k", "2", "--draws", "2000"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_failing_report_exits_one(self, monkeypatch, capsys):
        failing = verify.VerificationReport(title="forced", seed=0)
        failing.checks.append(
            verify.BoundCheck("forced", {}, bound=0.0, empirical=1.0, margin=0.0, samples=1, passed=False)
        )
        monkeypatch.setattr(verify, "check_tail_bounds", lambda *a, **k: failing)
        code = cli.main(["verify", "tails"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestGenerateAndSolve:
    def test_generate_then_read(self, tmp_path, capsys):
        code = cli.main(
            ["--seed", "5", "--out", str(tmp_path), "generate", "--n", "16", "--h", "4", "--count", "2"]
        )
        assert code == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == 2
        inst = instances.read_instance(listed[0])
        assert inst.n == 16 and inst.h == 4
        assert inst.matrix.shape == (16, 16)

    def test_solve_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((8, 8))
        a = g.T @ g + 8 * np.eye(8)
        b = rng.standard_normal(8)
        dense.write_matrix(a, tmp_path / "a.txt")
        dense.write_matrix(b[:, None], tmp_path / "b.txt")
        code = cli.main(
            ["--seed", "5", "solve", "--matrix", str(tmp_path / "a.txt"),
             "--rhs", str(tmp_path / "b.txt"), "--left", "none", "--right", "none",
             "--json", "--emit-solution"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relative_residual"] <= 1e-10
        assert payload["failure"] is None
        x = np.array(payload["solution"])
        assert np.linalg.norm(a @ x - b) <= 1e-9

    def test_solve_failure_exits_one(self, tmp_path, capsys):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.ones(2)
        dense.write_matrix(a, tmp_path / "a.txt")
        dense.write_matrix(b[:, None], tmp_path / "b.txt")
        code = cli.main(
            ["solve", "--matrix", str(tmp_path / "a.txt"), "--rhs", str(tmp_path / "b.txt"),
             "--left", "none", "--right", "none"]
        )
        assert code == 1
        assert "failure" in capsys.readouterr().out

    def test_solve_overflow_exits_one(self, tmp_path, capsys):
        # Plain GENP on this system overflows; that is a failed solve, not a usage error.
        dense.write_matrix(np.array([[1e-300, 1.0], [1.0, 1.0]]), tmp_path / "a.txt")
        dense.write_matrix(np.array([[1e10], [1.0]]), tmp_path / "b.txt")
        argv = ["solve", "--matrix", str(tmp_path / "a.txt"), "--rhs", str(tmp_path / "b.txt"),
                "--left", "none", "--right", "none"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(argv) == 1
            assert "failure: NonFiniteSolutionError" in capsys.readouterr().out
            assert cli.main(argv + ["--json", "--emit-solution"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failure"]["kind"] == "NonFiniteSolutionError"
        assert payload["relative_residual"] is None
        assert payload["residual_history"] == []
        assert "solution" not in payload

    def test_solve_with_overflowing_residual_row(self, tmp_path, capsys):
        # The exact GENP solution's residual row sum overflows a partial fsum.
        dense.write_matrix(np.array([[1.0, 1.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), tmp_path / "a.txt")
        dense.write_matrix(np.array([[0.5e308], [1e308], [1.5e308]]), tmp_path / "b.txt")
        argv = ["solve", "--matrix", str(tmp_path / "a.txt"), "--rhs", str(tmp_path / "b.txt"),
                "--left", "none", "--right", "none", "--emit-solution"]
        assert cli.main(argv) == 0
        assert "relative residual: 0.000000e+00" in capsys.readouterr().out
        assert cli.main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failure"] is None
        assert payload["relative_residual"] == 0.0
        assert payload["solution"] == [1e308, 1e308, 1.5e308]

    @pytest.mark.parametrize(
        "a, b, kind",
        [([[1e-300, 1.0], [1.0, 1.0]], [1e10, 1.0], "NonFiniteSolutionError"),
         ([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0], "ZeroPivotError")],
        ids=["overflow", "zero-pivot"],
    )
    def test_solve_failure_json_is_strict(self, a, b, kind, tmp_path, capsys):
        # RFC 8259 has no Infinity or NaN: a failed solve's residual is null.
        dense.write_matrix(np.array(a), tmp_path / "a.txt")
        dense.write_matrix(np.array(b)[:, None], tmp_path / "b.txt")
        argv = ["solve", "--matrix", str(tmp_path / "a.txt"), "--rhs", str(tmp_path / "b.txt"),
                "--left", "none", "--right", "none", "--json"]
        assert cli.main(argv) == 1

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["failure"]["kind"] == kind
        assert payload["relative_residual"] is None

    def test_solve_json_infinite_growth_is_null(self, tmp_path, capsys):
        # U overflows to -inf while the solution [0, -0] stays finite: a passed
        # solve whose u_growth and largest pivot are infinite.
        dense.write_matrix(np.array([[1e-300, 1e10], [1.0, 1.0]]), tmp_path / "a.txt")
        dense.write_matrix(np.array([[0.0], [1.0]]), tmp_path / "b.txt")
        argv = ["solve", "--matrix", str(tmp_path / "a.txt"), "--rhs", str(tmp_path / "b.txt"),
                "--left", "none", "--right", "none", "--json"]
        assert cli.main(argv) == 0
        safety = json.loads(capsys.readouterr().out)["safety"]
        assert safety == {"u_growth": None, "min_pivot": 1e-300, "max_pivot": None}

    def test_solve_json_reports_u_growth(self, tmp_path, capsys):
        dense.write_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]), tmp_path / "a.txt")
        dense.write_matrix(np.ones((2, 1)), tmp_path / "b.txt")
        code = cli.main(
            ["solve", "--matrix", str(tmp_path / "a.txt"), "--rhs", str(tmp_path / "b.txt"),
             "--left", "none", "--right", "none", "--json"]
        )
        assert code == 0
        safety = json.loads(capsys.readouterr().out)["safety"]
        assert safety == {"u_growth": 0.5, "min_pivot": 1.0, "max_pivot": 2.0}

    def test_solve_rhs_must_be_one_column(self, tmp_path, capsys):
        # An instance file holds the n-by-n matrix first: read as a rhs it is not n-by-1.
        assert cli.main(["--out", str(tmp_path), "generate", "--n", "8", "--h", "2"]) == 0
        path = capsys.readouterr().out.strip()
        code = cli.main(["solve", "--matrix", path, "--rhs", path, "--left", "none", "--right", "none"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: right-hand side must be 8-by-1, got 8-by-8\n"

    def test_solve_zero_rhs(self, tmp_path, capsys):
        dense.write_matrix(np.array([[2.0, 1.0], [1.0, 1.0]]), tmp_path / "a.txt")
        dense.write_matrix(np.zeros((2, 1)), tmp_path / "b.txt")
        argv = ["solve", "--matrix", str(tmp_path / "a.txt"), "--rhs", str(tmp_path / "b.txt")]
        assert cli.main(argv) == 0
        assert "relative residual: 0.000000e+00" in capsys.readouterr().out
        assert cli.main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["relative_residual"], payload["failure"]) == (0.0, None)

    def test_missing_file_exits_two(self, capsys):
        code = cli.main(["solve", "--matrix", "/nonexistent.txt", "--rhs", "/nonexistent.txt"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_refinement_history(self, tmp_path, capsys):
        inst = instances.hard_matrix(Seed(6), 16, 4)
        dense.write_matrix(inst.matrix, tmp_path / "a.txt")
        dense.write_matrix(inst.rhs[:, None], tmp_path / "b.txt")
        code = cli.main(
            ["--seed", "6", "solve", "--matrix", str(tmp_path / "a.txt"),
             "--rhs", str(tmp_path / "b.txt"), "--refine", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["residual_history"]) == 3
        assert 0.0 < payload["safety"]["u_growth"] < math.inf


class TestUsageErrors:
    """Invalid arguments that argparse accepts end in exit code 2 and one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--dims", "48", "experiment"],
            ["--trials", "0", "experiment"],
            ["--trials", "1", "--dims", "8", "experiment"],
            ["verify", "safety", "--n", "15"],
            ["verify", "tails", "--samples", "10"],
            ["solve", "--matrix", "{entry}", "--rhs", "{rhs}"],
            ["solve", "--matrix", "{header}", "--rhs", "{rhs}"],
        ],
        ids=["dims-48", "trials-0", "nullity-at-n8", "safety-n15", "tails-samples-10",
             "matrix-entry", "matrix-header"],
    )
    def test_exits_two(self, argv, tmp_path, capsys):
        files = {
            "entry": "2 2\n1.0 2.0\n3.0 x\n",
            "header": "two 2\n1.0 2.0\n3.0 4.0\n",
            "rhs": "2 1\n1.0\n1.0\n",
        }
        for name, text in files.items():
            (tmp_path / f"{name}.txt").write_text(text)
        argv = [tok.format(**{k: str(tmp_path / f"{k}.txt") for k in files}) for tok in argv]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
