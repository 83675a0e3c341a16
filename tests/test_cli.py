"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.days == 40
        assert args.donors == 25

    def test_import_requires_ixp(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["import", "x.csv"])

    def test_jobs_flag(self):
        # Only the campaign fans work out (one scenario per task).
        assert build_parser().parse_args(["campaign"]).jobs == 1
        assert build_parser().parse_args(["campaign", "--jobs", "4"]).jobs == 4
        assert build_parser().parse_args(["campaign", "-j", "-1"]).jobs == -1
        for argv in (
            ["table1", "--jobs", "2"],
            ["stream", "--jobs", "2"],
            ["import", "x.csv", "--ixp", "N", "-j", "2"],
            ["table1", "--task-timeout", "5"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_simulate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--out", "x.csv"])
        assert args.scenario == "table1"
        assert args.days == 20

    def test_simulate_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--scenario", "nope", "--out", "x.csv"]
            )


class TestCommands:
    def test_table1_runs(self, capsys):
        code = main(["table1", "--days", "16", "--donors", "8", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "RTT Δ (ms)" in out
        assert "verdict" in out

    def test_validate_runs(self, tmp_path, capsys):
        dag_file = tmp_path / "model.dag"
        dag_file.write_text("dag { c -> t\n c -> y\n t -> y }")
        code = main(
            ["validate", str(dag_file), "--treatment", "t", "--outcome", "y"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backdoor" in out

    def test_validate_unknown_node_errors(self, tmp_path, capsys):
        dag_file = tmp_path / "model.dag"
        dag_file.write_text("a -> b")
        code = main(
            ["validate", str(dag_file), "--treatment", "a", "--outcome", "zzz"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_import_runs_on_sample_data(self, capsys):
        from pathlib import Path

        sample = Path("examples/data/sample_measurements.csv")
        if not sample.exists():  # pragma: no cover - repo layout guard
            pytest.skip("sample data not present")
        code = main(
            [
                "import",
                str(sample),
                "--ixp",
                "NAPAfrica-JNB",
                "--prefix",
                "196.60.8.0/24",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "imported" in out
        assert "RTT Δ (ms)" in out

    def test_import_missing_file_errors(self, capsys):
        code = main(["import", "no_such.csv", "--ixp", "X"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_simulate_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sim.csv"
        code = main(
            [
                "simulate",
                "--scenario",
                "trombone",
                "--days",
                "6",
                "--out",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote" in out
        assert out_path.exists()
        header = out_path.read_text().splitlines()[0]
        assert "rtt_ms" in header
        assert "trigger" in header

    def test_simulate_roundtrips_through_import(self, tmp_path, capsys):
        """The simulated CSV feeds straight back into the import pipeline."""
        out_path = tmp_path / "sim.csv"
        assert main(["simulate", "--days", "16", "--out", str(out_path)]) == 0
        wrote = capsys.readouterr().out
        n_written = int(wrote.split()[1])
        code = main(["import", str(out_path), "--ixp", "NAPAfrica-JNB"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"imported {n_written} measurements" in out


class TestPowerCommand:
    def test_feasible_design_runs(self, capsys):
        code = main(["power", "4.0", "--donors", "15", "--simulations", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "power=" in out

    def test_infeasible_design_exits_nonzero(self, capsys):
        code = main(["power", "4.0", "--donors", "4", "--simulations", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "donors" in out
