"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "10"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "4", "--workers", "0"],
            ["tables", "--workers", "0"],
            ["report", "--workers", "-1"],
            ["families", "--workers", "0"],
            ["faults", "--workers", "-3"],
            ["trustfaults", "--workers", "0"],
        ],
    )
    def test_workers_must_be_positive(self, argv, capsys):
        # Regression: 0/negative --workers used to reach the executor and
        # crash there; argparse now rejects it up front.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "expected a positive integer" in capsys.readouterr().err


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "requested TL" in out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "scp" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table", "3"]) == 0
        assert "1000 Mbps" in capsys.readouterr().out

    def test_scheduling_table_small(self, capsys):
        assert main(["table", "4", "--replications", "2"]) == 0
        out = capsys.readouterr().out
        assert "Using trust" in out
        assert "Improvement" in out

    def test_sfi(self, capsys):
        assert main(["sfi"]) == 0
        assert "MiSFIT" in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        assert "trust level table" in capsys.readouterr().out

    def test_theorem(self, capsys):
        assert main(["theorem", "mct", "--trials", "3"]) == 0
        assert "makespan dominance" in capsys.readouterr().out

    def test_run(self, capsys):
        assert main(["run", "--heuristic", "mct", "--tasks", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "trust-aware" in out
        assert "improvement" in out

    def test_run_batch_heuristic(self, capsys):
        assert main(["run", "--heuristic", "min-min", "--tasks", "10"]) == 0
        assert "improvement" in capsys.readouterr().out

    def test_heuristics_listing(self, capsys):
        assert main(["heuristics"]) == 0
        out = capsys.readouterr().out
        assert "mct" in out and "[batch ]" in out and "[online]" in out

    def test_families_prints_one_row_per_heuristic(self, capsys):
        argv = ["families", "--replications", "1", "--tasks", "10", "--workers", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # Title, header and rule lines, then one row per heuristic.
        names = [line.split("|")[0].strip() for line in out.strip().splitlines()[3:]]
        assert len(names) == 9
        assert "min-min" in names and "sufferage" in names

    def test_save_and_replay_scenario(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        assert main(["save-scenario", str(path), "--tasks", "15", "--seed", "2"]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["replay", str(path), "--heuristic", "sufferage"]) == 0
        out = capsys.readouterr().out
        assert "improvement" in out

    def test_profile_paper_scenario(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "prof"
        assert main([
            "profile", "paper",
            "--heuristic", "min-min", "--tasks", "12", "--seed", "3",
            "--output-dir", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "Metrics:" in out
        assert "sched.map_latency_s.min-min" in out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["schema"] == "repro.obs/manifest-v1"
        assert manifest["results"]["completed"] == 12
        assert (out_dir / "trace.jsonl").exists()
        assert (out_dir / "trace.chrome.json").exists()

    def test_profile_saved_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        assert main(["save-scenario", str(scenario), "--tasks", "8", "--seed", "4"]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "prof"
        assert main(["profile", str(scenario), "--output-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "sched.mappings" in out
        assert (out_dir / "manifest.json").exists()

    def test_profile_missing_scenario_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["profile", str(tmp_path / "nope.json")])

    def test_serve_smoke(self, capsys):
        assert main([
            "serve", "--tasks", "30", "--seed", "1",
            "--queue-capacity", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "service drained" in out
        assert "30 submitted" in out

    def test_serve_writes_checkpoint(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "svc.json"
        assert main([
            "serve", "--tasks", "30", "--seed", "1",
            "--checkpoint-every", "1", "--checkpoint-out", str(out_path),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "repro.service.checkpoint/v1"

    def test_serve_unknown_scenario_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", str(tmp_path / "missing.json")])

    def test_trustfaults_study(self, tmp_path, capsys):
        import json

        artifact = tmp_path / "study.json"
        assert main([
            "trustfaults", "--rounds", "2", "--requests", "6",
            "--artifact", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert "honest" in out and "attacked" in out and "defended" in out
        assert "reputation-error recovery" in out
        data = json.loads(artifact.read_text())
        assert data["schema"] == "repro.trustfaults/v1"
        assert set(data["arms"]) == {"honest", "attacked", "defended"}
