"""``repro-vod serve`` / ``repro-vod loadgen``: parsing, exit codes, runs."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_serve_parses_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 7733
        assert args.max_in_flight == 1024
        assert args.fault_drop_every is None

    def test_serve_accepts_fault_and_obs_flags(self, tmp_path):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--duration", "2",
            "--fault-drop-every", "3", "--fault-capacity-at", "10",
            "--decision-log", str(tmp_path / "d.jsonl"),
            "--trace-out", str(tmp_path / "t.jsonl"),
            "--metrics-out", str(tmp_path / "m.txt"),
        ])
        assert args.fault_drop_every == 3
        assert args.duration == 2.0

    def test_loadgen_parses_modes(self):
        assert build_parser().parse_args(["loadgen"]).mode == "wall"
        args = build_parser().parse_args(["loadgen", "--mode", "virtual"])
        assert args.mode == "virtual"

    def test_verbosity_flags_still_global(self):
        args = build_parser().parse_args(["-v", "serve"])
        assert args.verbose == 1


class TestConfigErrorsExitTwo:
    def test_serve_bad_wait(self, capsys):
        assert main(["serve", "--wait", "-1"]) == 2
        assert "invalid service configuration" in capsys.readouterr().err

    def test_serve_bad_popular_count(self, capsys):
        assert main(["serve", "--movies", "3", "--popular", "9"]) == 2
        assert capsys.readouterr().err

    def test_serve_bad_in_flight_limit(self, capsys):
        assert main(["serve", "--max-in-flight", "0"]) == 2

    def test_serve_bad_fault_schedule(self, capsys):
        assert main(["serve", "--fault-drop-every", "0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--slo-p99", "nan"],
        ["--slo-p99", "inf"],
        ["--duration", "nan"],
        ["--fault-capacity-at", "nan"],
        ["--fault-capacity-at", "1", "--fault-capacity-recovery", "nan"],
        ["--fault-latency-at", "nan"],
        ["--fault-latency-at", "1", "--fault-latency-seconds", "nan"],
        ["--fault-latency-at", "1", "--fault-latency-recovery", "nan"],
    ], ids=" ".join)
    def test_serve_non_finite_setting(self, argv, capsys):
        assert main(["serve", *argv]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_loadgen_bad_arrival_rate(self, capsys):
        assert main(["loadgen", "--mode", "virtual", "--arrival-rate", "0"]) == 2

    def test_loadgen_bad_horizon(self, capsys):
        assert main(["loadgen", "--mode", "virtual", "--horizon", "-5"]) == 2

    def test_loadgen_empty_workload(self, capsys):
        code = main([
            "loadgen", "--mode", "virtual",
            "--arrival-rate", "0.0001", "--horizon", "0.001",
        ])
        assert code == 2
        assert "no sessions" in capsys.readouterr().err


class TestVirtualLoadgen:
    def test_virtual_run_writes_all_artifacts(self, tmp_path, capsys):
        decision_log = tmp_path / "decisions.jsonl"
        trace_out = tmp_path / "trace.jsonl"
        metrics_out = tmp_path / "metrics.txt"
        report_out = tmp_path / "report.json"
        code = main([
            "loadgen", "--mode", "virtual",
            "--movies", "8", "--popular", "3",
            "--arrival-rate", "1.0", "--horizon", "30",
            "--decision-log", str(decision_log),
            "--trace-out", str(trace_out),
            "--metrics-out", str(metrics_out),
            "--json", str(report_out),
        ])
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(report_out.read_text())
        assert summary["mode"] == "virtual"
        assert summary["sessions_started"] > 0
        assert "admissions_per_second" in out
        # The decision log is JSONL with monotone sequence numbers.
        records = [
            json.loads(line) for line in decision_log.read_text().splitlines()
        ]
        assert [r["seq"] for r in records] == list(range(len(records)))
        # The trace validates against the event schema via the obs command.
        assert main(["obs", "validate", str(trace_out)]) == 0
        assert metrics_out.read_text().startswith("# HELP")

    def test_virtual_runs_are_reproducible_via_cli(self, tmp_path, capsys):
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            assert main([
                "loadgen", "--mode", "virtual", "--seed", "77",
                "--movies", "6", "--popular", "2",
                "--arrival-rate", "1.0", "--horizon", "25",
                "--decision-log", str(path),
            ]) == 0
            logs.append(path.read_bytes())
        capsys.readouterr()
        assert logs[0] == logs[1]
