"""Tests for the repro-exp CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("cmd", ["fig1", "fig2", "fig3", "fig4",
                                     "table2", "table3a", "table3b"])
    def test_commands_exist(self, cmd):
        args = build_parser().parse_args([cmd])
        assert args.command == cmd

    def test_figure_options(self):
        args = build_parser().parse_args(
            ["fig1", "--smoke", "--tasks", "20", "--reps", "3"]
        )
        assert args.smoke and args.tasks == 20 and args.reps == 3


class TestMain:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "cat1" in out

    def test_fig1_smoke(self, capsys, tmp_path):
        csv = tmp_path / "out.csv"
        code = main([
            "fig1", "--smoke", "--tasks", "14", "--instances", "1",
            "--reps", "2", "--budgets", "3", "--csv", str(csv),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "figure1: makespan" in out
        assert "figure1: cost" in out
        assert csv.exists()
        assert "makespan" in csv.read_text().splitlines()[0]

    def test_table3a_fast(self, capsys):
        code = main(["table3a", "--tasks", "14", "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table III(a)" in out
        assert "minmin_budg" in out


class TestServiceCommands:
    def test_serve_and_schedule_commands_exist(self):
        args = build_parser().parse_args(["serve", "--port", "9090"])
        assert args.command == "serve" and args.port == 9090
        args = build_parser().parse_args(["schedule", "--family", "ligo"])
        assert args.command == "schedule" and args.family == "ligo"

    def test_schedule_from_flags(self, capsys):
        import json

        code = main([
            "schedule", "--family", "montage", "--tasks", "15",
            "--algorithm", "minmin_budg", "--position", "0.5",
            "--reps", "2", "--no-schedule-payload",
        ])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["algorithm"] == "minmin_budg"
        assert body["evaluation"]["n_reps"] == 2
        assert "schedule" not in body

    def test_schedule_from_request_file(self, capsys, tmp_path):
        import json

        req = tmp_path / "req.json"
        req.write_text(json.dumps({
            "workflow": {"family": "montage", "n_tasks": 15, "rng": 1},
            "algorithm": "heft",
            "budget": {"amount": 5.0},
        }))
        assert main(["schedule", "--request", str(req)]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["schedule"]["format"] == "repro.schedule/1"

    def test_schedule_bad_request_exits_2(self, capsys, tmp_path):
        req = tmp_path / "req.json"
        req.write_text("{not json")
        assert main(["schedule", "--request", str(req)]) == 2
        assert "error" in capsys.readouterr().err

    def test_schedule_service_error_exits_2(self, capsys, tmp_path):
        import json

        req = tmp_path / "req.json"
        req.write_text(json.dumps({
            "workflow": {"family": "montage", "n_tasks": 15},
            "algorithm": "not_a_scheduler",
            "budget": 1.0,
        }))
        assert main(["schedule", "--request", str(req)]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_logging_flags_exist(self):
        args = build_parser().parse_args(
            ["serve", "--log-level", "debug", "--log-json"]
        )
        assert args.log_level == "debug" and args.log_json
        args = build_parser().parse_args(["schedule"])
        assert args.log_level == "info" and not args.log_json


class TestSingleRunFlags:
    """``trace`` and ``profile`` share their single-run flags; only the
    default workflow size differs."""

    @pytest.mark.parametrize("cmd,n", [("trace", 50), ("profile", 90)])
    def test_defaults(self, cmd, n):
        args = build_parser().parse_args([cmd])
        assert (args.workflow, args.n, args.algo, args.seed, args.sigma,
                args.budget, args.position) == (
                    "montage", n, "heft_budg", 1, 0.5, None, 0.5)

    @pytest.mark.parametrize("cmd", ["trace", "profile"])
    def test_budget_and_position_are_exclusive(self, cmd, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [cmd, "--budget", "1.0", "--position", "0.3"])
        assert "not allowed with" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.workflow == "montage" and args.n == 50
        assert args.algo == "heft_budg" and args.out == "run.trace.json"

    def test_trace_writes_trace_and_decision_log(self, capsys, tmp_path):
        import json

        out = tmp_path / "run.trace.json"
        code = main([
            "trace", "--workflow", "montage", "--n", "15",
            "--algo", "heft_budg", "--out", str(out),
        ])
        assert code == 0

        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert all(e["ph"] in {"X", "M"} for e in doc["traceEvents"])
        # Both timelines land in one file: wall-clock spans and the
        # simulated per-VM tracks.
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "trace.session" in names and "schedule.heft_budg" in names
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert 1 in pids and any(p >= 100 for p in pids)

        decisions = tmp_path / "run.decisions.jsonl"
        assert decisions.exists()
        records = [json.loads(l) for l in decisions.read_text().splitlines()]
        assert len([r for r in records if r["kind"] == "host_selection"]) == 15

        report = capsys.readouterr().out
        assert "perfetto" in report and "decision" in report

    def test_trace_gantt_flag(self, capsys, tmp_path):
        out = tmp_path / "g.trace.json"
        assert main(["trace", "--n", "15", "--out", str(out),
                     "--gantt"]) == 0
        assert "legend" in capsys.readouterr().out

    def test_trace_claims_no_worker_spans_when_reps_stay_in_process(
            self, capsys, tmp_path):
        # 5 reps cannot fill two minimum-size shards: no pool ever runs.
        out = tmp_path / "w.trace.json"
        assert main(["trace", "--n", "20", "--workers", "4", "--reps", "5",
                     "--out", str(out)]) == 0
        report = capsys.readouterr().out
        assert "merged from" not in report
        assert "the 5 reps ran in-process" in report

    def test_trace_counts_spans_merged_from_a_pool(self, capsys, tmp_path):
        import json

        out = tmp_path / "p.trace.json"
        assert main(["trace", "--n", "15", "--workers", "2", "--reps", "8",
                     "--out", str(out)]) == 0
        report = capsys.readouterr().out
        assert "merged from" in report and "ran in-process" not in report
        names = {e["args"]["name"] for e in json.loads(out.read_text())[
            "traceEvents"] if e["ph"] == "M" and e["name"] == "process_name"}
        assert any(name.startswith("worker") for name in names)

    def test_trace_unknown_algo_exits_2(self, capsys, tmp_path):
        out = tmp_path / "x.trace.json"
        assert main(["trace", "--algo", "nope", "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err.lower()
