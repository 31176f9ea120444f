"""Tests for the command-line interface."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_model_defaults(self):
        args = build_parser().parse_args(["steady"])
        assert args.lam == 1.0 and args.mu1 == 15.0 and args.buffer == 15

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "nonsense"])


class TestDemo:
    @pytest.mark.parametrize("scenario", ["figure1", "banking", "travel",
                                          "supply-chain", "web-app"])
    def test_demos_succeed(self, scenario, capsys):
        assert main(["demo", scenario]) == 0
        out = capsys.readouterr().out
        assert "strictly correct: True" in out

    def test_figure1_lists_dispositions(self, capsys):
        main(["demo", "figure1"])
        out = capsys.readouterr().out
        assert "abandoned" in out and "t3 t4" in out


class TestSteady:
    def test_prints_metrics(self, capsys):
        assert main(["steady", "--lam", "0.5", "--buffer", "6"]) == 0
        out = capsys.readouterr().out
        assert "P(normal)" in out
        assert "loss probability" in out

    def test_overloaded_system_visible(self, capsys):
        main(["steady", "--lam", "4", "--buffer", "6"])
        out = capsys.readouterr().out
        assert "P(scan)" in out


class TestTransient:
    def test_times_listed(self, capsys):
        assert main(["transient", "--buffer", "5",
                     "--t", "0.5", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "E[lost alerts]" in out
        assert "0.5" in out and "2" in out


class TestDesign:
    def test_feasible_design_exit_zero(self, capsys):
        code = main(["design", "--lam", "1", "--epsilon", "0.01",
                     "--peak", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible" in out
        assert "peak rate" in out

    def test_infeasible_design_exit_one(self, capsys):
        code = main(["design", "--lam", "2", "--epsilon", "1e-6",
                     "--mu1", "2", "--xi1", "3", "--max-buffer", "8"])
        out = capsys.readouterr().out
        assert code == 1
        assert "INFEASIBLE" in out


class TestSimulate:
    def test_simulation_table(self, capsys):
        assert main(["simulate", "--buffer", "4",
                     "--horizon", "500", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "analytic" in out and "simulated" in out
        assert "alerts:" in out


class TestSimulateBatch:
    def test_batch_table_and_stderr(self, capsys):
        assert main(["simulate", "--buffer", "4", "--horizon", "50",
                     "--seed", "3", "--replications", "4",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 replications" in out
        assert "loss probability stderr" in out
        assert "batch wall time" in out

    def test_workers_one_spawns_no_pool(self, capsys, monkeypatch):
        """--workers 1 must run inline: creating a process pool at all
        is a bug, not merely a slow path."""
        import repro.sim.batch as batch_mod

        class PoolForbidden:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "ProcessPoolExecutor created despite --workers 1"
                )

        monkeypatch.setattr(batch_mod, "ProcessPoolExecutor",
                            PoolForbidden)
        assert main(["simulate", "--buffer", "4", "--horizon", "50",
                     "--replications", "3", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "3 replications" in out

    def test_single_replication_uses_single_path(self, capsys):
        """--replications 1 (the default) keeps the original
        single-trajectory output, stderr line absent."""
        assert main(["simulate", "--buffer", "4", "--horizon", "50",
                     "--replications", "1"]) == 0
        out = capsys.readouterr().out
        assert "stderr" not in out

    @pytest.mark.parametrize("argv", [
        ["simulate", "--replications", "0"],
        ["simulate", "--replications", "-2"],
        ["simulate", "--workers", "0"],
        ["simulate", "--workers", "-1"],
        ["simulate", "--replications", "two"],
        ["simulate", "--workers", "1.5"],
    ])
    def test_invalid_fanout_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be a positive integer" in err or "invalid" in err

    def test_backend_choice_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["steady", "--backend", "bogus"])
        assert exc.value.code == 2

    def test_explicit_backends_agree(self, capsys):
        assert main(["steady", "--buffer", "6",
                     "--backend", "dense"]) == 0
        dense_out = capsys.readouterr().out
        assert main(["steady", "--buffer", "6",
                     "--backend", "sparse"]) == 0
        sparse_out = capsys.readouterr().out
        assert dense_out == sparse_out


class TestSensitivity:
    def test_prints_elasticities(self, capsys):
        assert main(["sensitivity", "--buffer", "8"]) == 0
        out = capsys.readouterr().out
        assert "elasticity of loss" in out
        assert "lambda" in out and "xi1" in out


class TestStgDot:
    def test_dot_output(self, capsys):
        assert main(["stg-dot", "--buffer", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph stg {")
        assert '"N"' in out


class TestObs:
    def test_figure1_report(self, capsys):
        assert main(["obs"]) == 0  # figure1 is the default scenario
        out = capsys.readouterr().out
        assert "Observed figure1 incident" in out
        assert "dwell[SCAN] total" in out
        assert "alert queue high-water" in out
        assert "alert loss fraction" in out
        assert "Incident span tree:" in out
        assert "- run" in out and "- detect" in out
        assert "undo" in out and "redo" in out

    def test_report_and_trace_show_the_same_tree(self, capsys):
        """Both views derive their spans from the flight log: the
        report's tree lists the trace's complete events, in order."""
        import json
        import re

        assert main(["obs"]) == 0
        tree = capsys.readouterr().out.split("Incident span tree:\n")[1]
        rendered = [re.match(r" *- (\S+) \(", line).group(1)
                    for line in tree.strip().splitlines()]
        assert main(["obs", "trace"]) == 0
        spans = [e["name"] for e in
                 json.loads(capsys.readouterr().out)["traceEvents"]
                 if e["ph"] == "X"]
        assert rendered == spans
        assert {"detect", "scan", "heal", "undo", "redo"} <= set(spans)

    def test_figure1_span_tree_matches_readme(self, capsys):
        """The report's incident tree is the README's, character for
        character: a pin on the spans' timing, not just their names."""
        from pathlib import Path

        readme = (Path(__file__).resolve().parents[1] / "README.md") \
            .read_text(encoding="utf-8")
        block = readme.split("Incident span tree:\n", 1)[1]
        block = block.split("```", 1)[0]
        assert main(["obs", "--scenario", "figure1"]) == 0
        out = capsys.readouterr().out
        assert out.split("Incident span tree:\n", 1)[1] == block

    def test_gillespie_comparison_table(self, capsys):
        assert main(["obs", "--scenario", "gillespie", "--lam", "4",
                     "--mu1", "6", "--xi1", "8", "--buffer", "3",
                     "--horizon", "200", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Empirical vs CTMC" in out
        assert "loss probability" in out
        assert "P(normal)" in out

    def test_fullstack_scenario(self, capsys):
        assert main(["obs", "--scenario", "fullstack", "--lam", "2",
                     "--horizon", "10", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "Observed full-stack run" in out
        assert "heals" in out

    def test_prometheus_dump(self, capsys):
        assert main(["obs", "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_alerts_lost_total counter" in out
        assert "repro_alert_queue_depth_high_water" in out
        assert "repro_state_dwell_time_bucket" in out

    def test_events_to_stdout(self, capsys):
        """The run's events go out as JSONL in the one event format,
        the flight log."""
        import json

        assert main(["obs", "record", "--log", "-"]) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines()]
        events = [r for r in records if r["record"] == "event"]
        assert events[0]["event"] == "AlertEnqueued"
        assert any(e["event"] == "HealFinished" for e in events)

    def test_events_to_file(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        assert main(["obs", "record", "--log", str(path)]) == 0
        assert "flight-log records written to" in capsys.readouterr().out
        assert path.read_text().count("\n") > 10


class TestDomainErrorExit:
    def test_blocked_analyzer_exits_3_with_clean_message(self, capsys):
        from repro.cli import EXIT_DOMAIN_ERROR

        code = main(["obs", "--alert-buffer", "8", "--buffer", "1",
                     "--false-alarms", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN_ERROR == 3
        assert captured.err.startswith("error: analyzer blocked")
        assert "Traceback" not in captured.err

    def test_any_subcommand_maps_recovery_error(self, capsys,
                                                monkeypatch):
        """The handler sits in main(), so every subcommand gets the
        same clean exit — simulate a domain failure inside demo."""
        from repro.errors import RecoveryError
        from repro.scenarios import SCENARIOS

        def boom(*args, **kwargs):
            raise RecoveryError("undo failed mid-heal")

        monkeypatch.setitem(SCENARIOS, "figure1", boom)
        code = main(["demo", "figure1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: undo failed mid-heal\n"
        assert "Traceback" not in captured.err

    def test_simulation_error_also_mapped(self, capsys):
        code = main(["obs", "--scenario", "gillespie", "--horizon", "0"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: horizon must be > 0, got 0.0\n"
        assert "Traceback" not in captured.err

    def test_scheduling_error_also_mapped(self, capsys, monkeypatch):
        from repro.errors import SchedulingError
        from repro.scenarios import SCENARIOS

        def boom(*args, **kwargs):
            raise SchedulingError("no admissible order")

        monkeypatch.setitem(SCENARIOS, "figure1", boom)
        code = main(["demo", "figure1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: no admissible order\n"


class TestWorkflowDot:
    def test_renders_document_file(self, capsys, tmp_path):
        from repro.workflow.serialize import TaskDocument, WorkflowDocument

        doc = WorkflowDocument(
            workflow_id="demo",
            tasks=(
                TaskDocument("a", writes={"x": "1"}),
                TaskDocument("b", writes={"y": "x + 1"}),
            ),
            edges=(("a", "b"),),
        )
        path = tmp_path / "wf.json"
        path.write_text(doc.to_json())
        assert main(["workflow-dot", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "demo" {')
        assert '"a" -> "b";' in out

    def test_invalid_document_exits_three(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["workflow-dot", str(path)]) == 3
        assert "workflow_id" in capsys.readouterr().err


class TestDotWithoutNetworkx:
    """The DOT verbs need only the declared dependencies: with networkx
    import-blocked, both render."""

    SCRIPT = textwrap.dedent("""
        import sys
        sys.modules["networkx"] = None
        from repro.cli import main
        sys.exit(main(sys.argv[1:]))
    """)

    def run(self, *argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).parent.parent),
             os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-c", self.SCRIPT, *argv],
                              env=env, capture_output=True, text=True)

    def test_stg_dot(self):
        done = self.run("stg-dot", "--buffer", "2")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("digraph stg {")

    def test_workflow_dot(self, tmp_path):
        from repro.workflow.serialize import TaskDocument, WorkflowDocument

        doc = WorkflowDocument(
            workflow_id="demo",
            tasks=(TaskDocument("a", writes={"x": "1"}),
                   TaskDocument("b", writes={"y": "x + 1"})),
            edges=(("a", "b"),),
        )
        path = tmp_path / "wf.json"
        path.write_text(doc.to_json())
        done = self.run("workflow-dot", str(path))
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith('digraph "demo" {')
        assert '"a" -> "b";' in done.stdout


class TestObsFlightVerbs:
    """The flight-recorder CLI: record | replay | explain | trace."""

    def test_record_to_file_then_replay(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["obs", "record", "--log", str(path)]) == 0
        assert "flight-log records written to" in capsys.readouterr().out
        first = path.read_text().splitlines()[0]
        import json

        header = json.loads(first)
        assert header["record"] == "header" and header["schema"] == 1

        assert main(["obs", "replay", "--log", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Replayed flight log" in out
        assert "undo set (definite): " in out
        assert "wf1/t1#1" in out
        assert "realized schedule: " in out
        assert "Replayed pipeline metrics" in out

    def test_record_to_stdout(self, capsys):
        assert main(["obs", "record"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith('{"label":"figure1"')

    def test_record_gillespie(self, capsys, tmp_path):
        path = tmp_path / "gillespie.jsonl"
        assert main(["obs", "record", "--scenario", "gillespie",
                     "--horizon", "50", "--log", str(path)]) == 0
        capsys.readouterr()
        from repro.obs.recorder import load_flight_log

        log = load_flight_log(str(path))
        assert log.label == "gillespie"
        assert log.meta["horizon"] == 50.0 and log.meta["seed"] == 0
        assert log.mark("finalize")["time"] == 50.0
        assert main(["obs", "replay", "--log", str(path)]) == 0
        assert "Replayed pipeline metrics" in capsys.readouterr().out

    def test_explain_fresh_run(self, capsys):
        assert main(["obs", "explain", "wf1/t6#1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("wf1/t6#1")
        assert "undo[T1.4]: stale-read candidate" in out

    def test_explain_without_target_exits_three(self, capsys):
        code = main(["obs", "explain"])
        captured = capsys.readouterr()
        assert code == 3
        assert "needs a task instance uid" in captured.err

    def test_explain_unknown_uid_exits_three(self, capsys):
        code = main(["obs", "explain", "nope/x#9"])
        captured = capsys.readouterr()
        assert code == 3
        assert "never mentions" in captured.err

    def test_trace_to_file_is_valid_chrome_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        assert main(["obs", "trace", "--out", str(out_path)]) == 0
        assert "Chrome trace written to" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        for entry in doc["traceEvents"]:
            assert "ph" in entry and "ts" in entry and "pid" in entry

    def test_trace_to_stdout(self, capsys):
        import json

        assert main(["obs", "trace"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(e["name"] == "run" for e in doc["traceEvents"])

    def test_report_remains_the_default_action(self, capsys):
        assert main(["obs", "--scenario", "figure1"]) == 0
        assert "Observed figure1 incident" in capsys.readouterr().out


class TestObsHealth:
    """``--health`` full-stack runs: objective and verdict replay."""

    def test_report_honours_slo_loss(self, capsys):
        argv = ["obs", "--scenario", "fullstack", "--health", "--lam", "6",
                "--buffer", "3", "--horizon", "20"]
        assert main(argv + ["--slo-loss", "0.01"]) == 0
        assert "objective 1.000e-02)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "objective 1.000e-02)" not in capsys.readouterr().out

    def test_batch_recorded_log_replays_verdicts(self, capsys, tmp_path):
        from repro.obs.health import ModelPrediction
        from repro.sim.batch import run_fullstack_batch
        from repro.sim.fullstack import FullStackConfig

        cfg = FullStackConfig(arrival_rate=8, alert_buffer=2,
                              recovery_buffer=2)
        run_fullstack_batch(
            cfg, horizon=30, replications=1, seed=1,
            record_dir=str(tmp_path),
            health=ModelPrediction.from_stg(cfg.stg()),
            loss_objective=1e-6,
        )
        log = tmp_path / "rep-0000.jsonl"
        assert main(["obs", "replay", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "identical to recorded: True" in out


class TestLint:
    """The static-verification CLI: lint spec | plan | code."""

    def _broken_doc(self, tmp_path):
        import json

        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "workflow_id": "broken",
            "tasks": [{"id": "t1", "writes": {"x": "1"}},
                      {"id": "t2", "writes": {"y": "2"}}],
            "edges": [["t1", "ghost"]],
        }), encoding="utf-8")
        return path

    def test_code_pass_on_clean_tree(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", "code", str(clean)]) == 0
        assert "0 error" in capsys.readouterr().out

    def test_code_pass_exits_two_on_error(self, capsys, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n",
                         encoding="utf-8")
        assert main(["lint", "code", str(dirty)]) == 2
        out = capsys.readouterr().out
        assert "DET001" in out and "1 error" in out

    def test_shipped_codebase_lints_clean(self, capsys):
        assert main(["lint", "code", "src/repro"]) == 0

    def test_code_sarif_has_one_determinism_run(self, capsys, tmp_path):
        import json as _json

        src = tmp_path / "clock.py"
        src.write_text("import time\nt = time.time()\n", encoding="utf-8")
        out_file = tmp_path / "lint.sarif"
        assert main(["lint", "code", str(src),
                     "--format", "sarif", "--out", str(out_file)]) == 2
        sarif = _json.loads(out_file.read_text())
        names = [run["tool"]["driver"]["name"] for run in sarif["runs"]]
        assert names == ["repro-lint-determinism"]
        assert {r["ruleId"] for r in sarif["runs"][0]["results"]} == {
            "DET001"}

    def test_code_sarif_clean_tree_exits_zero(self, capsys, tmp_path):
        import json as _json

        out_file = tmp_path / "lint.sarif"
        assert main(["lint", "code", "src/repro",
                     "--format", "sarif", "--out", str(out_file)]) == 0
        sarif = _json.loads(out_file.read_text())
        assert len(sarif["runs"]) == 1
        assert sarif["runs"][0]["results"] == []

    def test_spec_pass_scenario_no_errors(self, capsys):
        assert main(["lint", "spec", "--scenario", "figure1"]) == 0
        assert "0 error" in capsys.readouterr().out

    def test_spec_pass_all_scenarios_is_default(self, capsys):
        assert main(["lint", "spec"]) == main(
            ["lint", "spec", "--all-scenarios"]
        )

    def test_spec_pass_broken_document_exits_two(self, capsys, tmp_path):
        code = main(["lint", "spec", str(self._broken_doc(tmp_path))])
        assert code == 2
        assert "SPEC001" in capsys.readouterr().out

    def test_json_format_parses(self, capsys, tmp_path):
        import json

        main(["lint", "spec", str(self._broken_doc(tmp_path)),
              "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["error"] >= 1
        assert data["findings"][0]["rule"] == "SPEC001"

    def test_sarif_out_writes_valid_file(self, capsys, tmp_path):
        import json

        out = tmp_path / "lint.sarif"
        main(["lint", "spec", "--scenario", "banking",
              "--format", "sarif", "--out", str(out)])
        assert "written to" in capsys.readouterr().out
        sarif = json.loads(out.read_text())
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["tool"]["driver"]["name"]

    def test_plan_pass_on_recorded_flight_log(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["obs", "record", "--log", str(path)]) == 0
        capsys.readouterr()
        assert main(["lint", "plan", str(path)]) == 0
        assert "0 error" in capsys.readouterr().out

    def test_plan_pass_flags_tampered_log(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["obs", "record", "--log", str(path)]) == 0
        capsys.readouterr()
        kept = [line for line in path.read_text().splitlines()
                if '"T3.3"' not in line]
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(kept) + "\n", encoding="utf-8")
        assert main(["lint", "plan", str(tampered)]) == 2
        assert "PLAN021" in capsys.readouterr().out

    def test_missing_document_exits_two_cleanly(self, capsys, tmp_path):
        code = main(["lint", "spec", str(tmp_path / "nope.json")])
        assert code != 0
        assert capsys.readouterr().err


class TestFleet:
    def test_calibrated_fleet_exits_zero(self, capsys):
        assert main(["fleet", "--tenants", "4", "--duration", "25",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "OK" in out
        assert "audits strictly correct" in out
        assert "detect->heal p50" in out

    def test_unknown_archetype_exits_three(self, capsys):
        from repro.cli import EXIT_DOMAIN_ERROR

        code = main(["fleet", "--mix", "banking", "nonsense"])
        err = capsys.readouterr().err
        assert code == EXIT_DOMAIN_ERROR == 3
        assert err.startswith("error:")
        assert "unknown workload archetype" in err
        assert "Traceback" not in err

    def test_invalid_tenant_count_exits_two(self, capsys):
        # argparse owns plain type errors: exit 2, not 3
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--tenants", "0"])
        assert exc.value.code == 2

    def test_worker_count_does_not_change_the_report(self, capsys):
        # The CLI has no worker knob; its table must match a
        # workers=4 run of the same config through the API.
        from repro.fleet import FleetConfig, FleetControlPlane

        assert main(["fleet", "--tenants", "3", "--duration", "20",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        report = FleetControlPlane(FleetConfig(
            tenants=3, duration=20.0, workers=4, seed=5)).run()
        for label, value in (("attacks", report.attacks),
                             ("scans", report.scans),
                             ("heals", report.heals)):
            assert any(line.split()[:2] == [label, str(value)]
                       for line in out.splitlines()), (label, value)

    def test_breached_fleet_exits_one(self, capsys):
        # one grant per 20-time-unit round starves the tenant queue:
        # alerts overflow, the loss SLO breaches, exit goes to 1
        code = main(["fleet", "--tenants", "1", "--mix", "banking",
                     "--duration", "200", "--tick", "20",
                     "--central-capacity", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "BREACH" in out
        assert "Worst tenants" in out


class TestFuzz:
    def test_budget_parsing(self):
        args = build_parser().parse_args(["fuzz", "--budget", "90"])
        assert args.budget == 90.0
        args = build_parser().parse_args(["fuzz", "--budget", "60s"])
        assert args.budget == 60.0
        args = build_parser().parse_args(["fuzz", "--budget", "2m"])
        assert args.budget == 120.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--budget", "soon"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--budget", "-5s"])

    def test_clean_run_exits_zero(self, capsys, tmp_path):
        code = main(["fuzz", "--campaigns", "10", "--seed", "0",
                     "--corpus-dir", str(tmp_path / "corpus")])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz: campaigns=10" in out
        assert "violations=0" in out

    def test_inject_mode_catches_and_writes_corpus(self, capsys,
                                                   tmp_path):
        corpus = tmp_path / "corpus"
        code = main(["fuzz", "--campaigns", "3", "--inject",
                     "drop-undo", "--corpus-dir", str(corpus)])
        out = capsys.readouterr().out
        assert code == 0  # caught everywhere, nothing missed
        assert "missed=0" in out
        assert "counterexample" in out
        files = sorted(corpus.glob("ce-drop-undo-*.json"))
        assert files
        # Those files replay cleanly without the injected fault.
        code = main(["fuzz", "--replay"] + [str(p) for p in files])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 with violations" in out

    def test_replay_committed_corpus(self, capsys):
        import glob
        import os

        paths = sorted(glob.glob(os.path.join(
            os.path.dirname(__file__), "corpus", "*.json"
        )))
        assert paths
        assert main(["fuzz", "--replay"] + paths) == 0
        out = capsys.readouterr().out
        assert f"replayed {len(paths)} corpus file(s)" in out

    def test_unknown_inject_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--inject", "meltdown"])
        assert exc.value.code == 2


class TestProfile:
    def test_fullstack_profile_table(self, capsys, tmp_path):
        flame = tmp_path / "prof.folded"
        chrome = tmp_path / "prof.trace.json"
        blob = tmp_path / "prof.json"
        assert main(["profile", "--horizon", "20", "--seed", "7",
                     "--flame", str(flame), "--chrome", str(chrome),
                     "--json", str(blob)]) == 0
        out = capsys.readouterr().out
        assert "attribution" in out
        assert "closure_recomputations" in out
        assert "structure digest" in out
        import json as _json
        folded = flame.read_text().splitlines()
        assert any(line.startswith("repro;heal;heal.undo ")
                   for line in folded)
        trace = _json.loads(chrome.read_text())
        assert trace["traceEvents"]
        payload = _json.loads(blob.read_text())
        assert payload["scenario"] == "fullstack"
        assert payload["attribution"] >= 0.95

    def test_fleet_profile_snapshot_json(self, capsys, tmp_path):
        blob = tmp_path / "fleet.json"
        assert main(["profile", "--scenario", "fleet", "--tenants", "3",
                     "--duration", "10", "--seed", "3",
                     "--json", str(blob)]) == 0
        out = capsys.readouterr().out
        assert "attribution" in out
        import json as _json
        payload = _json.loads(blob.read_text())
        assert set(payload) == {"fleet", "tenants", "ticks"}
        assert payload["fleet"]["attribution"] >= 0.95
