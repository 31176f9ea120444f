"""One heal path: every scenario and driver heals and audits through
``EpochManager``, and the flight logs of the Figure 2 pipeline stay
pinned byte for byte."""

import ast
import hashlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.axioms import audit_strict_correctness
from repro.core.healer import Healer
from repro.scenarios import SCENARIOS
from repro.sim.recovery_sim import run_pipeline
from repro.system import SelfHealingSystem
from repro.workflow.log import RecordKind

from tests.conftest import make_workload

SRC = Path(repro.__file__).parent


def _called_names(path: Path):
    """Names of every function called in ``path`` (bare or attribute)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


class TestOneHealPath:
    """The heal-and-audit step lives in ``core/epochs.py``, the one
    module that constructs a healer."""

    HEALER_OWNERS = {"core/epochs.py"}

    def test_healer_constructed_only_by_the_owners(self):
        constructing = {
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            if "Healer" in _called_names(path)
        }
        assert constructing == self.HEALER_OWNERS

    def test_drivers_audit_through_the_manager(self):
        drivers = [*(SRC / "scenarios").rglob("*.py"),
                   *(SRC / "sim").rglob("*.py"),
                   SRC / "system.py", SRC / "cli.py"]
        auditing = [
            path.relative_to(SRC).as_posix() for path in drivers
            if "audit_strict_correctness" in _called_names(path)
        ]
        assert auditing == []

    def test_system_requires_a_manager(self):
        params = inspect.signature(SelfHealingSystem.__init__).parameters
        assert not {"store", "log", "specs_by_instance"} & set(params)
        assert params["manager"].default is inspect.Parameter.empty


class TestScenariosHealThroughTheManager:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_heal_matches_a_direct_healer(self, name):
        """The manager's heal and audit equal a healer run on a twin of
        the attacked system plus the end-to-end Definition 2 audit."""
        sc, twin = SCENARIOS[name](), SCENARIOS[name]()
        malicious, forged_runs = twin.reported()
        direct = Healer(twin.store, twin.log, twin.specs_by_instance).heal(
            malicious, forged_runs=forged_runs)
        direct_audit = audit_strict_correctness(
            twin.specs_by_instance, twin.initial_data,
            direct.final_history, twin.store.snapshot())

        report = sc.heal_now()
        assert report == direct
        assert sc.store.snapshot() == twin.store.snapshot()
        assert sc.audit.ok and direct_audit.ok
        assert sc.audit.problems == direct_audit.problems
        # The attacked epoch's log keeps the heal's records after the
        # manager rolled to a fresh epoch.
        assert sc.manager.epoch == 1 and sc.manager.log is not sc.log
        assert len(sc.log.records()) == len(twin.log.records())

    def test_pipeline_log_is_the_attacked_epoch(self):
        gen, wl = make_workload(seed=3)
        result = run_pipeline(wl, gen.pick_attacks(wl, n_attacks=2),
                              seed=3)
        result.heal_now()
        assert result.audit.ok, result.audit.problems
        assert result.heal.undone
        assert set(result.heal.undone) == {
            r.uid for r in result.log.records(RecordKind.UNDO)}


class TestFlightLogPins:
    """Digests of the Figure 2 pipeline's flight logs: the figure1
    incident (``obs record``) and the hijacked web shop (``demo web-app
    --flight-log``).  Each heal publishes its batch's Theorem 1/2
    decisions, then its Theorem 3 edges, after its ``HealStarted``;
    scans publish no decisions."""

    #: ``obs record --scenario figure1``: 57 records, 10 of them edges.
    FIGURE1_SHA256 = (
        "9aa8c9746b73769ee67ec6005eb66293c81b700d2c2aa1b912804df8790a3783")
    #: ``obs record --scenario figure1 --false-alarms 0``: 49 records,
    #: 10 of them edges.
    FIGURE1_NO_NOISE_SHA256 = (
        "b4811f98d282b7579e8a35a742f2765098a4f67dbc12234743329c06099f35f9")
    #: ``demo web-app --flight-log FILE``: 85 records, 15 of them edges.
    WEB_APP_SHA256 = (
        "ecf5b8f263aff6c7cd7f1f8f64d9162c28171c4378be5b70bb6f648b2572d970")

    @pytest.mark.parametrize("extra, records, digest", [
        ([], 57, FIGURE1_SHA256),
        (["--false-alarms", "0"], 49, FIGURE1_NO_NOISE_SHA256),
    ], ids=["default", "no-false-alarms"])
    def test_figure1_flight_log_digest(self, tmp_path, capsys, extra,
                                       records, digest):
        path = tmp_path / "figure1.jsonl"
        assert main(["obs", "record", "--scenario", "figure1", *extra,
                     "--log", str(path)]) == 0
        assert f"{records} flight-log records" in capsys.readouterr().out
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_web_app_flight_log_digest(self, tmp_path, capsys):
        path = tmp_path / "web-app.jsonl"
        assert main(["demo", "web-app", "--flight-log", str(path)]) == 0
        assert "85 flight-log records" in capsys.readouterr().out
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.WEB_APP_SHA256

    def test_web_app_flight_log_ignores_hash_seed(self):
        """Theorem 1 condition 4 decisions are published in sorted
        order, so string hashing cannot reorder the log."""
        path = os.pathsep.join(
            [str(SRC.parent), os.environ.get("PYTHONPATH", "")])

        def record(seed: str) -> str:
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", "demo", "web-app",
                 "--flight-log", "-"],
                env=env, capture_output=True, text=True, check=True,
            ).stdout

        assert record("0") == record("1")


class TestDemoFlightLogs:
    """``demo --flight-log`` records every scenario whose reported
    damage is task uids, and refuses the ones that report forged runs."""

    @pytest.mark.parametrize("name", ["figure1", "travel", "web-app"])
    def test_recorded_heal_replays_conformant(self, tmp_path, capsys,
                                              name):
        """The log replays with no LTLf violation, and the plan
        verifier finds every execution covered by a decision."""
        path = tmp_path / f"{name}.jsonl"
        assert main(["demo", name, "--flight-log", str(path)]) == 0
        assert "strictly correct: True" in capsys.readouterr().out
        assert main(["obs", "replay", "--log", str(path),
                     "--conformance"]) == 0
        assert ", 0 violation(s)" in capsys.readouterr().out
        assert main(["lint", "plan", str(path)]) == 0
        assert "0 finding(s): 0 error" in capsys.readouterr().out

    def test_settle_time_stale_reads_are_decided(self, tmp_path, capsys):
        """The travel heal finds stale reads that no scan flagged; the
        healer publishes their Theorem 1 condition 4 decision before
        the undo, so the plan verifier sees every execution covered."""
        from repro.obs.events import TaskUndone, UndoDecision
        from repro.obs.recorder import load_flight_log

        path = tmp_path / "travel.jsonl"
        assert main(["demo", "travel", "--flight-log", str(path)]) == 0
        capsys.readouterr()
        log = load_flight_log(str(path))
        stale = [e.uid for e in log.events if isinstance(e, TaskUndone)
                 and e.reason == "stale-read"]
        assert "booking_b0/charge#1" in stale
        decided = {e.uid: e for e in log.events
                   if isinstance(e, UndoDecision)}
        for uid in stale:
            assert decided[uid].condition == "T1.4"
            assert decided[uid].objects  # the reads that went stale
        assert decided["booking_b0/charge#1"].objects == ("revenue",)

    @pytest.mark.parametrize("name", ["banking", "supply-chain"])
    def test_forged_runs_are_refused(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.jsonl"
        assert main(["demo", name, "--flight-log", str(path)]) == 3
        assert "forged workflow runs" in capsys.readouterr().err
        assert not path.exists()
