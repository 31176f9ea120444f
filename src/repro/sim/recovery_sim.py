"""End-to-end pipeline simulation.

Wires the whole system together the way Figure 2 draws it:

    engine runs workflows (under attack) → IDS inspects the log and
    emits alerts → recovery analyzer builds a plan → healer repairs →
    strict-correctness audit checks Definition 2.

:func:`run_pipeline` is the one-shot driver used by integration tests,
property tests, workload calibration and the baseline benchmarks; it
heals and audits through :class:`~repro.core.epochs.EpochManager`, like
every other driver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.analyzer import RecoveryAnalyzer
from repro.core.axioms import CorrectnessReport
from repro.core.epochs import EpochManager
from repro.core.healer import HealReport
from repro.core.plan import RecoveryPlan
from repro.ids.attacks import AttackCampaign
from repro.ids.detector import DetectorConfig, IntrusionDetector
from repro.sim.workload import Workload
from repro.workflow.data import DataStore
from repro.workflow.engine import Engine, RunResult
from repro.workflow.log import SystemLog

__all__ = ["PipelineResult", "run_pipeline"]


@dataclass
class PipelineResult:
    """Everything produced by one end-to-end run.

    Attributes
    ----------
    store, log:
        The (healed) system state; ``log`` is the attacked epoch's log,
        with the heal's UNDO/REDO records.
    run_results:
        Per-workflow execution summaries of the attacked run.
    malicious_ground_truth:
        Uids the attack campaign actually tampered with.
    alert_uids:
        Uids the IDS reported — including false alarms, which the
        recovery system cannot distinguish from genuine reports.
    plan:
        The static recovery plan built from the alerts.
    heal:
        What the healer did.
    audit:
        Definition 2 verdict over the healed system.
    """

    store: DataStore
    log: SystemLog
    run_results: List[RunResult]
    malicious_ground_truth: Tuple[str, ...]
    alert_uids: Tuple[str, ...]
    plan: Optional[RecoveryPlan]
    heal: Optional[HealReport]
    audit: Optional[CorrectnessReport]
    initial_data: Dict[str, Any] = field(default_factory=dict)
    specs_by_instance: Dict[str, Any] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """Did the pipeline end in a strictly correct state?"""
        return self.audit is not None and self.audit.ok


def run_pipeline(
    workload: Workload,
    campaign: Optional[AttackCampaign] = None,
    detector_config: Optional[DetectorConfig] = None,
    policy: str = "round_robin",
    seed: int = 0,
    heal: bool = True,
) -> PipelineResult:
    """Run workflows under attack, detect, analyze, heal and audit.

    Parameters
    ----------
    workload:
        Specs and initial data (see
        :class:`~repro.sim.workload.WorkloadGenerator`).
    campaign:
        Attack campaign; ``None`` runs clean (useful for oracles).
    detector_config:
        IDS knobs; defaults to a perfect, instant detector.
    policy:
        Interleaving policy for the engine (``round_robin`` /
        ``sequential`` / ``random``).
    seed:
        Seeds the engine and detector randomness.
    heal:
        Skip analysis/healing when ``False`` (produce the attacked state
        only).
    """
    manager = EpochManager(DataStore(workload.initial_data),
                           workload.initial_data)
    store, log = manager.store, manager.log
    runs = [manager.new_run(spec, f"{spec.workflow_id}.run")
            for spec in workload.specs]
    run_results = Engine(store, log, rng=random.Random(seed)).interleave(
        runs, policy=policy, tamper=campaign)
    specs_by_instance = dict(manager.specs_by_instance)

    ground_truth: Tuple[str, ...] = (
        campaign.malicious_uids if campaign is not None else ()
    )
    if not heal:
        return PipelineResult(
            store=store,
            log=log,
            run_results=run_results,
            malicious_ground_truth=ground_truth,
            alert_uids=(),
            plan=None,
            heal=None,
            audit=None,
            initial_data=dict(workload.initial_data),
            specs_by_instance=specs_by_instance,
        )

    detector = IntrusionDetector(
        campaign if campaign is not None else AttackCampaign(),
        config=detector_config,
        rng=random.Random(seed + 1),
    )
    detector.inspect(log, now=0.0)
    alerts = detector.drain()
    # Per Section IV-D, instances the IDS missed are ultimately reported
    # by the administrator; model that as late manual reports so the
    # recovery input is complete.
    for uid in detector.missed:
        alerts.append(detector.administrator_report(uid))
    alert_uids = tuple(a.uid for a in alerts)

    plan = RecoveryAnalyzer(log, specs_by_instance).analyze(alerts)
    report = manager.heal(alert_uids)
    return PipelineResult(
        store=store,
        log=log,
        run_results=run_results,
        malicious_ground_truth=ground_truth,
        alert_uids=alert_uids,
        plan=plan,
        heal=report,
        audit=manager.audit(),
        initial_data=dict(workload.initial_data),
        specs_by_instance=specs_by_instance,
    )
