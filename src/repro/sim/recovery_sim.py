"""End-to-end pipeline runs over random workloads.

:func:`run_pipeline` executes a workload's workflows under an attack
campaign and returns the attacked system as a
:class:`~repro.scenarios.base.Scenario` whose reported damage is the
campaign's ground truth.  Integration tests, property tests, workload
calibration and the baseline benchmarks then heal and audit it through
:meth:`~repro.scenarios.base.Scenario.heal_now` — the same
:class:`~repro.core.epochs.EpochManager` path every other driver uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.epochs import EpochManager
from repro.ids.attacks import AttackCampaign
from repro.scenarios.base import Scenario
from repro.sim.workload import Workload
from repro.workflow.data import DataStore
from repro.workflow.engine import Engine, RunResult

__all__ = ["PipelineResult", "run_pipeline"]


@dataclass
class PipelineResult(Scenario):
    """One attacked workload, ready to heal.

    Attributes
    ----------
    run_results:
        Per-workflow execution summaries of the attacked run.
    malicious_ground_truth:
        Uids the attack campaign actually tampered with — the damage
        :meth:`reported` to recovery.
    """

    run_results: List[RunResult]
    malicious_ground_truth: Tuple[str, ...]

    def reported(self) -> Tuple[Sequence[str], Sequence[str]]:
        return self.malicious_ground_truth, ()


def run_pipeline(
    workload: Workload,
    campaign: Optional[AttackCampaign] = None,
    policy: str = "round_robin",
    seed: int = 0,
) -> PipelineResult:
    """Run a workload's workflows under attack; return the attacked
    system, not yet healed.

    Parameters
    ----------
    workload:
        Specs and initial data (see
        :class:`~repro.sim.workload.WorkloadGenerator`).
    campaign:
        Attack campaign; ``None`` runs clean (useful for oracles).
    policy:
        Interleaving policy for the engine (``round_robin`` /
        ``sequential`` / ``random``).
    seed:
        Seeds the engine's interleaving randomness.
    """
    manager = EpochManager(DataStore(workload.initial_data),
                           workload.initial_data)
    runs = [manager.new_run(spec, f"{spec.workflow_id}.run")
            for spec in workload.specs]
    run_results = Engine(
        manager.store, manager.log, rng=random.Random(seed),
    ).interleave(runs, policy=policy, tamper=campaign)
    return PipelineResult(
        manager=manager,
        initial_data=dict(workload.initial_data),
        run_results=run_results,
        malicious_ground_truth=(
            campaign.malicious_uids if campaign is not None else ()),
    )
