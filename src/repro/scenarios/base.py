"""What every built-in scenario shares: an attacked system on an
:class:`~repro.core.epochs.EpochManager`, healed and audited in one step.

A scenario's ``build_*()`` runs its workflows (and the attack) through
the manager; :meth:`Scenario.heal_now` then performs the paper's
recovery for the damage the scenario reports and checks Definition 2
end to end — the same ``manager.heal`` + ``manager.audit`` the fleet,
the full-stack simulator and the fuzzer use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.axioms import CorrectnessReport
from repro.core.epochs import EpochManager
from repro.core.healer import HealReport
from repro.workflow.data import DataStore
from repro.workflow.log import SystemLog
from repro.workflow.spec import WorkflowSpec

__all__ = ["Scenario"]


@dataclass
class Scenario:
    """An attacked system, ready to heal.

    Attributes
    ----------
    manager:
        Owns the store and the epoch logs; every heal goes through it.
    initial_data:
        The store's contents before any workflow ran — the ground truth
        of the Definition 2 audit.
    log:
        The attacked epoch's log.  It keeps the heal's UNDO/REDO
        records after the manager has rolled to a fresh epoch.
    heal, audit:
        The heal report and its Definition 2 verdict, once healed.
    """

    manager: EpochManager
    initial_data: Dict[str, Any]
    log: SystemLog = field(init=False)
    heal: Optional[HealReport] = field(default=None, init=False)
    audit: Optional[CorrectnessReport] = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.log = self.manager.log

    @property
    def store(self) -> DataStore:
        """The shared, versioned data store."""
        return self.manager.store

    @property
    def specs_by_instance(self) -> Mapping[str, WorkflowSpec]:
        """Spec of every workflow instance the scenario ran."""
        return self.manager.specs_by_instance

    def reported(self) -> Tuple[Sequence[str], Sequence[str]]:
        """The damage recovery is told about: ``(malicious task uids,
        forged workflow runs)``."""
        raise NotImplementedError

    def heal_now(self) -> HealReport:
        """Heal the reported damage and audit the healed history."""
        malicious, forged_runs = self.reported()
        report = self.manager.heal(malicious, forged_runs=forged_runs)
        self.record_heal(report)
        return report

    def record_heal(self, report: HealReport) -> CorrectnessReport:
        """Adopt a heal the manager ran for another driver (e.g. the
        instrumented Figure 2 pipeline) and audit the healed history."""
        self.heal = report
        self.audit = self.manager.audit()
        return self.audit

    #: Prefix of the demo's before/after state lines.
    STATE_LABEL: ClassVar[str] = ""

    def summary(self) -> object:
        """The business state the attack touched, for the demo's
        before/after lines; ``None`` prints no state lines."""
        return None

    def describe(self, report: HealReport) -> Sequence[str]:
        """The demo's lines about the heal itself."""
        return [report.summary()]
