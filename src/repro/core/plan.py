"""Recovery plans.

A :class:`RecoveryPlan` bundles the outcome of damage analysis for one
batch of IDS alerts: the Theorem 1/2 undo and redo sets (definite +
candidate), and the Theorem 3 partial order over the definite recovery
actions.  The plan corresponds to the paper's "unit of recovery tasks"
(one unit per alert) queued between the recovery analyzer and the
scheduler in Figure 2.  The queue only counts units: a batch heal
merges every queued unit and realizes one Theorem 3 order of its own,
and the plan's published order is what that heal's undos and redos are
checked against.

The plan is *static*: candidates are listed, not resolved.  Resolution —
which requires executing redos and re-deciding branches — is the
:class:`~repro.core.healer.Healer`'s job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

from repro.core.actions import Action
from repro.core.undo_redo import RedoAnalysis, UndoAnalysis
from repro.workflow.precedence import PartialOrder

__all__ = ["RecoveryPlan"]


@dataclass
class RecoveryPlan:
    """Schedulable outcome of analyzing one batch of alerts.

    Attributes
    ----------
    alert_uids:
        The malicious instances this plan responds to (one per alert).
    undo_analysis, redo_analysis:
        Static Theorem 1 / Theorem 2 results.
    order:
        Theorem 3 partial order over the definite undo/redo actions.
    units:
        Number of recovery-task units (= number of alerts; the CTMC's
        queue items).
    """

    alert_uids: Tuple[str, ...]
    undo_analysis: UndoAnalysis
    redo_analysis: RedoAnalysis
    order: PartialOrder[Action]
    units: int

    @cached_property
    def actions(self) -> Tuple[Action, ...]:
        """The order's actions, sorted; cached, as the order is not
        changed once the analyzer returns the plan."""
        return tuple(sorted(self.order.elements()))

    def schedule(self, rng: Optional[random.Random] = None) -> List[Action]:
        """A linear extension of the plan's partial order.

        The scheduler "is supposed to choose the ``minimal(S, ≺)`` to
        execute"; ties are broken randomly with ``rng`` or
        deterministically without.
        """
        return self.order.topological_order(tiebreak=rng)

    def summary(self) -> str:
        """One-line human-readable account of the plan."""
        ua, ra = self.undo_analysis, self.redo_analysis
        return (
            f"plan: {len(self.alert_uids)} alerts, "
            f"{len(ua.definite)} definite undo "
            f"(+{len(ua.candidates)} candidates), "
            f"{len(ra.definite)} definite redo "
            f"(+{len(ra.candidate_uids)} candidates), "
            f"{len(self.order.edges())} order constraints"
        )
