"""Recovery plans.

A :class:`RecoveryPlan` bundles the outcome of damage analysis for one
batch of IDS alerts: the Theorem 1/2 undo and redo sets (definite +
candidate), and the Theorem 3 partial order over the definite recovery
actions.  The plan corresponds to the paper's "unit of recovery tasks"
(one unit per alert) queued between the recovery analyzer and the
scheduler in Figure 2.

The plan is *static*: candidates are listed, not resolved.  Resolution —
which requires executing redos and re-deciding branches — is the
:class:`~repro.core.healer.Healer`'s job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import List, Optional, Tuple

from repro.core.actions import Action
from repro.core.undo_redo import RedoAnalysis, UndoAnalysis
from repro.workflow.precedence import PartialOrder

__all__ = ["CrossUnitRow", "RecoveryPlan"]

#: One prior action and the sorted indices of the new actions it
#: conflicts with, ``None`` meaning every one of them.
CrossUnitRow = Tuple[Action, Optional[Tuple[int, ...]]]


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
    cross_unit_actions, cross_unit_rows:
        Ordering constraints against *previously queued* recovery units,
        stored factored: ``cross_unit_actions`` is this plan's actions,
        sorted, and each row ``(prior, hits)`` names one earlier unit's
        action that conflicts (shared instance or overlapping data
        objects) with the new actions at the sorted indices ``hits`` —
        or with all of them when ``hits`` is ``None``.  The analyzer
        computes these by checking each new alert against all
        outstanding units — the work that makes the alert-processing
        rate ``μ_k`` fall as the recovery queue grows (Section IV-D).
        :attr:`cross_unit_constraints` expands them into pairs.
    """

    alert_uids: Tuple[str, ...]
    undo_analysis: UndoAnalysis
    redo_analysis: RedoAnalysis
    order: PartialOrder[Action]
    units: int
    cross_unit_actions: Tuple[Action, ...] = ()
    cross_unit_rows: Tuple[CrossUnitRow, ...] = ()

    @property
    def cross_unit_constraints(self) -> Tuple[Tuple[Action, Action], ...]:
        """``(earlier unit's action, this plan's action)`` for every
        cross-unit conflict: rows in order, new actions sorted within
        each row.  Built on each read from the factored rows."""
        actions = self.cross_unit_actions
        pairs: List[Tuple[Action, Action]] = []
        for prior, hits in self.cross_unit_rows:
            row = actions if hits is None else [actions[i] for i in hits]
            pairs.extend(zip(repeat(prior), row))
        return tuple(pairs)

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
