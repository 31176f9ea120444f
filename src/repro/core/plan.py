"""Recovery plans.

A :class:`RecoveryPlan` bundles the outcome of damage analysis for one
batch of IDS alerts: the Theorem 1/2 undo and redo sets (definite +
candidate), and the Theorem 3 partial order over the definite recovery
actions.  The plan corresponds to the paper's "unit of recovery tasks"
(one unit per alert) queued between the recovery analyzer and the
scheduler in Figure 2.  The queue only counts units: a batch heal
merges every queued unit and realizes Theorem 3 by how it runs (undos
newest first, then the settle pass in log order), so it never reads a
plan's order.  The order is a published claim, built on its first
read: by an observed scan, which publishes its edges for the checks,
by the independent plan verifier, or by a test.

The plan is *static*: candidates are listed, not resolved.  Resolution —
which requires executing redos and re-deciding branches — is the
:class:`~repro.core.healer.Healer`'s job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Tuple

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
    units:
        Number of recovery-task units (= number of alerts; the CTMC's
        queue items).
    order_of:
        The analyzer's builder of :attr:`order`: it builds the order on
        its first call and returns that one object after.  A copy of
        the plan (``dataclasses.replace``) shares it, so a mutated copy
        keeps the analyzer's own order.
    """

    alert_uids: Tuple[str, ...]
    undo_analysis: UndoAnalysis
    redo_analysis: RedoAnalysis
    units: int
    order_of: Callable[[], PartialOrder[Action]] = field(
        repr=False, compare=False)

    @property
    def order(self) -> PartialOrder[Action]:
        """Theorem 3 partial order over the definite undo/redo actions
        the analyzer decided, built on the first read."""
        return self.order_of()

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
