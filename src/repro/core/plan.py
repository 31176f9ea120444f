"""Recovery plans.

A :class:`RecoveryPlan` bundles the outcome of damage analysis for one
batch of IDS alerts: the Theorem 1/2 undo and redo sets (definite +
candidate).  The plan corresponds to the paper's "unit of recovery
tasks" (one unit per alert) queued between the recovery analyzer and
the scheduler in Figure 2.  The queue only counts units: a batch heal
merges every queued unit, derives the batch's Theorem 1 closure again
(a unit's definite sets are not definite for the merged batch) and
builds and publishes the one Theorem 3 order of the batch it runs, so
it reads neither a plan's sets nor any order of a plan.  A plan's sets
are published claims, decided on their first read: by an observed
scan, which publishes its provenance and claimed sets for the checks,
by the independent plan verifier, or by a test.  The sets are decided
against the log as of that read; the log only grows, so a late read
gives a superset of what a read at scan time would have given.

The plan is *static*: candidates are listed, not resolved.  Resolution —
which requires executing redos and re-deciding branches — is the
:class:`~repro.core.healer.Healer`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

from repro.core.undo_redo import RedoAnalysis, UndoAnalysis

__all__ = ["RecoveryPlan"]


class _Decided:
    """A plan's Theorem 1 (``index`` 0) or Theorem 2 (1) analysis: the
    value the plan was built with, else the one its analyzer decides on
    the first read (:attr:`RecoveryPlan.sets_of`)."""

    def __init__(self, index: int) -> None:
        self._index = index
        self._slot = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, plan: Optional["RecoveryPlan"],
                owner: Optional[type] = None) -> Any:
        if plan is None:
            return None  # the field's default: decided on read
        value = plan.__dict__.get(self._slot)
        return value if value is not None else plan.sets_of()[self._index]

    def __set__(self, plan: "RecoveryPlan", value: Any) -> None:
        plan.__dict__[self._slot] = value


@dataclass
class RecoveryPlan:
    """Schedulable outcome of analyzing one batch of alerts.

    Attributes
    ----------
    alert_uids:
        The malicious instances this plan responds to (one per alert).
    sets_of:
        The analyzer's builder of the Theorem 1/2 sets: it decides them
        on its first call and returns that one pair after.  A copy of
        the plan (``dataclasses.replace``) shares it.
    undo_analysis, redo_analysis:
        Static Theorem 1 / Theorem 2 results: the values given, else
        the builder's, read from it on each access.  A copy made with
        ``dataclasses.replace`` reads both, so it holds them as values.
    """

    alert_uids: Tuple[str, ...]
    sets_of: Callable[[], Tuple[UndoAnalysis, RedoAnalysis]] = field(
        repr=False, compare=False)
    undo_analysis: UndoAnalysis = _Decided(0)  # type: ignore[assignment]
    redo_analysis: RedoAnalysis = _Decided(1)  # type: ignore[assignment]

    @property
    def units(self) -> int:
        """Number of recovery-task units: one per alert (the CTMC's
        queue items)."""
        return len(self.alert_uids)

    def summary(self) -> str:
        """One-line human-readable account of the plan."""
        ua, ra = self.undo_analysis, self.redo_analysis
        return (
            f"plan: {len(self.alert_uids)} alerts, "
            f"{len(ua.definite)} definite undo "
            f"(+{len(ua.candidates)} candidates), "
            f"{len(ra.definite)} definite redo "
            f"(+{len(ra.candidate_uids)} candidates)"
        )
