"""The three recovery strategies of Section III-D.

The paper weighs correctness against concurrency:

1. **Strict correctness** — the adopted strategy: normal tasks touching
   recovered data wait until damage analysis is complete (Theorem 4).
   Guarantees correctness *and termination* of recovery.
2. **Risk all** — execute tasks before dependence relations are known.
   Both recovery and normal tasks may be corrupted and need re-repair;
   recovery may never terminate.
3. **Risk normal only** — multi-version data objects break anti-flow and
   output dependences, so normal tasks proceed without blocking while
   recovery stays correct; normal tasks executed on stale snapshots may
   later need repair, and every object pays a version-storage cost.

The enum is consumed by :class:`~repro.system.SelfHealingSystem` (whether
normal tasks wait during scan and recovery), by the conformance monitor
and health configuration (which property pack to check, also per fleet
tenant), by the Theorem 4 executor of :mod:`repro.core.concurrent`, and
by the strategy-ablation benchmark.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["RecoveryStrategy"]


class RecoveryStrategy(str, Enum):
    """Which concurrency/correctness trade-off the system runs with."""

    STRICT = "strict"
    RISK_ALL = "risk_all"
    RISK_NORMAL_ONLY = "risk_normal_only"

    @property
    def blocks_normal_tasks(self) -> bool:
        """Must normal tasks wait for damage analysis to finish?

        Only strict correctness blocks them; both risk strategies trade
        that wait for potential re-repair work.
        """
        return self is RecoveryStrategy.STRICT

    @property
    def recovery_guaranteed_terminating(self) -> bool:
        """Is the recovery guaranteed to terminate?

        Risking recovery tasks themselves (``RISK_ALL``) forfeits the
        termination guarantee: corrupted recovery tasks generate ever
        more recovery tasks.
        """
        return self is not RecoveryStrategy.RISK_ALL

    @property
    def requires_multiversion_store(self) -> bool:
        """Does the strategy need multi-version data objects?"""
        return self is RecoveryStrategy.RISK_NORMAL_ONLY

    @property
    def recovery_stays_correct(self) -> bool:
        """Can recovery tasks themselves be corrupted mid-recovery?"""
        return self is not RecoveryStrategy.RISK_ALL

    def describe(self) -> str:
        """One-line description used in reports."""
        return {
            RecoveryStrategy.STRICT: (
                "strict correctness: delay normal tasks during damage "
                "analysis; recovery correct and terminating"
            ),
            RecoveryStrategy.RISK_ALL: (
                "full concurrency: both recovery and normal tasks risk "
                "corruption; termination not guaranteed"
            ),
            RecoveryStrategy.RISK_NORMAL_ONLY: (
                "multi-version concurrency: recovery stays correct, "
                "normal tasks risk repair, extra storage per version"
            ),
        }[self]
