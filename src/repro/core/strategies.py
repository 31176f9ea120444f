"""The three recovery strategies of Section III-D, as an analytic table.

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

Only strict correctness is built: :class:`~repro.system.SelfHealingSystem`
refuses normal tasks during SCAN and RECOVERY, and the conformance
monitor checks the strict Definition 2 pack.  The enum records the
paper's trade-offs for the strategy-ablation benchmark.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["RecoveryStrategy"]


class RecoveryStrategy(str, Enum):
    """One of the paper's concurrency/correctness trade-offs."""

    STRICT = "strict"
    RISK_ALL = "risk_all"
    RISK_NORMAL_ONLY = "risk_normal_only"

    @property
    def recovery_guaranteed_terminating(self) -> bool:
        """Is the recovery guaranteed to terminate?

        Risking recovery tasks themselves (``RISK_ALL``) forfeits the
        termination guarantee: corrupted recovery tasks generate ever
        more recovery tasks.
        """
        return self is not RecoveryStrategy.RISK_ALL

    @property
    def recovery_stays_correct(self) -> bool:
        """Can recovery tasks themselves be corrupted mid-recovery?"""
        return self is not RecoveryStrategy.RISK_ALL
