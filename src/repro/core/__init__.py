"""Attack recovery core — the paper's primary contribution.

This package implements Section III (theories of recovery) and Section IV
(the recovery system):

- :mod:`repro.core.actions` — undo/redo recovery actions;
- :mod:`repro.core.undo_redo` — Theorem 1 (undo tasks) and Theorem 2
  (redo tasks), including the *candidate* sets resolved only after redos;
- :mod:`repro.core.partial_orders` — Theorem 3 (orders among recovery
  tasks), built by the healer for each observed batch;
- :mod:`repro.core.analyzer` — the recovery analyzer of Figure 2, turning
  IDS alerts into units of recovery tasks, and the one place a batch
  heal decides Theorems 1–2;
- :mod:`repro.core.healer` — the operational self-healing executor that
  resolves candidates by re-execution and repairs the store and log;
- :mod:`repro.core.axioms` — Axiom 1 and the strict-correctness audit of
  Definition 2;
- :mod:`repro.core.strategies` — the analytic table of the three
  recovery strategies of Section III-D.
"""

from repro.core.actions import Action, ActionKind
from repro.core.analyzer import RecoveryAnalyzer
from repro.core.axioms import (
    CorrectnessReport,
    audit_strict_correctness,
    generates_incorrect_data,
)
from repro.core.epochs import EpochManager
from repro.core.healer import HealReport, Healer
from repro.core.strategies import RecoveryStrategy
from repro.core.undo_redo import (
    RedoAnalysis,
    UndoAnalysis,
    find_redo_tasks,
    find_undo_tasks,
)

__all__ = [
    "Action",
    "ActionKind",
    "UndoAnalysis",
    "RedoAnalysis",
    "find_undo_tasks",
    "find_redo_tasks",
    "RecoveryAnalyzer",
    "Healer",
    "HealReport",
    "RecoveryStrategy",
    "audit_strict_correctness",
    "generates_incorrect_data",
    "CorrectnessReport",
    "EpochManager",
]
