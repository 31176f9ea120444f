"""repro — self-healing workflow systems under attacks.

A full reproduction of *Yu, Liu & Zang, "Self-Healing Workflow Systems
under Attacks", ICDCS 2004*: a workflow management substrate, attack
injection and IDS alert queues, the dependency-based attack-recovery theory (Theorems
1–4), an operational self-healer, and the paper's CTMC performance
model with steady-state and transient analysis.

Quick tour
----------
>>> from repro import workflow, DataStore, SystemLog, Engine
>>> from repro import AttackCampaign, Healer, audit_strict_correctness
>>> from repro.markov import RecoverySTG, steady_state, loss_probability

See ``examples/quickstart.py`` for an end-to-end walkthrough and
DESIGN.md for the architecture and experiment map.
"""

from repro.core import (
    Action,
    ActionKind,
    HealReport,
    Healer,
    RecoveryAnalyzer,
    RecoveryPlan,
    RecoveryStrategy,
    audit_strict_correctness,
    find_redo_tasks,
    find_undo_tasks,
    recovery_partial_order,
)
from repro.errors import ReproError
from repro.ids import Alert, AttackCampaign
from repro.persistence import (
    PersistenceError,
    SystemSnapshot,
    dump_system,
    load_system,
)
from repro.system import SelfHealingSystem, SystemState
from repro.workflow import (
    DataStore,
    DependencyAnalyzer,
    Engine,
    LogRecord,
    PartialOrder,
    SystemLog,
    TaskInstance,
    TaskSpec,
    WorkflowRun,
    WorkflowSpec,
    minimal,
    workflow,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # workflow substrate
    "workflow",
    "WorkflowSpec",
    "TaskSpec",
    "TaskInstance",
    "DataStore",
    "SystemLog",
    "LogRecord",
    "Engine",
    "WorkflowRun",
    "PartialOrder",
    "minimal",
    "DependencyAnalyzer",
    # attacks & detection
    "AttackCampaign",
    "Alert",
    # recovery core
    "Action",
    "ActionKind",
    "find_undo_tasks",
    "find_redo_tasks",
    "recovery_partial_order",
    "RecoveryPlan",
    "RecoveryAnalyzer",
    "Healer",
    "HealReport",
    "RecoveryStrategy",
    "audit_strict_correctness",
    # architecture
    "SelfHealingSystem",
    "SystemState",
    # persistence
    "dump_system",
    "load_system",
    "SystemSnapshot",
    "PersistenceError",
]
