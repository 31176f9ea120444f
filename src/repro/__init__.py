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

from repro._exports import lazy_exports

__version__ = "1.0.0"

#: Each package export and the module that defines it.  The exports
#: resolve on first use (:mod:`repro._exports`), so importing any
#: subpackage — the model's solvers, say — loads none of the pipeline.
_HOMES = {
    "ReproError": "errors",
    # workflow substrate
    "workflow": "workflow.spec",
    "WorkflowSpec": "workflow.spec",
    "TaskSpec": "workflow.task",
    "TaskInstance": "workflow.task",
    "DataStore": "workflow.data",
    "SystemLog": "workflow.log",
    "LogRecord": "workflow.log",
    "Engine": "workflow.engine",
    "WorkflowRun": "workflow.engine",
    "PartialOrder": "workflow.precedence",
    "minimal": "workflow.precedence",
    "DependencyAnalyzer": "workflow.dependency",
    # attacks & detection
    "AttackCampaign": "ids.attacks",
    "Alert": "ids.alerts",
    # recovery core
    "Action": "core.actions",
    "ActionKind": "core.actions",
    "find_undo_tasks": "core.undo_redo",
    "find_redo_tasks": "core.undo_redo",
    "RecoveryAnalyzer": "core.analyzer",
    "Healer": "core.healer",
    "HealReport": "core.healer",
    "RecoveryStrategy": "core.strategies",
    "audit_strict_correctness": "core.axioms",
    # architecture
    "SelfHealingSystem": "system",
    "SystemState": "states",
    # persistence
    "dump_system": "persistence",
    "load_system": "persistence",
    "SystemSnapshot": "persistence",
    "PersistenceError": "persistence",
}

__all__ = ["__version__", *_HOMES]

__getattr__, __dir__ = lazy_exports(__name__, _HOMES)
