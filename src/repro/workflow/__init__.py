"""Workflow management substrate.

This package implements the workflow model of Section II of the paper:
workflow specifications as directed graphs, tasks with read/write sets,
execution paths, the system log, traces, the precedence relation, and the
data/control dependency relations that the recovery theory is built on.

Public API
----------
- :class:`~repro.workflow.task.TaskSpec`,
  :class:`~repro.workflow.task.TaskInstance`
- :class:`~repro.workflow.spec.WorkflowSpec` and the
  :func:`~repro.workflow.spec.workflow` builder
- :class:`~repro.workflow.data.DataStore`
- :class:`~repro.workflow.log.SystemLog`, :class:`~repro.workflow.log.LogRecord`
- :class:`~repro.workflow.engine.WorkflowRun`,
  :class:`~repro.workflow.engine.Engine`
- :mod:`~repro.workflow.precedence` — the ``≺`` relation and ``minimal``
- :mod:`~repro.workflow.dependency` — flow / anti-flow / output / control
  dependencies (Definition 1 and Section II-D)

The package's exports resolve on first use (:mod:`repro._exports`).
``dominators`` names the function, not its submodule.
"""

from repro._exports import lazy_exports

#: Each package export and the submodule that defines it.
_HOMES = {
    "TaskSpec": "task",
    "TaskInstance": "task",
    "WorkflowSpec": "spec",
    "workflow": "spec",
    "DataStore": "data",
    "Version": "data",
    "SystemLog": "log",
    "LogRecord": "log",
    "Engine": "engine",
    "WorkflowRun": "engine",
    "RunResult": "engine",
    "PartialOrder": "precedence",
    "minimal": "precedence",
    "DependencyAnalyzer": "dependency",
    "DependencyEdge": "dependency",
    "DependencyKind": "dependency",
    "ControlDependencies": "dependency",
    "dominators": "dominators",
    "unavoidable_nodes": "dominators",
    "branch_nodes": "dominators",
    "Expr": "expr",
    "ExprError": "expr",
    "compile_expr": "expr",
    "WorkflowDocument": "serialize",
    "TaskDocument": "serialize",
    "SegmentedLog": "segments",
    "LogSegment": "segments",
}

__all__ = list(_HOMES)

__getattr__, __dir__ = lazy_exports(__name__, _HOMES)
