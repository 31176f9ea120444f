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
"""

from repro.workflow.data import DataStore, Version
from repro.workflow.dependency import (
    ControlDependencies,
    DependencyAnalyzer,
    DependencyEdge,
    DependencyKind,
)
from repro.workflow.dominators import (
    branch_nodes,
    dominators,
    unavoidable_nodes,
)
from repro.workflow.engine import Engine, RunResult, WorkflowRun
from repro.workflow.expr import Expr, ExprError, compile_expr
from repro.workflow.log import LogRecord, SystemLog
from repro.workflow.segments import LogSegment, SegmentedLog
from repro.workflow.serialize import TaskDocument, WorkflowDocument
from repro.workflow.precedence import PartialOrder, minimal
from repro.workflow.spec import WorkflowSpec, workflow
from repro.workflow.task import TaskInstance, TaskSpec

__all__ = [
    "TaskSpec",
    "TaskInstance",
    "WorkflowSpec",
    "workflow",
    "DataStore",
    "Version",
    "SystemLog",
    "LogRecord",
    "Engine",
    "WorkflowRun",
    "RunResult",
    "PartialOrder",
    "minimal",
    "DependencyAnalyzer",
    "DependencyEdge",
    "DependencyKind",
    "ControlDependencies",
    "dominators",
    "unavoidable_nodes",
    "branch_nodes",
    "Expr",
    "ExprError",
    "compile_expr",
    "WorkflowDocument",
    "TaskDocument",
    "SegmentedLog",
    "LogSegment",
]
