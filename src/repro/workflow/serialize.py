"""Workflow specifications as data.

A :class:`WorkflowDocument` describes a workflow with *expression-based*
task bodies (see :mod:`repro.workflow.expr`) instead of Python
callables, making specifications serializable (JSON), transportable and
inspectable — what decentralized workflow processing (Section VII)
requires, and what lets the recovery system expose "only dependence
relations" of a private specification: read/write sets fall out of the
expressions.

Example document::

    {
      "workflow_id": "order",
      "tasks": [
        {"id": "price",  "writes": {"total": "qty * unit"}},
        {"id": "check",  "writes": {"eligible": "total >= 100"},
         "choose": [["apply", "eligible"], ["skip", "true"]]},
        {"id": "apply",  "writes": {"payable": "total - total // 10"}},
        {"id": "skip",   "writes": {"payable": "total"}}
      ],
      "edges": [["price", "check"], ["check", "apply"],
                ["check", "skip"]]
    }

``build()`` compiles it into a regular, executable
:class:`~repro.workflow.spec.WorkflowSpec`; read sets are inferred from
the expressions' free variables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import WorkflowSpecError
from repro.workflow.expr import Expr, ExprError, compile_expr
from repro.workflow.spec import WorkflowSpec, workflow

__all__ = ["TaskDocument", "WorkflowDocument"]


@dataclass(frozen=True)
class TaskDocument:
    """Serializable description of one task.

    Attributes
    ----------
    task_id:
        Task identifier.
    writes:
        Mapping ``object name → expression source``; each expression is
        evaluated over the task's inputs (write expressions referencing
        a written object read its *old* value).
    choose:
        For branch nodes: ordered ``(successor, condition)`` pairs; the
        first truthy condition wins.  Use ``"true"`` as the final
        else-arm.  Empty for non-branch tasks.
    extra_reads:
        Objects to read beyond those inferred from the expressions
        (rarely needed; kept for pure routing reads).
    description:
        Free-text documentation.
    """

    task_id: str
    writes: Mapping[str, str] = field(default_factory=dict)
    choose: Tuple[Tuple[str, str], ...] = ()
    extra_reads: Tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "writes", dict(self.writes))
        object.__setattr__(
            self, "choose", tuple((s, c) for s, c in self.choose)
        )
        object.__setattr__(self, "extra_reads", tuple(self.extra_reads))

    def compiled(self) -> Tuple[Dict[str, Expr], Tuple[Tuple[str, Expr], ...]]:
        """Compile all expressions; raises :class:`ExprError` with task
        context on failure."""
        try:
            writes = {
                name: compile_expr(src) for name, src in
                sorted(self.writes.items())
            }
            choose = tuple(
                (succ, compile_expr(cond)) for succ, cond in self.choose
            )
        except ExprError as exc:
            raise ExprError(
                f"task {self.task_id!r}: {exc}"
            ) from exc
        return writes, choose

    def inferred_reads(self) -> Tuple[str, ...]:
        """The task's read set: free variables of its write expressions,
        plus condition variables that are not its own outputs, plus
        ``extra_reads``."""
        writes, choose = self.compiled()
        names = set(self.extra_reads)
        for expr in writes.values():
            names |= expr.names
        for _succ, cond in choose:
            names |= cond.names - set(self.writes)
        return tuple(sorted(names))

    # -- dict form -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form."""
        out: Dict[str, Any] = {"id": self.task_id}
        if self.writes:
            out["writes"] = dict(self.writes)
        if self.choose:
            out["choose"] = [list(pair) for pair in self.choose]
        if self.extra_reads:
            out["extra_reads"] = list(self.extra_reads)
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskDocument":
        """Parse the plain-JSON form."""
        try:
            task_id = data["id"]
        except KeyError:
            raise WorkflowSpecError(
                "task document missing required key 'id'"
            ) from None
        return cls(
            task_id=task_id,
            writes=data.get("writes", {}),
            choose=tuple(
                (pair[0], pair[1]) for pair in data.get("choose", ())
            ),
            extra_reads=tuple(data.get("extra_reads", ())),
            description=data.get("description", ""),
        )


@dataclass(frozen=True)
class WorkflowDocument:
    """Serializable description of a whole workflow.

    ``lint`` carries optional lint configuration that travels with the
    document (see :func:`repro.lint.config_from_document`): an
    ``allow`` list of rule ids to suppress and blast-radius thresholds
    (``blast_warn_fraction`` / ``blast_error_fraction``).  Unknown keys
    round-trip untouched for forward compatibility.
    """

    workflow_id: str
    tasks: Tuple[TaskDocument, ...]
    edges: Tuple[Tuple[str, str], ...]
    lint: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(
            self, "edges", tuple((a, b) for a, b in self.edges)
        )
        object.__setattr__(self, "lint", dict(self.lint))

    # -- building ----------------------------------------------------------

    def build(self) -> WorkflowSpec:
        """Compile into an executable, validated workflow spec."""
        builder = workflow(self.workflow_id)
        for doc in self.tasks:
            writes, choose = doc.compiled()
            reads = doc.inferred_reads()
            builder.task(
                doc.task_id,
                reads=reads,
                writes=sorted(doc.writes),
                compute=_make_compute(doc.task_id, writes),
                choose=_make_choose(doc.task_id, choose) if choose
                else None,
                description=doc.description,
            )
        for src, dst in self.edges:
            builder.edge(src, dst)
        return builder.build()

    # -- dict / json form -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form."""
        out: Dict[str, Any] = {
            "workflow_id": self.workflow_id,
            "tasks": [t.to_dict() for t in self.tasks],
            "edges": [list(e) for e in self.edges],
        }
        if self.lint:
            out["lint"] = dict(self.lint)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkflowDocument":
        """Parse the plain-JSON form."""
        for key in ("workflow_id", "tasks", "edges"):
            if key not in data:
                raise WorkflowSpecError(
                    f"workflow document missing required key {key!r}"
                )
        return cls(
            workflow_id=data["workflow_id"],
            tasks=tuple(
                TaskDocument.from_dict(t) for t in data["tasks"]
            ),
            edges=tuple((e[0], e[1]) for e in data["edges"]),
            lint=data.get("lint", {}),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "WorkflowDocument":
        """Parse a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WorkflowSpecError(
                f"invalid workflow JSON: {exc}"
            ) from exc
        return cls.from_dict(data)


def _make_compute(task_id: str, writes: Mapping[str, Expr]):
    def compute(inputs: Mapping[str, Any]) -> Dict[str, Any]:
        return {name: expr(inputs) for name, expr in writes.items()}

    return compute


def _make_choose(task_id: str, choose: Sequence[Tuple[str, Expr]]):
    def decide(visible: Mapping[str, Any]) -> str:
        for successor, condition in choose:
            if condition(visible):
                return successor
        raise ExprError(
            f"branch {task_id!r}: no choose condition was true "
            "(add a final ['<successor>', 'true'] arm)"
        )

    return decide
