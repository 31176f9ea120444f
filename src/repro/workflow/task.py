"""Tasks and task instances.

A *task* (:class:`TaskSpec`) is a node of a workflow graph: a unit of work
with a declared reading set ``R(T)`` and writing set ``W(T)`` (Section II-C
of the paper) plus an executable body.  A *task instance*
(:class:`TaskInstance`) is one execution of a task within one workflow
instance; because workflows may contain cycles, the same task can appear
several times in an execution path, distinguished by the instance number
(the paper's superscript notation ``t_i^k``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

__all__ = ["TaskSpec", "TaskInstance", "identity_compute"]

#: Type of a task body: maps the values of the reading set to the values of
#: the writing set.  Missing outputs are treated as "write nothing for that
#: object", which is rejected by the engine (every declared write must be
#: produced).
ComputeFn = Callable[[Mapping[str, Any]], Mapping[str, Any]]

#: Type of a branch decision: maps the data visible to the task (its reads
#: plus its freshly-computed writes) to the task id of the chosen successor.
ChooseFn = Callable[[Mapping[str, Any]], str]


def identity_compute(inputs: Mapping[str, Any]) -> Mapping[str, Any]:
    """A compute body that writes nothing.

    Useful for pure routing/branch nodes that read data only to decide the
    next execution path.
    """
    return {}


@dataclass(frozen=True)
class TaskSpec:
    """Static description of one task in a workflow specification.

    Parameters
    ----------
    task_id:
        Identifier, unique within the workflow (e.g. ``"t1"``).
    reads:
        The reading set ``R(T)``: names of data objects the task reads.
    writes:
        The writing set ``W(T)``: names of data objects the task writes.
    compute:
        The task body.  Receives a mapping from each name in ``reads`` to
        its current value and must return a mapping providing a value for
        every name in ``writes``.  ``None`` is allowed only when ``writes``
        is empty (a pure routing node).
    choose:
        Branch decision function; required when the node has outdegree
        greater than one in the workflow graph.  Receives the task's reads
        merged with its own outputs and returns the id of the successor to
        follow.  Branches in this model are *choices of execution path*,
        not parallel forks (Section I of the paper).
    description:
        Optional human-readable description, used in reports.
    """

    task_id: str
    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    compute: Optional[ComputeFn] = None
    choose: Optional[ChooseFn] = None
    description: str = ""

    def __post_init__(self) -> None:
        # Allow reads/writes to be given as any iterable of strings.
        object.__setattr__(self, "reads", frozenset(self.reads))
        object.__setattr__(self, "writes", frozenset(self.writes))

    def run(self, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        """Execute the task body over ``inputs`` and return its outputs.

        Raises
        ------
        ValueError
            If the body fails to produce every declared write, or produces
            writes that were not declared.  (The engine converts this into
            :class:`~repro.errors.ExecutionError` with task context.)
        """
        fn = self.compute if self.compute is not None else identity_compute
        outputs = dict(fn(dict(inputs)))
        missing = self.writes - outputs.keys()
        if missing:
            raise ValueError(
                f"task {self.task_id!r} did not produce declared writes: "
                f"{sorted(missing)}"
            )
        extra = outputs.keys() - self.writes
        if extra:
            raise ValueError(
                f"task {self.task_id!r} produced undeclared writes: "
                f"{sorted(extra)}"
            )
        return outputs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskSpec({self.task_id!r}, reads={sorted(self.reads)}, "
            f"writes={sorted(self.writes)})"
        )


@dataclass(frozen=True, order=True)
class TaskInstance:
    """One execution of a task within one workflow instance.

    Ordering is lexicographic on ``(workflow_instance, task_id, number)``;
    it exists only so instances can live in sorted containers — the
    semantically meaningful order is the system-log precedence ``≺``
    (:mod:`repro.workflow.precedence`).

    Attributes
    ----------
    workflow_instance:
        Identifier of the workflow instance (one run of one workflow).
    task_id:
        The task's identifier in the workflow specification.
    number:
        Visit count for this task within the instance, starting at 1.
        ``t3`` visited twice yields instances ``t3^1`` and ``t3^2``.
    """

    workflow_instance: str
    task_id: str
    number: int = 1

    @property
    def uid(self) -> str:
        """Globally unique identifier, e.g. ``"wf0/t3#2"``."""
        return f"{self.workflow_instance}/{self.task_id}#{self.number}"

    def __str__(self) -> str:
        if self.number == 1:
            return f"{self.task_id}"
        return f"{self.task_id}^{self.number}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskInstance({self.uid})"


@dataclass
class InstanceCounter:
    """Allocates instance numbers for repeated visits to the same task.

    One counter is owned by each :class:`~repro.workflow.engine.WorkflowRun`
    so that the ``t_i^k`` superscripts of the paper are reproduced exactly.
    """

    workflow_instance: str
    _counts: dict = field(default_factory=dict)

    def next_instance(self, task_id: str) -> TaskInstance:
        """Return the next instance of ``task_id`` for this workflow run."""
        n = self._counts.get(task_id, 0) + 1
        self._counts[task_id] = n
        return TaskInstance(self.workflow_instance, task_id, n)

    def visits(self, task_id: str) -> int:
        """Number of times ``task_id`` has been instantiated so far."""
        return self._counts.get(task_id, 0)
