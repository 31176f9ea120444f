"""Workflow execution engine.

The engine executes workflow instances task by task against a shared
:class:`~repro.workflow.data.DataStore`, committing every completed task to
the shared :class:`~repro.workflow.log.SystemLog`.  Several runs may be
interleaved (the paper's multi-processor example, Figure 1) under a
scheduling policy; the interleaving defines the log precedence ``≺``.

Attacks plug in through the ``tamper`` hook: after a task computes its
outputs, the hook may replace them (a malicious or forged task).  The
engine itself stays oblivious to whether a run is clean or under attack —
that knowledge belongs to :mod:`repro.ids`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.errors import BranchDecisionError, ExecutionError
from repro.workflow.data import DataStore
from repro.workflow.log import LogRecord, RecordKind, SystemLog
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import InstanceCounter, TaskInstance

__all__ = ["TamperHook", "WorkflowRun", "RunResult", "Engine"]


class TamperHook(Protocol):
    """Attack insertion point (see :mod:`repro.ids.attacks`).

    Called once per executed task instance, after the genuine body ran.
    Returns the outputs to actually commit — identical to ``outputs`` for
    untampered tasks, corrupted values for attacked ones.
    """

    def apply(
        self,
        instance: TaskInstance,
        inputs: Mapping[str, Any],
        outputs: Mapping[str, Any],
    ) -> Mapping[str, Any]:
        """Return possibly-tampered outputs for ``instance``."""
        ...


@dataclass(frozen=True)
class RunResult:
    """Summary of one workflow run.

    Attributes
    ----------
    workflow_instance:
        Id of the run.
    path:
        The execution path actually taken (task ids, with repetition).
    instances:
        The committed task instances, in execution order.
    completed:
        Whether an end node was reached.
    """

    workflow_instance: str
    path: Tuple[str, ...]
    instances: Tuple[TaskInstance, ...]
    completed: bool


class WorkflowRun:
    """Stepwise execution state of one workflow instance.

    A run walks the workflow graph from the start node, executing one task
    per :meth:`step`.  At branch nodes the task's ``choose`` function picks
    the successor based on the data the task saw — so corrupted data can
    steer the run onto a wrong execution path, the phenomenon Theorems 1/2
    deal with.
    """

    def __init__(
        self,
        spec: WorkflowSpec,
        workflow_instance: str,
        max_steps: int = 10_000,
    ) -> None:
        self._spec = spec
        self._id = workflow_instance
        self._counter = InstanceCounter(workflow_instance)
        self._current: Optional[str] = spec.start
        self._instances: List[TaskInstance] = []
        self._max_steps = max_steps

    @property
    def spec(self) -> WorkflowSpec:
        """The workflow specification this run executes."""
        return self._spec

    @property
    def workflow_instance(self) -> str:
        """Id of this run."""
        return self._id

    @property
    def done(self) -> bool:
        """True when the run has reached (and executed) an end node."""
        return self._current is None

    @property
    def current_task(self) -> Optional[str]:
        """Task id about to execute next, or ``None`` when done."""
        return self._current

    @property
    def instances(self) -> Tuple[TaskInstance, ...]:
        """Instances executed so far, in order."""
        return tuple(self._instances)

    def step(
        self,
        store: DataStore,
        log: SystemLog,
        tamper: Optional[TamperHook] = None,
    ) -> LogRecord:
        """Execute and commit the current task, then advance.

        Returns the committed log record.

        Raises
        ------
        ExecutionError
            When the run is already done, the step budget is exhausted, or
            the task body fails.
        BranchDecisionError
            When a branch decision names a non-successor.
        """
        if self._current is None:
            raise ExecutionError(f"run {self._id!r} is already complete")
        if len(self._instances) >= self._max_steps:
            raise ExecutionError(
                f"run {self._id!r} exceeded max_steps={self._max_steps} "
                "(non-terminating cycle?)"
            )
        task = self._spec.task(self._current)
        instance = self._counter.next_instance(task.task_id)

        read_versions: Dict[str, int] = {}
        inputs: Dict[str, Any] = {}
        for name in sorted(task.reads):
            ver, value = store.read_version(name)
            read_versions[name] = ver
            inputs[name] = value

        try:
            outputs = dict(task.run(inputs))
        except ValueError as exc:
            raise ExecutionError(str(exc)) from exc
        if tamper is not None:
            outputs = dict(tamper.apply(instance, inputs, outputs))

        write_versions: Dict[str, int] = {}
        for name in sorted(outputs):
            write_versions[name] = store.write(name, outputs[name],
                                               writer=instance.uid)

        chosen = self._decide_successor(task, inputs, outputs)
        record = log.commit(
            instance,
            reads=read_versions,
            writes=write_versions,
            chosen=chosen,
            kind=RecordKind.NORMAL,
        )
        self._instances.append(instance)
        self._current = chosen
        return record

    def result(self) -> RunResult:
        """Snapshot of this run as a :class:`RunResult`."""
        return RunResult(
            workflow_instance=self._id,
            path=tuple(i.task_id for i in self._instances),
            instances=tuple(self._instances),
            completed=self.done,
        )

    def _decide_successor(
        self,
        task,
        inputs: Mapping[str, Any],
        outputs: Mapping[str, Any],
    ) -> Optional[str]:
        successors = self._spec.successors(task.task_id)
        if not successors:
            return None
        if len(successors) == 1:
            return successors[0]
        visible = dict(inputs)
        visible.update(outputs)
        chosen = task.choose(visible)  # validated non-None by the spec
        if chosen not in successors:
            raise BranchDecisionError(
                f"branch {task.task_id!r} chose {chosen!r}, not one of "
                f"{sorted(successors)}"
            )
        return chosen


class Engine:
    """Executes and interleaves workflow runs against shared state.

    The engine owns no store or log of its own; it coordinates runs over
    the store/log it was given, and remembers which spec each workflow
    instance executes (needed later by the
    :class:`~repro.workflow.dependency.DependencyAnalyzer`).
    """

    #: Supported interleaving policies for :meth:`interleave`.
    POLICIES = ("round_robin", "sequential", "random")

    def __init__(
        self,
        store: DataStore,
        log: SystemLog,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._store = store
        self._log = log
        self._rng = rng if rng is not None else random.Random(0)
        self._specs_by_instance: Dict[str, WorkflowSpec] = {}
        self._instance_seq = 0

    @property
    def store(self) -> DataStore:
        """The shared data store."""
        return self._store

    @property
    def log(self) -> SystemLog:
        """The shared system log."""
        return self._log

    @property
    def specs_by_instance(self) -> Dict[str, WorkflowSpec]:
        """Mapping workflow-instance id → spec (for dependency analysis)."""
        return dict(self._specs_by_instance)

    def new_run(
        self,
        spec: WorkflowSpec,
        workflow_instance: Optional[str] = None,
    ) -> WorkflowRun:
        """Create a run of ``spec``; auto-names it ``wf<N>`` if unnamed."""
        if workflow_instance is None:
            workflow_instance = f"wf{self._instance_seq}"
        self._instance_seq += 1
        self._specs_by_instance[workflow_instance] = spec
        return WorkflowRun(spec, workflow_instance)

    def run_to_completion(
        self,
        run: WorkflowRun,
        tamper: Optional[TamperHook] = None,
    ) -> RunResult:
        """Drive one run until it reaches an end node."""
        while not run.done:
            run.step(self._store, self._log, tamper)
        return run.result()

    def interleave(
        self,
        runs: Sequence[WorkflowRun],
        policy: str = "round_robin",
        tamper: Optional[TamperHook] = None,
    ) -> List[RunResult]:
        """Execute several runs concurrently under a scheduling policy.

        Policies
        --------
        ``round_robin``
            One task from each live run, cycling (Figure 1 style).
        ``sequential``
            Complete each run before starting the next.
        ``random``
            Pick a random live run for each step (uses the engine's rng).
        """
        if policy not in self.POLICIES:
            raise ExecutionError(
                f"unknown interleave policy {policy!r}; "
                f"expected one of {self.POLICIES}"
            )
        live = [r for r in runs if not r.done]
        if policy == "sequential":
            for run in live:
                self.run_to_completion(run, tamper)
        elif policy == "round_robin":
            while live:
                for run in list(live):
                    run.step(self._store, self._log, tamper)
                    if run.done:
                        live.remove(run)
        else:  # random
            while live:
                run = live[self._rng.randrange(len(live))]
                run.step(self._store, self._log, tamper)
                if run.done:
                    live.remove(run)
        return [r.result() for r in runs]
