"""Multi-epoch operation: healing across sequential attack waves.

The :class:`~repro.core.healer.Healer` treats the log's normal records
as the authoritative history of *one epoch* — the paper's recovery also
runs once the alert queue has drained.  Real systems live longer than
one burst: new workflows run after a recovery, new attacks hit them, and
the next recovery must trust the previous recovery's results rather than
re-derive the world from the original initial data.

:class:`EpochManager` provides that lifecycle:

- workflows run (:meth:`EpochManager.new_run`) against the current
  epoch's log;
- ``heal()`` runs the healer against the current epoch and then *rolls*
  the epoch: the healed log is retired, a fresh empty log begins, and
  the current (healed) store versions become the next epoch's trusted
  baseline — later heals measure damage against them, exactly as the
  first heal measures damage against the initial data;
- a combined history across all epochs supports end-to-end
  strict-correctness audits against the original initial data; the
  audit keeps one resumable replay, so each audit replays only the
  steps healed since the previous one.

One consequence of rolling: alerts naming instances of an already-rolled
epoch are ignored by later heals (their log is retired).  Process every
alert of a burst *before* rolling — which is precisely the paper's
operating discipline: recovery starts only once the alert queue has
drained.

This is the package's one heal-and-audit path: the scenarios (the
attacked workloads of :func:`~repro.sim.recovery_sim.run_pipeline`
among them), the Figure 2 :class:`~repro.system.SelfHealingSystem`,
the full-stack simulator, the fleet and the fuzzer all heal through
:meth:`EpochManager.heal` and check Definition 2 through
:meth:`EpochManager.audit`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.axioms import CorrectnessReport, HistoryReplay, HistoryStep
from repro.core.healer import HealReport, Healer
from repro.errors import RecoveryError
from repro.obs.events import HealFinished, HealStarted
from repro.workflow.data import DataStore
from repro.workflow.engine import WorkflowRun
from repro.workflow.log import SystemLog
from repro.workflow.spec import WorkflowSpec

__all__ = ["EpochManager"]


class EpochManager:
    """Owns a store and a sequence of log epochs.

    Parameters
    ----------
    store:
        The (shared, versioned) data store.
    initial_data:
        The store's contents at creation — the ground truth for the
        combined audit.
    """

    def __init__(self, store: DataStore,
                 initial_data: Mapping[str, Any]) -> None:
        self._store = store
        self._initial_data = dict(initial_data)
        self._log = SystemLog()
        self._specs: Dict[str, WorkflowSpec] = {}
        self._baseline: Optional[Dict[str, int]] = None
        self._epoch = 0
        self._combined_history: List[HistoryStep] = []
        self._instance_seq = 0
        #: Definition 2 replay of ``_combined_history[:steps]``, extended
        #: lazily by :meth:`audit`.
        self._replay = HistoryReplay(self._specs, self._initial_data)

    # -- running workflows ---------------------------------------------------

    @property
    def epoch(self) -> int:
        """Index of the current epoch (0 before any heal)."""
        return self._epoch

    @property
    def store(self) -> DataStore:
        """The shared data store."""
        return self._store

    @property
    def log(self) -> SystemLog:
        """The current epoch's log."""
        return self._log

    @property
    def specs_by_instance(self) -> Mapping[str, WorkflowSpec]:
        """Spec of every workflow instance run so far (all epochs): a
        live read-only view, so an analyzer held across scans sees the
        instances run after it was built."""
        return MappingProxyType(self._specs)

    def new_run(self, spec: WorkflowSpec,
                name: Optional[str] = None) -> WorkflowRun:
        """Register a workflow instance in the current epoch and return
        its run, ready to be stepped against :attr:`store` and
        :attr:`log` (by hand, or interleaved with others through an
        :class:`~repro.workflow.engine.Engine`).

        Runs from earlier epochs must not be stepped after a heal —
        the log they would commit to is retired.
        """
        if name is None:
            name = f"e{self._epoch}.wf{self._instance_seq}"
        self._instance_seq += 1
        if name in self._specs:
            raise RecoveryError(
                f"workflow instance {name!r} already exists (instance ids "
                "must be unique across epochs)"
            )
        self._specs[name] = spec
        return WorkflowRun(spec, name)

    def run_workflow(self, spec: WorkflowSpec,
                     name: Optional[str] = None) -> str:
        """Run one workflow instance to completion in the current epoch;
        returns its instance id."""
        return self.run_workflow_attacked(spec, tamper=None, name=name)

    def run_workflow_attacked(self, spec: WorkflowSpec, tamper=None,
                              name: Optional[str] = None) -> str:
        """Like :meth:`run_workflow`, with an optional tamper hook."""
        run = self.new_run(spec, name)
        while not run.done:
            run.step(self._store, self._log, tamper)
        return run.workflow_instance

    # -- healing ----------------------------------------------------------------

    def heal(self, malicious, forged_runs=(), bus=None,
             clock=None, bracket: bool = False,
             profiler=None) -> HealReport:
        """Heal the current epoch, then roll to the next one.

        ``bus``/``clock`` are forwarded to the underlying
        :class:`~repro.core.healer.Healer` for per-task undo/redo
        observability (no-ops when ``None``).  ``bracket=True``
        additionally publishes the ``HealStarted``/``HealFinished``
        pair around the heal — callers that drive the manager directly
        (fleet sweeps, fuzz backlog drains, the fullstack simulator's
        ``commit_repairs``) opt in so the conformance monitor sees every
        undo/redo inside a heal bracket;
        ``SelfHealingSystem.recovery_step``, which publishes its
        dispatch schedule inside its own bracket, keeps the default.
        ``profiler`` (a :class:`~repro.obs.perf.PhaseProfiler`) is
        likewise forwarded for the undo/settle/reconcile wall-time
        split.
        """
        publish = (bracket and bus is not None and bus.active)
        started = clock() if (publish and clock is not None) else 0.0
        if publish:
            bus.publish(HealStarted(started, malicious=tuple(malicious)))
        healer = Healer(
            self._store, self._log, self._specs, baseline=self._baseline,
            bus=bus, clock=clock, profiler=profiler,
        )
        report = healer.heal(malicious, forged_runs=forged_runs)
        if publish:
            now = clock() if clock is not None else 0.0
            bus.publish(HealFinished(
                now,
                undone=len(report.undone),
                redone=len(report.redone),
                kept=len(report.kept),
                abandoned=len(report.abandoned),
                new_executions=len(report.new_executions),
                duration=now - started,
            ))
        self._combined_history.extend(report.final_history)
        self._roll_epoch(report)
        return report

    def _roll_epoch(self, report: HealReport) -> None:
        """Retire the healed log and open a fresh epoch."""
        self._log = SystemLog()
        # The current (healed) store versions become the next epoch's
        # trusted baseline ("the last version before the next attack").
        self._baseline = {
            name: self._store.latest(name).number
            for name in self._store.names()
        }
        self._epoch += 1

    # -- auditing ---------------------------------------------------------------

    @property
    def combined_history(self) -> Tuple[HistoryStep, ...]:
        """Healed history accumulated across all completed epochs."""
        return tuple(self._combined_history)

    def audit(self) -> CorrectnessReport:
        """Audit the accumulated healed history against the *original*
        initial data (Definition 2, end to end across epochs).

        Replays only the steps healed since the previous audit, then
        judges the whole replay against the live store; the report
        equals :func:`~repro.core.axioms.audit_strict_correctness` over
        :attr:`combined_history`.
        """
        self._replay.extend(
            self._combined_history[self._replay.steps:])
        return self._replay.judge(self._store.snapshot())
