"""Full-stack timed simulation: the queueing model wrapped around real
attacks, real damage analysis and real heals.

The other simulators abstract recovery work into exponential service
times.  Here the pipeline is real end to end:

- each *attack arrival* (Poisson, rate λ) executes an actual attacked
  workflow run against the shared store and enqueues a real IDS alert
  (bounded queue — arrivals into a full queue are lost; per Section
  IV-D the administrator ultimately reports lost ones, modeled as
  out-of-band reports at the next repair commit);
- each *scan service* runs the actual recovery analyzer on one alert,
  cross-checking it against the queued units (the μ_k work); its
  simulated duration grows accordingly;
- each *recovery service* drains the whole unit queue (duration
  proportional to the number of units); the drained units' repairs
  **commit** — a real batch heal followed by a Definition 2 audit and
  an epoch roll — as soon as no unreported damage is pending (the
  paper's discipline: the system is back to NORMAL only once all known
  damage is repaired);
- the operating rules are the architecture's: scan priority, analyzer
  blocked by a full recovery queue, no scan/recovery overlap.

The simulation reports state occupancies (comparable to the CTMC's
categories), alert losses, and — because every heal is audited — a
proof that the system stayed strictly correct throughout the run.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.analyzer import RecoveryAnalyzer
from repro.core.epochs import EpochManager
from repro.core.plan import RecoveryPlan
from repro.errors import SimulationError
from repro.ids.attacks import AttackCampaign
from repro.markov.stg import StateCategory
from repro.obs.events import (
    AlertEnqueued,
    AlertLost,
    EventBus,
    StateTransition,
    UnitEmitted,
)
from repro.obs.health import (
    ConformanceReport,
    HealthMonitor,
    ModelPrediction,
)
from repro.obs.perf import PhaseProfiler
from repro.sim.simulator import Simulator
from repro.workflow.data import DataStore
from repro.workflow.spec import WorkflowSpec, workflow

__all__ = [
    "FullStackConfig",
    "FullStackResult",
    "FullStackSimulator",
    "flight_log_meta",
    "run_replication",
]


def flight_log_meta(
    config: Optional["FullStackConfig"],
    horizon: float,
    seed: int,
    health: Optional[ModelPrediction] = None,
    loss_objective: Optional[float] = None,
) -> Dict[str, object]:
    """The header ``meta`` of a full-stack flight log: the run's whole
    input, so ``obs replay`` can rebuild it from the log alone.

    ``seed``, ``horizon`` and ``config`` (the :class:`FullStackConfig`
    fields) always; a health-monitored run adds ``health`` with the
    loss objective it ran under (``None``: the model-derived default).
    The null model itself is ``FullStackConfig(**config).stg()``.
    """
    from dataclasses import asdict

    meta: Dict[str, object] = {
        "seed": seed, "horizon": horizon,
        "config": asdict(config) if config is not None else {},
    }
    if health is not None:
        meta["health"] = {"loss_objective": loss_objective}
    return meta


def run_replication(
    config: "FullStackConfig",
    horizon: float,
    seed: int,
    bus: Optional[EventBus] = None,
    record_path: Optional[str] = None,
    health: Optional[ModelPrediction] = None,
    loss_objective: Optional[float] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> "FullStackResult":
    """One seeded full-stack replication.

    Module-level (hence picklable) entry point used by
    :mod:`repro.sim.batch`; the frozen :class:`FullStackConfig` plus a
    seed fully determine the run.  With ``record_path``, a
    :class:`~repro.obs.recorder.FlightRecorder` captures the run's full
    event stream to that file; every timestamp is simulated time, so
    the file is a pure function of ``(config, horizon, seed)`` —
    byte-identical no matter which process or worker pool produced it.

    With ``health``, a :class:`~repro.obs.health.HealthMonitor` rides
    the run and the result carries its conformance verdict.  The
    monitor attaches *after* the recorder, so a recorded log orders
    each SloTransition/DriftDetected right after the event that caused
    it — which is what lets ``obs replay`` reproduce the verdict
    sequence bit for bit.

    With ``profiler``, the run's phases accumulate into the caller's
    started :class:`~repro.obs.perf.PhaseProfiler` (see
    :class:`FullStackSimulator`).
    """
    from repro.obs.recorder import FlightRecorder

    recorder: Optional[FlightRecorder] = None
    monitor: Optional[HealthMonitor] = None
    if record_path is not None or health is not None:
        if bus is None:
            bus = EventBus()
    if record_path is not None:
        recorder = FlightRecorder(
            label="fullstack", path=record_path,
            meta=flight_log_meta(config, horizon, seed, health,
                                 loss_objective),
        ).attach(bus)
        recorder.mark("start", 0.0, state="NORMAL")
    if health is not None:
        monitor = HealthMonitor(health, loss_objective).attach(bus)
    try:
        result = FullStackSimulator(config, random.Random(seed),
                                    bus=bus,
                                    profiler=profiler).run(horizon)
        if recorder is not None:
            recorder.mark("finalize", horizon)
    finally:
        if recorder is not None:
            recorder.close()
    if monitor is not None:
        result.conformance = monitor.report()
    return result


@dataclass(frozen=True)
class FullStackConfig:
    """Knobs of the full-stack simulation.

    Attributes
    ----------
    arrival_rate:
        λ — attacks (and hence alerts) per time unit.
    scan_time:
        Base simulated duration of analyzing one alert with an empty
        recovery queue; each queued unit adds one more ``scan_time``
        (the measured linear cross-check cost).
    unit_recovery_time:
        Simulated duration of executing one recovery unit; draining
        ``k`` units takes ``k × unit_recovery_time``.
    alert_buffer, recovery_buffer:
        Queue capacities (Section IV-E).
    """

    arrival_rate: float = 1.0
    scan_time: float = 1.0 / 15.0
    unit_recovery_time: float = 1.0 / 20.0
    alert_buffer: int = 8
    recovery_buffer: int = 8

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be >= 0")
        if self.scan_time <= 0 or self.unit_recovery_time <= 0:
            raise ValueError("service times must be > 0")
        if self.alert_buffer < 1 or self.recovery_buffer < 1:
            raise ValueError("buffers must be >= 1")

    def stg(self):
        """The CTMC abstraction of this configuration.

        Maps the deterministic service *times* onto the model's rate
        schedules (``μ_k = 1/(k·scan_time)``, ``ξ_k`` likewise — the
        paper's linear degradation), giving the
        :class:`~repro.markov.stg.RecoverySTG` whose steady state is
        the health monitor's null model for this simulator.
        """
        from repro.markov.degradation import inverse_k
        from repro.markov.stg import RecoverySTG

        return RecoverySTG(
            arrival_rate=self.arrival_rate,
            scan=inverse_k(1.0 / self.scan_time),
            recovery=inverse_k(1.0 / self.unit_recovery_time),
            recovery_buffer=self.recovery_buffer,
            alert_buffer=self.alert_buffer,
        )


@dataclass
class FullStackResult:
    """Outcome of one full-stack run.

    Attributes
    ----------
    horizon:
        Simulated duration.
    category_occupancy:
        Fraction of time in NORMAL / SCAN / RECOVERY.
    attacks, alerts_lost:
        Attack runs executed / alerts dropped by the full queue.
    heals, all_heals_audited_ok:
        Committed batch heals, and whether every one of them (plus the
        final sweep) left the system strictly correct.
    repaired_instances:
        Total task instances undone across all heals.
    conformance:
        Per-replication SLO/drift verdict when the run was health-
        monitored (see :func:`run_replication`); ``None`` otherwise.
    """

    horizon: float
    category_occupancy: Dict[StateCategory, float]
    attacks: int
    alerts_lost: int
    heals: int
    all_heals_audited_ok: bool
    repaired_instances: int
    conformance: Optional[ConformanceReport] = None

    @property
    def loss_fraction(self) -> float:
        """Fraction of attacks whose alerts were lost."""
        if self.attacks == 0:
            return 0.0
        return self.alerts_lost / self.attacks


def _victim_spec(name: str) -> WorkflowSpec:
    """The per-attack workflow: reads the shared balance, applies a
    delta, records a receipt (so damage chains across attacks)."""
    return (
        workflow(name)
        .task("apply", reads=["balance"],
              writes=["balance", f"receipt_{name}"],
              compute=lambda d: {
                  "balance": d["balance"] + 10,
                  f"receipt_{name}": d["balance"] + 10,
              })
        .build()
    )


class FullStackSimulator:
    """Timed simulation with a real store, log, analyzer and healer.

    Parameters
    ----------
    config, rng:
        Simulation knobs and randomness source.
    bus:
        Optional :class:`repro.obs.events.EventBus`; when attached, the
        whole pipeline publishes typed events stamped with *simulated*
        time — alert arrivals and losses, scan steps (via the real
        analyzer), unit emissions, NORMAL/SCAN/RECOVERY transitions,
        and heal lifecycles including per-task undo/redo from the real
        healer.  ``None`` (default) adds no observable cost.
    profiler:
        Optional :class:`repro.obs.perf.PhaseProfiler` (started by the
        caller); when given, every event-loop callback runs inside an
        attributed phase — detect / buffer-wait / analyze (with the
        analyzer's closure/plan/verify split) / schedule / heal (with
        the healer's undo/settle/reconcile split) / audit — in wall
        time *and* simulated time.
    """

    def __init__(
        self,
        config: Optional[FullStackConfig] = None,
        rng: Optional[random.Random] = None,
        bus: Optional[EventBus] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self._config = config if config is not None else FullStackConfig()
        self._rng = rng if rng is not None else random.Random(0)
        self._bus = bus
        self._profiler = profiler

    def run(self, horizon: float) -> FullStackResult:
        """Simulate ``[0, horizon]``; remaining damage is healed in a
        final sweep so the end-state audit covers everything."""
        if horizon <= 0:
            raise SimulationError(f"horizon must be > 0, got {horizon}")
        cfg, rng = self._config, self._rng
        bus = self._bus if self._bus is not None and self._bus.active \
            else None
        prof = self._profiler
        sim = Simulator()

        #: uid → arrival time of accepted alerts (buffer-wait dwell).
        enqueued_at: Dict[str, float] = {}
        #: Simulated duration of the service that just completed, set at
        #: dispatch — the sim-time side of the analyze/heal phases.
        pending_service = {"scan": 0.0, "recovery": 0.0}

        initial = {"balance": 100}
        manager = EpochManager(DataStore(initial), initial)
        #: The current epoch's analyzer: it keeps its dependency index
        #: across scans and is dropped when a heal rolls the epoch.
        analyzer: Optional[RecoveryAnalyzer] = None

        alert_queue: List[str] = []          # uids awaiting analysis
        unit_queue: List[RecoveryPlan] = []  # units awaiting execution
        executed_uids: List[str] = []        # drained, not yet committed
        lost_backlog: List[str] = []         # lost alerts (admin reports)
        scanning = False
        recovering = False
        attacks = 0
        alerts_lost = 0
        heals = 0
        repaired = 0
        audits_ok = True

        time_in: Dict[StateCategory, float] = {
            c: 0.0 for c in StateCategory
        }
        last = 0.0

        def category() -> StateCategory:
            if alert_queue or scanning:
                return StateCategory.SCAN
            if unit_queue or recovering:
                return StateCategory.RECOVERY
            return StateCategory.NORMAL

        last_category = StateCategory.NORMAL

        def account() -> None:
            nonlocal last
            now = min(sim.now, horizon)
            time_in[category()] += now - last
            last = now

        def note_state() -> None:
            """Publish a StateTransition if the category changed; call
            after queue/flag mutations so timestamps match the cause."""
            nonlocal last_category
            if bus is None:
                return
            cat = category()
            if cat is not last_category:
                bus.publish(StateTransition(
                    min(sim.now, horizon),
                    old=last_category.name, new=cat.name,
                ))
                last_category = cat

        def commit_repairs() -> None:
            """Real heal of everything drained so far, plus admin
            reports for lost alerts; runs at quiescence."""
            nonlocal heals, repaired, audits_ok, analyzer
            uids = executed_uids + lost_backlog
            if not uids:
                return
            executed_uids.clear()
            lost_backlog.clear()
            now = min(sim.now, horizon)
            with (prof.phase("heal") if prof is not None
                  else nullcontext()):
                # Commits are instantaneous in sim time: the bracket's
                # HealFinished carries duration 0.
                report = manager.heal(uids, bus=bus, clock=lambda: now,
                                      bracket=True, profiler=prof)
                analyzer = None  # the epoch rolled; free its index
            heals += 1
            repaired += len(report.undone)
            with (prof.phase("audit") if prof is not None
                  else nullcontext()):
                audits_ok = audits_ok and manager.audit().ok

        def dispatch() -> None:
            nonlocal scanning, recovering
            if scanning or recovering:
                return
            blocked = len(unit_queue) >= cfg.recovery_buffer
            if alert_queue and not blocked:
                scanning = True
                duration = cfg.scan_time * (1 + len(unit_queue))
                pending_service["scan"] = duration
                sim.schedule(duration, scan_done, "scan")
            elif unit_queue and (not alert_queue or blocked):
                recovering = True
                duration = cfg.unit_recovery_time * len(unit_queue)
                pending_service["recovery"] = duration
                sim.schedule(duration, recovery_done, "recovery")
            elif not alert_queue and not unit_queue:
                commit_repairs()  # quiescent: repairs take effect

        def attack() -> None:
            # Whole body under "detect": the attacked run, the alert
            # admission decision and the (cheap) dispatch.  dispatch()
            # cannot reach commit_repairs here — the alert queue is
            # never empty after an arrival — so heal/audit stay
            # top-level phases.
            nonlocal attacks, alerts_lost
            with (prof.phase("detect") if prof is not None
                  else nullcontext()):
                account()
                attacks += 1
                name = f"atk{attacks}"
                campaign = AttackCampaign().transform_task(
                    "apply",
                    lambda i, o: {
                        k: (v + 5000 if k == "balance" else v)
                        for k, v in o.items()
                    },
                    workflow_instance=name,
                )
                manager.run_workflow_attacked(
                    _victim_spec(name), campaign, name=name
                )
                uid = campaign.malicious_uids[0]
                if len(alert_queue) >= cfg.alert_buffer:
                    alerts_lost += 1
                    lost_backlog.append(uid)
                    if bus is not None:
                        bus.publish(AlertLost(
                            min(sim.now, horizon), uid=uid,
                            queue_depth=len(alert_queue),
                        ))
                else:
                    alert_queue.append(uid)
                    enqueued_at[uid] = min(sim.now, horizon)
                    if bus is not None:
                        bus.publish(AlertEnqueued(
                            min(sim.now, horizon), uid=uid,
                            queue_depth=len(alert_queue),
                        ))
                sim.schedule(rng.expovariate(cfg.arrival_rate), attack,
                             "attack")
                dispatch()
                note_state()

        def scan_done() -> None:
            # Whole body under "analyze" (the closure/plan split comes
            # from the analyzer's own sub-phases).  dispatch() cannot
            # commit here — the unit queue is never empty after the
            # plan is appended.
            nonlocal scanning, analyzer
            with (prof.phase("analyze") if prof is not None
                  else nullcontext()):
                if prof is not None:
                    # Filed beside (not inside) "analyze", at whatever
                    # stack depth this run executes — top level
                    # standalone, under "batch.worker" in an inline
                    # batch.  Sim-time only, and booked from inside the
                    # phase so the bookkeeping is attributed.
                    dwell_now = min(sim.now, horizon)
                    queued_at = enqueued_at.pop(alert_queue[0], None)
                    if queued_at is not None:
                        prof.add_external("buffer-wait", 0.0,
                                          sim=dwell_now - queued_at)
                    # The scan service's simulated duration is the
                    # analyze phase's sim-time side.
                    prof.add_external("analyze", 0.0,
                                      sim=pending_service["scan"],
                                      calls=0)
                account()
                scanning = False
                uid = alert_queue.pop(0)
                now = min(sim.now, horizon)
                if analyzer is None:
                    analyzer = RecoveryAnalyzer(
                        manager.log, manager.specs_by_instance, bus=bus,
                        clock=lambda: min(sim.now, horizon), profiler=prof,
                    )
                plan = analyzer.analyze([uid],
                                        outstanding=list(unit_queue))
                unit_queue.append(plan)
                if bus is not None:
                    bus.publish(UnitEmitted(
                        now, units=plan.units,
                        queue_depth=len(unit_queue),
                    ))
                dispatch()
                note_state()

        def recovery_done() -> None:
            # The drain itself is "schedule"; dispatch() stays OUTSIDE
            # the phase because quiescence commits repairs here, and
            # the heal/audit phases must stay top-level for honest
            # single-count attribution.
            nonlocal recovering
            with (prof.phase("schedule") if prof is not None
                  else nullcontext()):
                if prof is not None:
                    # The recovery service's simulated duration is the
                    # heal phase's sim-time side; filed beside the
                    # schedule phase so it merges with the wall-time
                    # "heal" entry that commit_repairs records at this
                    # same depth.
                    prof.add_external("heal", 0.0,
                                      sim=pending_service["recovery"],
                                      calls=0)
                account()
                recovering = False
                if bus is not None:
                    # Realized dispatch order of the drained units,
                    # FIFO across units, Theorem 3 order within each.
                    from repro.workflow.scheduler import (
                        PartialOrderScheduler,
                    )

                    now = min(sim.now, horizon)
                    for plan in unit_queue:
                        PartialOrderScheduler(
                            plan.order, executor=lambda action: None,
                            bus=bus, clock=lambda: now,
                        ).run()
                # A generator, so no local keeps the last plan alive
                # and the drained plans are freed inside this phase.
                executed_uids.extend(
                    uid for plan in unit_queue for uid in plan.alert_uids)
                unit_queue.clear()
            dispatch()
            note_state()

        if cfg.arrival_rate > 0:
            sim.schedule(rng.expovariate(cfg.arrival_rate), attack,
                         "attack")
        try:
            sim.run_until(horizon)
            account()

            # Final sweep: heal everything still anywhere in the pipeline.
            executed_uids.extend(alert_queue)
            alert_queue.clear()
            for plan in unit_queue:
                executed_uids.extend(plan.alert_uids)
            unit_queue.clear()
            scanning = recovering = False
            commit_repairs()
            note_state()
        finally:
            # The callbacks reach each other, and the simulator whose
            # heap still holds the next arrival, through closure cells.
            # Emptying those cells breaks the cycle, so the run's
            # store, logs and specs are freed by reference counting
            # instead of waiting for a full garbage collection.
            del sim, attack, dispatch, scan_done, recovery_done

        return FullStackResult(
            horizon=horizon,
            category_occupancy={
                c: t / horizon for c, t in time_in.items()
            },
            attacks=attacks,
            alerts_lost=alerts_lost,
            heals=heals,
            all_heals_audited_ok=audits_ok,
            repaired_instances=repaired,
        )
