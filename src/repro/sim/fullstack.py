"""Full-stack timed simulation: the queueing model wrapped around real
attacks, real damage analysis and real heals.

The other simulators abstract recovery work into exponential service
times.  Here the pipeline is real end to end, and its rules are the
Figure 2 :class:`~repro.system.SelfHealingSystem`'s; the simulator adds
only the clock:

- each *attack arrival* (Poisson, rate λ) executes an actual attacked
  workflow run against the shared store and submits a real IDS alert
  to the system (bounded queue — an arrival into a full queue is lost
  and joins the system's administrator backlog, Section IV-D);
- each *scan service* runs the actual recovery analyzer on one alert
  (``scan_step``); its simulated duration grows with the queued units
  (the μ_k cross-check work, modelled);
- each *recovery service* starts when the system says a drain is due
  (``recovery_due``) and lasts in proportion to the queued units; at
  its end ``recovery_step`` drains them, and commits — a real batch
  heal followed by a Definition 2 audit and an epoch roll — if no alert
  waits by then;
- services never overlap; at the horizon the system's ``sweep`` settles
  whatever is still in flight.

The simulation reports state occupancies (comparable to the CTMC's
categories), alert losses, and — because every heal is audited — a
proof that the system stayed strictly correct throughout the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.epochs import EpochManager
from repro.core.healer import HealReport
from repro.errors import SimulationError
from repro.ids.alerts import Alert
from repro.ids.attacks import AttackCampaign
from repro.markov.stg import StateCategory
from repro.obs.events import EventBus
from repro.obs.health import (
    ConformanceReport,
    HealthMonitor,
    ModelPrediction,
)
from repro.obs.perf import active, phase
from repro.sim.simulator import Simulator
from repro.system import SelfHealingSystem, SystemState
from repro.workflow.data import DataStore
from repro.workflow.spec import WorkflowSpec, workflow

__all__ = [
    "FullStackConfig",
    "FullStackResult",
    "FullStackSimulator",
    "ledger_spec",
    "flight_log_meta",
    "run_replication",
]


#: The CTMC's category of each Section IV-C operating state.
_CATEGORY_OF: Dict[SystemState, StateCategory] = {
    state: StateCategory[state.value] for state in SystemState
}


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
                                    bus=bus).run(horizon)
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
        (the paper's linear cross-check cost, modelled).
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


def ledger_spec(name: str) -> WorkflowSpec:
    """The per-attack ledger workflow: reads the shared balance, applies
    a delta, records a receipt (so damage chains across attacks).  The
    fleet's banking archetype runs the same victim."""
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

    Under a recording profiler (:mod:`repro.obs.perf`), the event-loop
    callbacks run inside the phases detect / buffer-wait / analyze /
    schedule / heal / audit, in wall *and* simulated time.
    """

    def __init__(
        self,
        config: Optional[FullStackConfig] = None,
        rng: Optional[random.Random] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self._config = config if config is not None else FullStackConfig()
        self._rng = rng if rng is not None else random.Random(0)
        self._bus = bus

    def run(self, horizon: float) -> FullStackResult:
        """Simulate ``[0, horizon]``; remaining damage is healed in a
        final sweep so the end-state audit covers everything."""
        if horizon <= 0:
            raise SimulationError(f"horizon must be > 0, got {horizon}")
        cfg, rng = self._config, self._rng
        prof = active()
        with phase("setup"):
            sim = Simulator()

            def clock() -> float:
                return min(sim.now, horizon)

            #: Simulated duration of the service that just completed,
            #: set at dispatch — the sim-time side of the analyze/heal
            #: phases.
            pending_service = {"scan": 0.0, "recovery": 0.0}

            initial = {"balance": 100}
            manager = EpochManager(DataStore(initial), initial)
            system = SelfHealingSystem(
                manager, alert_buffer=cfg.alert_buffer,
                recovery_buffer=cfg.recovery_buffer, bus=self._bus,
                clock=clock,
            )
            plans = system.recovery_queue
            scanning = False
            recovering = False
            attacks = 0
            heals = 0
            repaired = 0
            audits_ok = True

            time_in: Dict[StateCategory, float] = {
                c: 0.0 for c in StateCategory
            }
            last = 0.0
            held = StateCategory.NORMAL

        def account() -> None:
            """Bill the time since the last call to the state held
            since then; call after each callback's state changes."""
            nonlocal last, held
            now = clock()
            time_in[held] += now - last
            last = now
            held = _CATEGORY_OF[system.state]

        def audited(report: HealReport) -> None:
            """Count a committed heal and audit the system after it."""
            nonlocal heals, repaired, audits_ok
            heals += 1
            repaired += len(report.undone)
            with phase("audit"):
                audits_ok = audits_ok and manager.audit().ok

        def dispatch() -> None:
            """Start the next service if none runs: the drain the
            system says is due, else a scan of the oldest alert (one
            waits and the analyzer is not blocked, or the drain would
            be due)."""
            nonlocal scanning, recovering
            if scanning or recovering:
                return
            if system.recovery_due:
                recovering = True
                duration = cfg.unit_recovery_time * len(plans)
                pending_service["recovery"] = duration
                sim.schedule(duration, recovery_done)
            elif system.alerts_queued:
                scanning = True
                duration = cfg.scan_time * (1 + len(plans))
                pending_service["scan"] = duration
                sim.schedule(duration, scan_done)

        def attack() -> None:
            # Whole body under "detect": the attacked run, the alert
            # admission decision and the (cheap) dispatch.
            nonlocal attacks
            with phase("detect"):
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
                    ledger_spec(name), campaign, name=name
                )
                system.submit_alert(
                    Alert(clock(), campaign.malicious_uids[0]))
                sim.schedule(rng.expovariate(cfg.arrival_rate), attack)
                dispatch()
                account()

        def scan_done() -> None:
            # The scan runs under the system's own "analyze" phase; the
            # bookkeeping and the next dispatch are "schedule".
            nonlocal scanning
            system.scan_step()
            with phase("schedule"):
                if prof is not None:
                    # The scan service's simulated duration is the
                    # analyze phase's sim-time side, filed beside this
                    # phase (top level standalone, under "batch.worker"
                    # in an inline batch).
                    prof.add_external("analyze", 0.0,
                                      sim=pending_service["scan"],
                                      calls=0)
                scanning = False
                dispatch()
                account()

        def recovery_done() -> None:
            # A commit runs under the system's top-level "heal" phase
            # and its audit under "audit", for honest single-count
            # attribution; the next dispatch is "schedule".
            nonlocal recovering
            report = system.recovery_step()
            if report is not None:
                audited(report)
            with phase("schedule"):
                # The report is freed here, inside a phase, not when the
                # callback returns.
                del report
                if prof is not None:
                    # The recovery service's simulated duration is the
                    # heal phase's sim-time side.
                    prof.add_external("heal", 0.0,
                                      sim=pending_service["recovery"],
                                      calls=0)
                recovering = False
                dispatch()
                account()

        if cfg.arrival_rate > 0:
            sim.schedule(rng.expovariate(cfg.arrival_rate), attack)
        try:
            sim.run_until(horizon)
            account()
            for report in system.sweep():
                audited(report)
        finally:
            # The callbacks reach each other, and the simulator whose
            # heap still holds the next arrival, through closure cells.
            # Emptying those cells breaks the cycle, and emptying the
            # manager's frees the run's store, logs and specs by
            # reference counting, here, instead of at a later full
            # garbage collection or when this frame returns.  The
            # result is built in the same phase.
            with phase("teardown"):
                alerts_lost = system.alerts_lost
                del sim, attack, dispatch, scan_done, recovery_done, \
                    audited, system, plans, manager
                result = FullStackResult(
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
        return result
