"""The recorded-incident driver behind ``repro-workflow obs --scenario
figure1`` and ``repro-workflow demo NAME --flight-log``.

:func:`record_incident` pushes a scenario's reported attack through
:class:`~repro.system.SelfHealingSystem` on a sim-time clock, settles
it with the system's own ``sweep()``, and records it into a
:class:`~repro.obs.recorder.FlightRecorder`.  The
simulators need no driver of their own: an observed full-stack or
Gillespie run is the ordinary ``run_replication`` with the recorder on
its :class:`~repro.obs.events.EventBus`.  Every report — metrics, the
incident span tree, Prometheus text — is a replay of the log
(:mod:`repro.obs.provenance`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.healer import HealReport
from repro.errors import ObsError
from repro.ids.alerts import Alert
from repro.obs.events import (
    EventBus,
    ObsEvent,
    TaskRedone,
    TaskUndone,
    UnitEmitted,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.tracing import ManualClock

if TYPE_CHECKING:
    from repro.scenarios.base import Scenario

__all__ = [
    "SimTimeDriver",
    "record_incident",
]


class SimTimeDriver:
    """Bus subscriber that advances a :class:`ManualClock` with the
    simulated cost of each pipeline operation.

    The operational system executes synchronously; in simulated time,
    each scan costs ``scan_time × queue depth`` once its
    ``UnitEmitted`` is published (the depth after the push is 1 + the
    outstanding units: the linear μ_k cross-check work of Section V-A)
    and each undo/redo costs ``task_time`` (the per-unit ξ work).
    Subscribing this driver makes dwell times, heal durations, and span
    trees meaningful in sim-time without touching the system under
    observation.
    """

    def __init__(self, clock: ManualClock, scan_time: float = 1.0 / 15.0,
                 task_time: float = 1.0 / 20.0) -> None:
        self.clock = clock
        self.scan_time = scan_time
        self.task_time = task_time

    def __call__(self, event: ObsEvent) -> None:
        if isinstance(event, UnitEmitted):
            self.clock.advance(self.scan_time * event.queue_depth)
        elif isinstance(event, (TaskUndone, TaskRedone)):
            # Disposition-only notes announce a fate already paid for
            # (the closure undo); they cost no ξ work.
            if not getattr(event, "disposition", False):
                self.clock.advance(self.task_time)


def record_incident(
    scenario: "Scenario",
    recorder: FlightRecorder,
    false_alarms: int = 0,
    alert_buffer: int = 8,
    recovery_buffer: int = 8,
    scan_time: float = 1.0 / 15.0,
    task_time: float = 1.0 / 20.0,
) -> HealReport:
    """Heal ``scenario``'s reported damage through the Figure 2
    architecture and capture the incident in ``recorder``.

    The scenario's alerts arrive first; then ``false_alarms`` spurious
    alerts (uids never committed — classic IDS noise) follow, every
    alert 0.05 sim-seconds after the one before, so the queues fill
    and drain.  The strict gate is probed once while damage is known,
    then :meth:`~repro.system.SelfHealingSystem.sweep` settles the run
    (it drains whenever the analyzer blocks, so an undersized recovery
    buffer heals too).  Scan and heal advance the manual clock via
    :class:`SimTimeDriver`.  The recorder gets the event stream between
    ``start`` and ``finalize`` marks, so
    :func:`repro.obs.provenance.replay` rebuilds the metrics and
    :func:`repro.obs.provenance.build_span_tree` the incident tree
    (detect → scan* → heal(undo, redo)).  The run ends at quiescence,
    so its recorder's header should carry ``conformance_finalized``.
    Returns the heal report.

    Raises :class:`~repro.errors.ObsError` for a scenario that reports
    forged workflow runs: they are not IDS alerts.
    """
    from repro.system import SelfHealingSystem

    malicious, forged_runs = scenario.reported()
    if forged_runs:
        raise ObsError(
            f"cannot record {type(scenario).__name__}: it reports "
            "forged workflow runs, which are not IDS alerts; the "
            "pipeline heals only alerts that name task uids"
        )

    clock = ManualClock()
    bus = EventBus()
    bus.subscribe(SimTimeDriver(clock, scan_time, task_time))
    recorder.attach(bus)
    system = SelfHealingSystem(
        scenario.manager,
        alert_buffer=alert_buffer, recovery_buffer=recovery_buffer,
        bus=bus, clock=clock,
    )
    recorder.mark("start", clock.now, state="NORMAL")
    noise = [f"noise/t0#{i + 1}" for i in range(false_alarms)]
    for i, uid in enumerate([*malicious, *noise]):
        if i:
            clock.advance(0.05)
        system.submit_alert(Alert(clock.now, uid))
    system.normal_task_admissible()  # strict gate: the refusal is logged
    report = system.sweep()[0]
    # Queue pops publish no event, so snapshot the final depths into
    # the mark and replay lands on the same gauge readings.
    recorder.mark("finalize", clock.now, gauges={
        "repro_alert_queue_depth": float(len(system.alert_queue)),
        "repro_recovery_queue_depth": float(len(system.recovery_queue)),
    })
    return report
