"""The Figure 1 incident driver behind ``repro-workflow obs``.

:func:`run_figure1_observed` pushes the paper's Figure 1 attack through
:class:`~repro.system.SelfHealingSystem` on a sim-time clock and
records it into a :class:`~repro.obs.recorder.FlightRecorder`.  The
simulators need no driver of their own: an observed full-stack or
Gillespie run is the ordinary ``run_replication`` with the recorder on
its :class:`~repro.obs.events.EventBus`.  Every report — metrics, the
incident span tree, Prometheus text — is a replay of the log
(:mod:`repro.obs.provenance`).
"""

from __future__ import annotations

from repro.core.healer import HealReport
from repro.errors import RecoveryError
from repro.ids.alerts import Alert
from repro.obs.events import (
    EventBus,
    ObsEvent,
    ScanStep,
    TaskRedone,
    TaskUndone,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.tracing import ManualClock

__all__ = [
    "SimTimeDriver",
    "run_figure1_observed",
]


class SimTimeDriver:
    """Bus subscriber that advances a :class:`ManualClock` with the
    simulated cost of each pipeline operation.

    The operational system executes synchronously; in simulated time,
    each scan step costs ``scan_time × (1 + outstanding units)`` (the
    linear μ_k cross-check work of Section V-A) and each undo/redo
    costs ``task_time`` (the per-unit ξ work).  Subscribing this driver
    makes dwell times, heal durations, and span trees meaningful in
    sim-time without touching the system under observation.
    """

    def __init__(self, clock: ManualClock, scan_time: float = 1.0 / 15.0,
                 task_time: float = 1.0 / 20.0) -> None:
        self.clock = clock
        self.scan_time = scan_time
        self.task_time = task_time

    def __call__(self, event: ObsEvent) -> None:
        if isinstance(event, ScanStep):
            self.clock.advance(
                self.scan_time * (1 + event.outstanding_units)
            )
        elif isinstance(event, (TaskUndone, TaskRedone)):
            # Disposition-only notes announce a fate already paid for
            # (the closure undo); they cost no ξ work.
            if not getattr(event, "disposition", False):
                self.clock.advance(self.task_time)


def run_figure1_observed(
    recorder: FlightRecorder,
    false_alarms: int = 2,
    alert_buffer: int = 8,
    recovery_buffer: int = 8,
    scan_time: float = 1.0 / 15.0,
    task_time: float = 1.0 / 20.0,
) -> HealReport:
    """The paper's Figure 1 attack, driven through the Figure 2
    architecture and captured by ``recorder``.

    The genuine IDS alert for the forged ``t1`` arrives first; then
    ``false_alarms`` spurious alerts (uids never committed — classic
    IDS noise) follow, each 0.05 sim-seconds apart, so the
    queues actually fill and drain.  Scan and heal advance the manual
    clock via :class:`SimTimeDriver`.  The recorder gets the event
    stream between ``start`` and ``finalize`` marks, so
    :func:`repro.obs.provenance.replay` rebuilds the metrics and
    :func:`repro.obs.provenance.build_span_tree` the incident tree
    (detect → scan* → heal(undo, redo)).  Returns the heal report.

    Raises :class:`~repro.errors.RecoveryError` when the recovery
    buffer is too small to admit every queued alert (the paper's
    analyzer-blocked overflow).
    """
    from repro.scenarios.figure1 import build_figure1
    from repro.system import SelfHealingSystem, SystemState

    sc = build_figure1(attacked=True)
    clock = ManualClock()
    bus = EventBus()
    bus.subscribe(SimTimeDriver(clock, scan_time, task_time))
    recorder.attach(bus)

    system = SelfHealingSystem(
        sc.manager,
        alert_buffer=alert_buffer, recovery_buffer=recovery_buffer,
        bus=bus, clock=clock,
    )
    recorder.mark("start", clock.now, state="NORMAL")
    system.submit_alert(Alert(clock.now, sc.malicious_uid))
    for i in range(false_alarms):
        clock.advance(0.05)
        system.submit_alert(Alert(clock.now, f"noise/t0#{i + 1}"))
    while system.state is SystemState.SCAN:
        system.normal_task_admissible()  # strict gate: refusals count
        if system.scan_step() is None:
            raise RecoveryError(
                "analyzer blocked: recovery queue full while alerts "
                "are pending — increase the recovery buffer "
                f"(capacity {recovery_buffer})"
            )
    report = system.recovery_step()
    # Queue pops publish no event, so snapshot the final depths into
    # the mark and replay lands on the same gauge readings.
    recorder.mark("finalize", clock.now, gauges={
        "repro_alert_queue_depth": float(len(system.alert_queue)),
        "repro_recovery_queue_depth": float(len(system.recovery_queue)),
    })
    return report
