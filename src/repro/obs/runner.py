"""The Figure 1 incident driver behind ``repro-workflow obs``.

:func:`run_figure1_observed` pushes the paper's Figure 1 attack through
:class:`~repro.system.SelfHealingSystem` on a sim-time clock and builds
the incident span tree (detect → scan* → heal(undo, redo)).  The
simulators need no driver of their own: an observed full-stack or
Gillespie run is the ordinary ``run_replication`` with an
:class:`~repro.obs.events.EventBus` carrying a
:class:`~repro.obs.metrics.PipelineMetrics`, an
:class:`~repro.obs.events.EventRecorder` and, when recording, a
:class:`~repro.obs.recorder.FlightRecorder`.  :class:`ObsRun` bundles
what a report needs from either kind of run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import RecoveryError
from repro.ids.alerts import Alert
from repro.obs.events import (
    EventBus,
    EventRecorder,
    ObsEvent,
    ScanStep,
    TaskRedone,
    TaskUndone,
)
from repro.obs.metrics import PipelineMetrics
from repro.obs.recorder import FlightRecorder
from repro.obs.tracing import ManualClock, Span

__all__ = [
    "ObsRun",
    "SimTimeDriver",
    "run_figure1_observed",
]


@dataclass
class ObsRun:
    """Everything one instrumented run produced.

    Attributes
    ----------
    metrics:
        The populated pipeline-metrics collector (finalized).
    events:
        Every published event, in order.
    spans:
        Root spans of the incident trace (empty for simulators that
        have no natural incident nesting).
    result:
        Scenario-specific payload (heal report, simulator result, ...).
    """

    metrics: PipelineMetrics
    events: List[ObsEvent] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)
    result: object = None


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
    false_alarms: int = 2,
    alert_buffer: int = 8,
    recovery_buffer: int = 8,
    scan_time: float = 1.0 / 15.0,
    task_time: float = 1.0 / 20.0,
    flight: Optional[FlightRecorder] = None,
) -> ObsRun:
    """The paper's Figure 1 attack, driven through the Figure 2
    architecture with full observability.

    The genuine IDS alert for the forged ``t1`` arrives first; then
    ``false_alarms`` spurious alerts (uids never committed — classic
    IDS noise) follow, each 0.05 sim-seconds apart, so the
    queues actually fill and drain.  Scan and heal advance the manual
    clock via :class:`SimTimeDriver`.  Returns metrics, the full event
    stream, and one incident span tree
    (detect → scan* → heal(undo, redo)).

    Raises :class:`~repro.errors.RecoveryError` when the recovery
    buffer is too small to admit every queued alert (the paper's
    analyzer-blocked overflow).

    Passing a :class:`~repro.obs.recorder.FlightRecorder` as ``flight``
    captures the run — events plus ``start``/``finalize`` marks — so
    :func:`repro.obs.provenance.replay` can reconstruct it exactly.
    """
    from repro.scenarios.figure1 import build_figure1
    from repro.system import SelfHealingSystem, SystemState

    sc = build_figure1(attacked=True)
    clock = ManualClock()
    bus = EventBus()
    bus.subscribe(SimTimeDriver(clock, scan_time, task_time))
    metrics = PipelineMetrics().attach(bus)
    recorder = EventRecorder().attach(bus)
    if flight is not None:
        flight.attach(bus)

    system = SelfHealingSystem(
        sc.manager,
        alert_buffer=alert_buffer, recovery_buffer=recovery_buffer,
        bus=bus, clock=clock,
    )
    metrics.bind_queue(system.alert_queue, "alert")
    metrics.bind_queue(system.recovery_queue, "recovery")
    metrics.start(clock.now)
    if flight is not None:
        flight.mark("start", clock.now, state="NORMAL")

    incident = Span("incident", clock.now, {"scenario": "figure1"})

    def add_child(name: str, start: float, **attributes) -> Span:
        """Close an incident child span that opened at ``start``."""
        span = Span(name, start, attributes)
        span.end = clock.now
        incident.children.append(span)
        return span

    start = clock.now
    system.submit_alert(Alert(clock.now, sc.malicious_uid))
    for i in range(false_alarms):
        clock.advance(0.05)
        system.submit_alert(Alert(clock.now, f"noise/t0#{i + 1}"))
    add_child("detect", start, genuine=1, false_alarms=false_alarms)
    scans = 0
    while system.state is SystemState.SCAN:
        system.normal_task_admissible()  # strict gate: refusals count
        start = clock.now
        plan = system.scan_step()
        if plan is None:
            raise RecoveryError(
                "analyzer blocked: recovery queue full while alerts "
                "are pending — increase the recovery buffer "
                f"(capacity {recovery_buffer})"
            )
        scans += 1
        add_child("scan", start, step=scans)
    start, units = clock.now, system.recovery_units_queued
    report = system.recovery_step()
    heal = add_child("heal", start, units=units)
    # The heal is atomic from the runner's side; reconstruct its
    # undo/redo sub-phases from the per-task event timestamps (the
    # events are stamped at operation start, before the sim-time
    # driver advances the clock by task_time).
    for name, ev_type in (("undo", TaskUndone), ("redo", TaskRedone)):
        times = [e.time for e in recorder.of_type(ev_type)
                 if not getattr(e, "disposition", False)]
        if times:
            child = Span(name, times[0], {"tasks": len(times)})
            child.end = times[-1] + task_time
            heal.children.append(child)
    incident.end = clock.now
    metrics.finalize(clock.now)
    if flight is not None:
        # Queue-depth gauges are driven by queue hooks (pops included),
        # which the event stream cannot see; snapshot their final
        # values into the mark so replay lands on the same reading.
        flight.mark("finalize", clock.now, gauges={
            "repro_alert_queue_depth": metrics.alert_depth.value,
            "repro_recovery_queue_depth": metrics.recovery_depth.value,
        })

    return ObsRun(
        metrics=metrics,
        events=list(recorder.events),
        spans=[incident],
        result=report,
    )
