"""Live SLO health monitoring and CTMC model-conformance checking.

The CTMC of Section IV sizes the system's buffers from assumed rates
(λ, μ_k, ξ_k) and promises a loss probability (Definition 3) and an
ε-convergence (Definition 4) in return.  Those promises are only worth
anything while reality matches the model — so this module watches the
live event stream and continuously answers two questions:

1. **Are we meeting the objective?**  A windowed loss-fraction estimate
   with a Wilson confidence interval drives a ``loss`` SLO through
   OK / WARN / BREACH.
2. **Is the model still right?**  Drift detectors compare the observed
   workload against the calibrated :class:`ModelPrediction`: a
   two-sided CUSUM on model-normalized inter-arrival times, a
   Page–Hinkley test on model-standardized alert-queue depth (armed
   only when the model leaves depth headroom), and a periodic G-test of
   the windowed alert-occupancy histogram against the steady-state
   marginal.  Any alarm breaches the ``model-conformance`` SLO.

The :class:`HealthMonitor` is driven purely by event timestamps —
simulated or wall-clock, it never reads a clock — so feeding it the
same event sequence always reproduces the same verdicts:
:func:`replay_verdicts` exploits that to re-derive a flight log's SLO
history bit for bit.  Per-replication :class:`ConformanceReport`
snapshots are plain data and merge order-independently
(:func:`merge_conformance`), which keeps batch runs bit-identical at
any worker count.

Routing: one table, event type → handler, serves both the bus and
replays.  :meth:`HealthMonitor.attach` subscribes each entry for its
own type, so the bus's type lookup is the only dispatch an event takes
to its handler; :meth:`HealthMonitor.handle` looks the same table up.
Types only the LTLf pack reads go straight to
:meth:`ConformanceMonitor.consume <repro.obs.monitor.ConformanceMonitor.consume>`,
which routes them by type once more to the properties that read them.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ObsError
from repro.obs.events import (
    AlertEnqueued,
    AlertLost,
    ConformanceViolation,
    DriftDetected,
    EventBus,
    HealFinished,
    HealStarted,
    NormalTaskRefused,
    ObsEvent,
    OrderConstraint,
    RedoDecision,
    SloTransition,
    StateTransition,
    TaskRedone,
    TaskUndone,
    UndoDecision,
    UnitEmitted,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ConformanceMonitor
from repro.obs.windows import (
    Cusum,
    OccupancyWindow,
    PageHinkley,
    RateWindow,
    g_test,
)

if TYPE_CHECKING:  # deferred: repro.markov imports back into repro.core
    from repro.markov.stg import RecoverySTG

__all__ = [
    "SloState",
    "SloSpec",
    "Slo",
    "ModelPrediction",
    "HealthMonitor",
    "ConformanceReport",
    "merge_conformance",
    "replay_verdicts",
    "wilson_interval",
    "worst_state",
]


class SloState(str, Enum):
    """Verdict of one service-level objective."""

    OK = "OK"
    WARN = "WARN"
    BREACH = "BREACH"


#: Severity order used when merging verdicts (max wins).
_SEVERITY: Dict[SloState, int] = {
    SloState.OK: 0, SloState.WARN: 1, SloState.BREACH: 2,
}


def _worst(states: Sequence[SloState]) -> SloState:
    worst = SloState.OK
    for s in states:
        if _SEVERITY[s] > _SEVERITY[worst]:
            worst = s
    return worst


def worst_state(states: Sequence[SloState]) -> SloState:
    """Max-severity fold of SLO states (OK < WARN < BREACH).

    The associative, commutative rollup the fleet ``/slo`` view uses
    to aggregate per-tenant verdicts — any grouping or ordering of
    tenants yields the same fleet verdict.
    """
    return _worst(states)


def wilson_interval(
    successes: float, trials: float, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at p≈0 — exactly where a healthy system's loss
    fraction lives — unlike the normal approximation, which collapses
    to a zero-width interval there.
    """
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        p * (1 - p) / trials + z * z / (4 * trials * trials)
    )
    return (max(center - half, 0.0), min(center + half, 1.0))


@dataclass(frozen=True)
class SloSpec:
    """Definition of one SLO: the measured value must stay at or below
    ``objective``."""

    name: str
    objective: float
    description: str = ""
    min_samples: int = 50


class Slo:
    """One SLO's state machine.

    Verdict rules (after the ``min_samples`` warm-up):

    - ``value <= objective`` → OK;
    - value above objective but the CI still contains it
      (``ci_low <= objective``) → WARN — plausibly still fine;
    - the whole CI above the objective (``ci_low > objective``) →
      BREACH — statistically incompatible with the target.

    The warm-up keeps the false-positive rate bounded: verdicts are
    withheld (state stays where it was) until enough samples exist for
    the interval to mean something.
    """

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self.state = SloState.OK
        self.value = 0.0
        self.ci: Tuple[float, float] = (0.0, 0.0)
        self.samples = 0.0
        self.transitions = 0

    @property
    def burn_rate(self) -> float:
        """How fast the budget burns: measured value / objective (1.0
        means exactly at target)."""
        if self.spec.objective <= 0:
            return math.inf if self.value > 0 else 0.0
        return self.value / self.spec.objective

    def evaluate(
        self,
        value: float,
        ci: Tuple[float, float],
        samples: float,
    ) -> Optional[Tuple[SloState, SloState]]:
        """Fold in a new measurement; returns ``(old, new)`` when the
        verdict changed, else ``None``."""
        self.value = value
        self.ci = ci
        self.samples = samples
        if samples < self.spec.min_samples:
            return None
        if value <= self.spec.objective:
            new = SloState.OK
        elif ci[0] <= self.spec.objective:
            new = SloState.WARN
        else:
            new = SloState.BREACH
        if new is self.state:
            return None
        old, self.state = self.state, new
        self.transitions += 1
        return (old, new)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot (the ``/slo`` endpoint's row)."""
        return {
            "name": self.spec.name,
            "state": self.state.value,
            "value": self.value,
            "objective": self.spec.objective,
            "ci": [self.ci[0], self.ci[1]],
            "burn_rate": self.burn_rate,
            "samples": self.samples,
            "transitions": self.transitions,
            "description": self.spec.description,
        }


@dataclass(frozen=True)
class ModelPrediction:
    """What the calibrated CTMC promises — the monitor's null model.

    Built once per run via :meth:`from_stg` (a steady-state solve);
    plain data so it pickles to replication workers.
    """

    arrival_rate: float
    loss_probability: float
    expected_alerts: float
    expected_units: float
    alert_marginal: Tuple[float, ...]
    unit_marginal: Tuple[float, ...]
    alert_buffer: int
    recovery_buffer: int
    convergence_time: Optional[float] = None
    #: π-weighted integrated autocorrelation time of the alert levels
    #: (:func:`repro.markov.metrics.occupancy_correlation_time`) — the
    #: design-effect timescale the occupancy G-test divides window time
    #: by to get an honest effective sample size.
    occupancy_corr_time: float = 1.0

    @classmethod
    def from_stg(
        cls,
        stg: RecoverySTG,
        backend: Optional[str] = None,
        with_convergence: bool = False,
    ) -> "ModelPrediction":
        """Solve ``stg``'s steady state and package the predictions.

        ``with_convergence`` additionally computes Definition 4's
        time-to-convergence (a transient sweep — noticeably more work
        than the steady-state solve, so off by default).
        """
        from repro.markov.metrics import (
            convergence_time,
            expected_alerts,
            expected_recovery_units,
            loss_probability,
            occupancy_correlation_time,
        )
        from repro.markov.steady_state import steady_state

        chain = stg.ctmc()
        pi = steady_state(chain, backend=backend)
        alert_m = [0.0] * (stg.alert_buffer + 1)
        unit_m = [0.0] * (stg.recovery_buffer + 1)
        for s in stg.states:
            p = float(pi[chain.index_of(s)])
            alert_m[s.alerts] += p
            unit_m[s.units] += p
        conv: Optional[float] = None
        if with_convergence:
            conv = convergence_time(stg, backend=backend)
        return cls(
            arrival_rate=stg.arrival_rate,
            loss_probability=loss_probability(stg, pi),
            expected_alerts=expected_alerts(stg, pi),
            expected_units=expected_recovery_units(stg, pi),
            alert_marginal=tuple(alert_m),
            unit_marginal=tuple(unit_m),
            alert_buffer=stg.alert_buffer,
            recovery_buffer=stg.recovery_buffer,
            convergence_time=conv,
            occupancy_corr_time=occupancy_correlation_time(stg),
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form (embedded in the ``/slo`` payload)."""
        return {
            "arrival_rate": self.arrival_rate,
            "loss_probability": self.loss_probability,
            "expected_alerts": self.expected_alerts,
            "expected_units": self.expected_units,
            "alert_buffer": self.alert_buffer,
            "recovery_buffer": self.recovery_buffer,
            "convergence_time": self.convergence_time,
            "occupancy_corr_time": self.occupancy_corr_time,
        }


#: Monitor tuning, sized for the paper's Figure 4/5 workloads (event
#: rates of order 1–20 per time unit): a window long enough to hold a
#: few hundred arrivals, detector thresholds with in-control average
#: run lengths of tens of thousands of events (so a no-drift run
#: essentially never false-alarms — pinned by the detector tests).
WINDOW = 200.0
Z = 1.96
LOSS_MIN_SAMPLES = 50
CUSUM_K = 0.5
CUSUM_H = 24.0
#: Winsorization cap on the model-normalized inter-arrival gap fed to
#: the CUSUM.  Exp(1) gaps are heavy-tailed — a handful of long gaps
#: can spike the rate-decrease side without any rate change; clipping
#: at 8 (exceeded with probability ~3e-4 per arrival) bounds the
#: per-sample jump while leaving any *sustained* shift fully visible.
CUSUM_CLIP = 8.0
#: Page–Hinkley drift allowance / alarm threshold, in units of the
#: model marginal's depth standard deviation (the monitor feeds the
#: detector ``(depth − μ_model)/σ_model``).
PH_DELTA = 0.5
PH_THRESHOLD = 25.0
PH_MIN_SAMPLES = 30
#: Minimum model headroom ``(buffer − μ_model)/σ_model`` required to
#: arm Page–Hinkley at all.  A heavily loaded model whose marginal
#: already spans the whole buffer (e.g. λ=2 with buffer 8) leaves no
#: depth regime the detector could call anomalous — conformant
#: excursions saturate the queue for long autocorrelated stretches and
#: any mean-shift test on them false-alarms.  With no headroom the
#: occupancy G-test and the arrival CUSUM carry drift detection.
PH_MIN_HEADROOM = 3.0
GTEST_ALPHA = 1e-4
GTEST_EVERY = 64
GTEST_MIN_COUNT = 200


def resolved_loss_objective(
    loss_objective: Optional[float], prediction: ModelPrediction
) -> float:
    """The loss SLO target: ``loss_objective`` when set, else three
    times the model's predicted loss probability floored at 1e-3 (a
    correctly sized system keeps a healthy margin below this)."""
    if loss_objective is not None:
        return loss_objective
    return max(3.0 * prediction.loss_probability, 1e-3)


#: Category-level codes for the state-occupancy window.
_CATEGORY_LEVEL = {"NORMAL": 0, "SCAN": 1, "RECOVERY": 2}


@lru_cache(maxsize=1024)
def _parse_state(name: str) -> Optional[Tuple[int, int]]:
    """Decode a full STG state string into ``(alerts, units)``
    (memoized: a run names few states, once per transition).

    Understands the :class:`~repro.markov.stg.State` renderings ``"N"``,
    ``"S:a/r"``, ``"R:r"``; returns ``None`` for category-only names
    (the fullstack system's NORMAL/SCAN/RECOVERY), where queue depths
    come from the per-event ``queue_depth`` fields instead.
    """
    if name == "N":
        return (0, 0)
    if name.startswith("S:"):
        try:
            a, r = name[2:].split("/", 1)
            return (int(a), int(r))
        except ValueError:
            return None
    if name.startswith("R:"):
        try:
            return (0, int(name[2:]))
        except ValueError:
            return None
    return None


class HealthMonitor:
    """Online conformance monitor: event stream in, verdicts out.

    Subscribe it to the bus the system/simulator publishes on
    (:meth:`attach`); it estimates λ̂, μ̂, ξ̂, queue occupancies and the
    loss fraction over a trailing window, evaluates its SLOs on every
    arrival, and runs the drift detectors.  Verdict changes are
    published back onto the same bus as
    :class:`~repro.obs.events.SloTransition` /
    :class:`~repro.obs.events.DriftDetected` events (and always
    collected in :attr:`emitted`), so the flight recorder logs them in
    causal order — attach the recorder *before* the monitor and each
    verdict lands just after the event that triggered it.

    The monitor subscribes with an explicit type list that excludes its
    own event kinds, so republishing through the bus cannot loop.
    """

    #: Event types the monitor consumes (the estimators' inputs plus
    #: everything the embedded LTLf conformance monitor reads).
    CONSUMES = (
        AlertEnqueued, AlertLost, UnitEmitted,
        StateTransition, HealFinished,
        HealStarted, TaskUndone, TaskRedone, NormalTaskRefused,
        UndoDecision, RedoDecision, OrderConstraint,
    )

    def __init__(
        self,
        prediction: ModelPrediction,
        loss_objective: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.prediction = prediction
        self._bus: Optional["weakref.ReferenceType[EventBus]"] = None

        # -- estimators ---------------------------------------------------
        self._arrivals = RateWindow(WINDOW)
        self._losses = RateWindow(WINDOW)
        self._scans = RateWindow(WINDOW)
        self._recoveries = RateWindow(WINDOW)
        self._alert_occ = OccupancyWindow(WINDOW)
        self._unit_occ = OccupancyWindow(WINDOW)
        self._category_occ = OccupancyWindow(WINDOW)

        # -- drift detectors ----------------------------------------------
        self._cusum = Cusum(target=1.0, k=CUSUM_K, h=CUSUM_H)
        self._ph = PageHinkley(delta=PH_DELTA, threshold=PH_THRESHOLD,
                               min_samples=PH_MIN_SAMPLES)
        # Page–Hinkley runs on model-standardized depth samples, and
        # only when the model's own marginal leaves headroom below the
        # buffer ceiling (see PH_MIN_HEADROOM).
        marginal = prediction.alert_marginal
        depth_mean = sum(k * p for k, p in enumerate(marginal))
        depth_var = (sum(k * k * p for k, p in enumerate(marginal))
                     - depth_mean * depth_mean)
        self._depth_mean = depth_mean
        self._depth_sd = max(math.sqrt(max(depth_var, 0.0)), 0.5)
        buffer_top = max(len(marginal) - 1, 1)
        self.ph_armed = (
            (buffer_top - depth_mean) / self._depth_sd
            >= PH_MIN_HEADROOM
        )
        self._last_arrival: Optional[float] = None
        self._tripped: Dict[str, DriftDetected] = {}
        self._gtest_p: Optional[float] = None

        # -- totals (cumulative — feed the ConformanceReport) -------------
        self.now = 0.0
        self.total_arrivals = 0
        self.total_losses = 0
        self.total_scans = 0
        self.total_recoveries = 0

        # -- SLOs ----------------------------------------------------------
        loss_obj = resolved_loss_objective(loss_objective, prediction)
        self.slos: Dict[str, Slo] = {
            "loss": Slo(SloSpec(
                name="loss",
                objective=loss_obj,
                description="windowed alert loss fraction vs Definition 3",
                min_samples=LOSS_MIN_SAMPLES,
            )),
            "model-conformance": Slo(SloSpec(
                name="model-conformance",
                objective=1.0,
                description="drift-detector statistic vs alarm threshold",
                min_samples=0,
            )),
        }
        #: LTLf strict-correctness monitor — cheap (a handful of
        #: automaton steps per event) and silent on honest runs.
        self.conformance = ConformanceMonitor()
        self.slos["conformance"] = Slo(SloSpec(
            name="conformance",
            objective=0.0,
            description=("LTLf strict-correctness violations over "
                         "the event stream (Definition 2)"),
            min_samples=0,
        ))

        #: Every SloTransition / DriftDetected this monitor produced,
        #: in order — the verdict history replay compares against.
        self.emitted: List[ObsEvent] = []

        self._registry = registry
        if registry is not None:
            self._g_lambda = registry.gauge(
                "repro_health_arrival_rate",
                help="windowed arrival-rate estimate (lambda-hat)")
            self._g_loss = registry.gauge(
                "repro_health_loss_fraction",
                help="windowed alert loss fraction")
            self._g_slo: Dict[str, Any] = {
                name: registry.gauge(
                    "repro_health_slo_state", labels={"slo": name},
                    help="SLO verdict (0=OK, 1=WARN, 2=BREACH)")
                for name in self.slos
            }
            self._c_drift = registry.counter(
                "repro_health_drift_detected_total",
                help="drift-detector alarms raised")
            self._c_transitions = registry.counter(
                "repro_health_slo_transitions_total",
                help="SLO verdict changes")
            self._c_violations = registry.counter(
                "repro_conformance_violations_total",
                help="LTLf strict-correctness property violations")

    # -- wiring ------------------------------------------------------------

    @property
    def bus(self) -> Optional[EventBus]:
        """The bus this monitor rides (``None`` before :meth:`attach`).

        Raises :class:`~repro.errors.ObsError` when the bus was freed:
        the monitor holds it weakly (see :meth:`attach`), so a bus
        nobody else holds is gone, and a run driven on ``None`` would
        go unobserved without a word.
        """
        if self._bus is None:
            return None
        bus = self._bus()
        if bus is None:
            raise ObsError("the health monitor's bus was freed: keep a "
                           "reference to the bus passed to attach()")
        return bus

    @property
    def registry(self) -> Optional[MetricsRegistry]:
        """The metrics registry the gauges live in (``None`` when the
        monitor was built without one)."""
        return self._registry

    def attach(self, bus: EventBus) -> "HealthMonitor":
        """Subscribe to ``bus`` (typed — never sees its own events) and
        publish verdicts back onto it; returns self for chaining.

        Each consumed type subscribes its own handler, so the bus's
        type lookup is the only dispatch an event takes to reach the
        estimators and the compiled property pack.  The monitor holds
        the bus weakly (the bus holds the monitor's handlers, so a
        strong reference would be a cycle); the caller keeps it alive.
        """
        self._bus = weakref.ref(bus)
        for cls, handler in _HANDLERS.items():
            bus.subscribe(handler.__get__(self), types=(cls,))
        return self

    # -- event handling ----------------------------------------------------

    def handle(self, event: ObsEvent) -> None:
        """Fold one event into the estimators and re-evaluate.

        Public so replays can drive the monitor without a bus: it takes
        the same per-type handler the bus would have called.  An event
        of a type the monitor does not consume only advances
        :attr:`now`.
        """
        handler = _HANDLERS.get(type(event))
        if handler is not None:
            handler(self, event)
        elif event.time > self.now:
            self.now = event.time

    def _on_conformance(self, event: ObsEvent) -> None:
        """The property pack's share of an event."""
        if event.time > self.now:
            self.now = event.time
        found = self.conformance.consume(event)
        if found:
            self._conformance_step(event.time, found)

    def _on_alert(self, event: Union[AlertEnqueued, AlertLost]) -> None:
        if event.time > self.now:
            self.now = event.time
        self._on_arrival(event.time, lost=type(event) is AlertLost)
        self._note_alert_depth(event.time, event.queue_depth)

    def _on_unit(self, event: UnitEmitted) -> None:
        if event.time > self.now:
            self.now = event.time
        self.total_scans += 1
        self._scans.observe(event.time)
        self._unit_occ.set_level(event.time, event.queue_depth)

    def _on_heal_finished(self, event: HealFinished) -> None:
        self._on_conformance(event)
        # The operational system heals in one batch; count it as one
        # recovery completion (the Gillespie path counts exact
        # unit-decrease jumps via StateTransition instead).
        self.total_recoveries += 1
        self._recoveries.observe(event.time)

    def finalize(self, time: Optional[float] = None) -> None:
        """Close the monitored trace: unresolved LTLf obligations become
        ``finally-violated`` conformance violations (idempotent).  Call
        at end of run — mid-run verdicts never depend on it."""
        stamp = self.now if time is None else time
        self._conformance_step(stamp, self.conformance.finalize(stamp))

    def _conformance_step(
        self, time: float, violations: Sequence[ConformanceViolation]
    ) -> None:
        """Publish fresh violations and re-evaluate the conformance SLO."""
        for violation in violations:
            if self._registry is not None:
                self._c_violations.inc()
            self._publish(violation)
        if violations:
            self._evaluate_strictness(time)

    def _evaluate_strictness(self, time: float) -> None:
        # The conformance SLO is two-state: any violation is a hard
        # BREACH (the CI is the point — a logic violation is not a
        # statistical excursion), zero violations is OK.  No WARN band,
        # so adding the SLO cannot perturb fleet scheduling or watch
        # exit codes on honest runs.
        value = float(self.conformance.violation_count)
        slo = self.slos["conformance"]
        self._transition_slo(
            time, slo,
            slo.evaluate(value, (value, value), samples=math.inf),
        )

    def _on_arrival(self, time: float, lost: bool) -> None:
        self.total_arrivals += 1
        self._arrivals.observe(time)
        if lost:
            self.total_losses += 1
            self._losses.observe(time)
        else:
            self._losses.advance(time)

        # CUSUM on model-normalized inter-arrival times: under the
        # calibrated model the gaps are Exp(λ0), so λ0·Δt has mean 1;
        # a sustained mean below 1 is a rate increase.  Gaps are
        # winsorized (CUSUM_CLIP) so single heavy-tail outliers cannot
        # spike the rate-decrease side.
        if self._last_arrival is not None:
            x = min(
                self.prediction.arrival_rate * (time - self._last_arrival),
                CUSUM_CLIP,
            )
            if self._cusum.update(x) and "cusum-arrival" not in self._tripped:
                direction = self._cusum.direction
                self._drift(
                    time, "cusum-arrival", self._cusum.statistic,
                    self._cusum.h,
                    "rate-increase" if direction == "down"
                    else "rate-decrease",
                )
        self._last_arrival = time

        self._evaluate_loss(time)
        if self.total_arrivals % GTEST_EVERY == 0:
            self._run_gtest(time)

    def _note_alert_depth(self, time: float, depth: int) -> None:
        self._alert_occ.set_level(time, depth)
        # Page–Hinkley on model-standardized depth samples: a sustained
        # occupancy rise (queue filling faster than the model says)
        # shifts the mean.  Disarmed when the model itself predicts
        # routine saturation — no depth regime is anomalous then.
        if not self.ph_armed:
            return
        x = (float(depth) - self._depth_mean) / self._depth_sd
        if self._ph.update(x) and "page-hinkley" not in self._tripped:
            self._drift(time, "page-hinkley", self._ph.statistic,
                        self._ph.threshold, "occupancy-shift")

    def _on_transition(self, event: StateTransition) -> None:
        if event.time > self.now:
            self.now = event.time
        level = _CATEGORY_LEVEL.get(event.category_to)
        if level is not None:
            self._category_occ.set_level(event.time, level)
        old = _parse_state(event.old)
        new = _parse_state(event.new)
        if old is None or new is None:
            return
        self._alert_occ.set_level(event.time, new[0])
        self._unit_occ.set_level(event.time, new[1])
        if new[1] == old[1] - 1:
            self.total_recoveries += 1
            self._recoveries.observe(event.time)

    # -- verdicts ----------------------------------------------------------

    def _publish(self, event: ObsEvent) -> None:
        self.emitted.append(event)
        bus = self._bus() if self._bus is not None else None
        if bus is not None:
            bus.publish(event)

    def _drift(self, time: float, detector: str, statistic: float,
               threshold: float, signal: str) -> None:
        event = DriftDetected(time, detector=detector,
                              statistic=statistic, threshold=threshold,
                              signal=signal)
        self._tripped[detector] = event
        if self._registry is not None:
            self._c_drift.inc()
        self._publish(event)
        self._evaluate_conformance(time)

    def _transition_slo(self, time: float, slo: Slo,
                        change: Optional[Tuple[SloState, SloState]]) -> None:
        if self._registry is not None:
            self._g_slo[slo.spec.name].set(_SEVERITY[slo.state])
        if change is None:
            return
        old, new = change
        if self._registry is not None:
            self._c_transitions.inc()
        self._publish(SloTransition(
            time, slo=slo.spec.name, old=old.value, new=new.value,
            value=slo.value, objective=slo.spec.objective,
        ))

    def _evaluate_loss(self, time: float) -> None:
        arrived = self._arrivals.count
        lost = self._losses.count
        fraction = lost / arrived if arrived else 0.0
        ci = wilson_interval(lost, arrived, z=Z)
        slo = self.slos["loss"]
        self._transition_slo(time, slo,
                             slo.evaluate(fraction, ci, arrived))
        if self._registry is not None:
            self._g_lambda.set(self._arrivals.rate(time))
            self._g_loss.set(fraction)

    def _evaluate_conformance(self, time: float) -> None:
        # Value = worst detector statistic normalized by its threshold;
        # > 1 means some detector is past its alarm level.
        ratios = [0.0]
        if self._cusum.h > 0:
            ratios.append(self._cusum.statistic / self._cusum.h)
        if self._ph.samples >= self._ph.min_samples:
            ratios.append(self._ph.statistic / self._ph.threshold)
        if self._gtest_p is not None and self._gtest_p > 0:
            # log-scale ratio: 1.0 exactly at p == alpha.
            ratios.append(math.log(1.0 / self._gtest_p)
                          / math.log(1.0 / GTEST_ALPHA))
        for drift in self._tripped.values():
            if drift.threshold > 0:
                ratios.append(drift.statistic / drift.threshold)
        value = max(ratios)
        slo = self.slos["model-conformance"]
        # A tripped detector is a hard breach: the CI is the point.
        ci = (value, value) if self._tripped else (0.0, value)
        self._transition_slo(time, slo,
                             slo.evaluate(value, ci, samples=math.inf))

    def _run_gtest(self, time: float) -> None:
        # The null (the steady-state alert marginal) is time-weighted,
        # so the observed side must be too: raw dwell-segment counts
        # per level would overweight high-turnover levels (visits scale
        # with π·exit-rate, not π).  The windowed time-in-level
        # proportions are scaled to an effective sample size bounded
        # both by half the closed dwell segments (one occupancy cycle
        # spans roughly an up- and a down-crossing) and by the model's
        # design effect ``T / 2τ̄`` (τ̄ the π-weighted integrated
        # autocorrelation time of the level indicators): a slowly
        # mixing workload closes many segments per excursion, but those
        # segments are heavily dependent, and pretending otherwise
        # false-alarms on the model's own conformant trajectories.
        segments = sum(self._alert_occ.jump_counts().values())
        if segments < GTEST_MIN_COUNT:
            return
        hist = self._alert_occ.histogram(time)
        total_time = sum(hist.values())
        if total_time <= 0:
            return
        tau = max(self.prediction.occupancy_corr_time, 1e-9)
        effective_n = min(segments / 2.0, total_time / (2.0 * tau))
        if effective_n < 2.0:
            return
        counts = {
            level: effective_n * weight / total_time
            for level, weight in hist.items()
        }
        result = g_test(counts, self.prediction.alert_marginal)
        if result is None:
            return
        self._gtest_p = result.p_value
        if (result.p_value < GTEST_ALPHA
                and "gtest-occupancy" not in self._tripped):
            # Statistic/threshold on the log-evidence scale so the
            # alarm condition is statistic > threshold, like the other
            # detectors: log(1/p) crosses log(1/alpha) at p = alpha.
            floor = 1e-300
            self._drift(
                time, "gtest-occupancy",
                math.log(1.0 / max(result.p_value, floor)),
                math.log(1.0 / GTEST_ALPHA),
                "occupancy-shift",
            )
        else:
            self._evaluate_conformance(time)

    # -- reading -----------------------------------------------------------

    @property
    def verdict(self) -> SloState:
        """Worst current SLO state."""
        return _worst([s.state for s in self.slos.values()])

    @property
    def drifts(self) -> List[DriftDetected]:
        """Detectors currently tripped, in alarm order."""
        return sorted(self._tripped.values(), key=lambda d: d.time)

    def rates(self) -> Dict[str, float]:
        """Windowed rate estimates λ̂ / μ̂ / ξ̂.

        μ̂ and ξ̂ are completions per unit time *in the serving state*
        (scan completions over SCAN time, recovery completions over
        RECOVERY time) — the quantities the model's μ_k / ξ_k schedules
        govern; 0 when the state was not visited inside the window.
        """
        now = self.now
        cat = self._category_occ.histogram(now)
        scan_time = cat.get(_CATEGORY_LEVEL["SCAN"], 0.0)
        rec_time = cat.get(_CATEGORY_LEVEL["RECOVERY"], 0.0)
        self._scans.advance(now)
        self._recoveries.advance(now)
        return {
            "lambda_hat": self._arrivals.rate(now),
            "mu_hat": (self._scans.count / scan_time
                       if scan_time > 0 else 0.0),
            "xi_hat": (self._recoveries.count / rec_time
                       if rec_time > 0 else 0.0),
        }

    def summary(self) -> Dict[str, Any]:
        """JSON-able health snapshot — the ``/slo`` endpoint payload."""
        now = self.now
        arrived = self._arrivals.count
        lost = self._losses.count
        alert_hist = self._alert_occ.histogram(now)
        unit_hist = self._unit_occ.histogram(now)

        def _mean_level(hist: Dict[int, float]) -> float:
            total = sum(hist.values())
            if total <= 0:
                return 0.0
            return sum(k * v for k, v in hist.items()) / total

        return {
            "time": now,
            "verdict": self.verdict.value,
            "window": WINDOW,
            "rates": self.rates(),
            "arrival_ci": list(
                self._arrivals.confidence_interval(now, z=Z)
            ),
            "loss": {
                "fraction": lost / arrived if arrived else 0.0,
                "ci": list(wilson_interval(lost, arrived, z=Z)),
                "window_arrivals": arrived,
                "window_losses": lost,
                "total_arrivals": self.total_arrivals,
                "total_losses": self.total_losses,
            },
            "occupancy": {
                "alert_mean": _mean_level(alert_hist),
                "unit_mean": _mean_level(unit_hist),
                "gtest_p": self._gtest_p,
            },
            "slos": {name: slo.as_dict()
                     for name, slo in sorted(self.slos.items())},
            "drifts": [d.to_dict() for d in self.drifts],
            "conformance": self.conformance.summary(),
            "prediction": self.prediction.as_dict(),
        }

    def report(self) -> "ConformanceReport":
        """Freeze this monitor into a mergeable per-run verdict."""
        return ConformanceReport(
            duration=self.now,
            arrivals=self.total_arrivals,
            losses=self.total_losses,
            scans=self.total_scans,
            recoveries=self.total_recoveries,
            predicted_loss=self.prediction.loss_probability,
            loss_objective=self.slos["loss"].spec.objective,
            slo_states=tuple(sorted(
                (name, slo.state.value)
                for name, slo in self.slos.items()
            )),
            slo_transitions=sum(
                s.transitions for s in self.slos.values()
            ),
            drifts=tuple(
                (d.detector, d.time, d.statistic, d.signal)
                for d in self.drifts
            ),
            violations=self.conformance.violation_count,
        )


#: Event type -> the :class:`HealthMonitor` handler it takes, the one
#: table behind both :meth:`HealthMonitor.attach` (one typed
#: subscription per entry) and :meth:`HealthMonitor.handle` (replay).
#: Types only the property pack reads go straight to it.
_HANDLERS: Dict[type, Callable[[HealthMonitor, Any], None]] = {
    AlertEnqueued: HealthMonitor._on_alert,
    AlertLost: HealthMonitor._on_alert,
    UnitEmitted: HealthMonitor._on_unit,
    StateTransition: HealthMonitor._on_transition,
    HealFinished: HealthMonitor._on_heal_finished,
    **{cls: HealthMonitor._on_conformance
       for cls in ConformanceMonitor.CONSUMES if cls is not HealFinished},
}


@dataclass(frozen=True)
class ConformanceReport:
    """One run's conformance verdict, as plain mergeable data.

    Everything in here is a deterministic function of the event stream
    that produced it, and :func:`merge_conformance` combines reports
    with commutative operations only (sums, max-severity) — so batch
    runs produce bit-identical merged verdicts at any worker count and
    in any merge order (pinned by a hypothesis test).
    """

    duration: float
    arrivals: int
    losses: int
    scans: int
    recoveries: int
    predicted_loss: float
    loss_objective: float
    slo_states: Tuple[Tuple[str, str], ...]
    slo_transitions: int
    drifts: Tuple[Tuple[str, float, float, str], ...] = ()
    replications: int = 1
    #: LTLf strict-correctness violations across the covered run(s).
    violations: int = 0

    @property
    def loss_fraction(self) -> float:
        """Lost / offered alerts across the covered run(s)."""
        return self.losses / self.arrivals if self.arrivals else 0.0

    @property
    def verdict(self) -> SloState:
        """Worst SLO state in the report."""
        return _worst([SloState(v) for _, v in self.slo_states]
                      or [SloState.OK])

    @property
    def drift_count(self) -> int:
        """Detector alarms across the covered run(s)."""
        return len(self.drifts)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form (batch summaries, snapshots)."""
        return {
            "verdict": self.verdict.value,
            "replications": self.replications,
            "duration": self.duration,
            "arrivals": self.arrivals,
            "losses": self.losses,
            "loss_fraction": self.loss_fraction,
            "predicted_loss": self.predicted_loss,
            "loss_objective": self.loss_objective,
            "scans": self.scans,
            "recoveries": self.recoveries,
            "slo_states": [list(pair) for pair in self.slo_states],
            "slo_transitions": self.slo_transitions,
            "drift_count": self.drift_count,
            "drifts": [list(d) for d in self.drifts],
            "violations": self.violations,
        }


def merge_conformance(
    reports: Sequence[ConformanceReport],
) -> ConformanceReport:
    """Combine per-replication reports into one batch verdict.

    Order-independent by construction: counts add, durations add,
    per-SLO states merge by max severity, drift tuples merge as a
    sorted union — so any permutation of ``reports`` (any worker
    schedule) yields the identical merged report.
    """
    if not reports:
        raise ObsError("cannot merge zero conformance reports")
    states: Dict[str, SloState] = {}
    for rep in reports:
        for name, value in rep.slo_states:
            state = SloState(value)
            prev = states.get(name)
            if prev is None or _SEVERITY[state] > _SEVERITY[prev]:
                states[name] = state
    drifts = tuple(sorted(
        {d for rep in reports for d in rep.drifts},
        key=lambda d: (d[1], d[0], d[2], d[3]),
    ))
    first = reports[0]
    return ConformanceReport(
        duration=sum(r.duration for r in reports),
        arrivals=sum(r.arrivals for r in reports),
        losses=sum(r.losses for r in reports),
        scans=sum(r.scans for r in reports),
        recoveries=sum(r.recoveries for r in reports),
        predicted_loss=first.predicted_loss,
        loss_objective=first.loss_objective,
        slo_states=tuple(sorted(
            (name, state.value) for name, state in states.items()
        )),
        slo_transitions=sum(r.slo_transitions for r in reports),
        drifts=drifts,
        replications=sum(r.replications for r in reports),
        violations=sum(r.violations for r in reports),
    )


#: Event kinds a monitor produces — stripped before re-feeding a log.
_DERIVED = (SloTransition, DriftDetected, ConformanceViolation)


def replay_verdicts(
    events: Sequence[ObsEvent],
    prediction: ModelPrediction,
    loss_objective: Optional[float] = None,
    finalize: bool = False,
) -> List[ObsEvent]:
    """Re-derive the SLO verdict history from a recorded event stream.

    Feeds every non-derived event of ``events`` (a flight log's typed
    events) through a fresh :class:`HealthMonitor` with the same
    ``prediction``/``loss_objective`` and returns the SloTransition /
    DriftDetected / ConformanceViolation events it produces.  Because
    the monitor is a pure function of the event sequence, the result
    equals the recorded verdicts exactly — the replay guarantee the
    acceptance test pins.

    Pass ``finalize=True`` when the recorded run closed its trace
    through :meth:`HealthMonitor.finalize` before the flight log was
    written (such logs carry ``meta["conformance_finalized"]``) — the
    replayed monitor then resolves end-of-trace LTLf obligations the
    same way, keeping the streams identical.
    """
    monitor = HealthMonitor(prediction, loss_objective)
    for event in events:
        if isinstance(event, _DERIVED):
            continue
        monitor.handle(event)
    if finalize:
        monitor.finalize()
    return list(monitor.emitted)
