"""Discrete-event simulation of the Figure 2 architecture itself.

The Gillespie simulator (:mod:`repro.sim.ctmc_sim`) samples the CTMC's
transitions directly — it validates the *model*.  This simulator instead
implements the *architecture's operating rules* as an event-driven
server system and lets the state process emerge:

- IDS alerts arrive (Poisson) into a bounded alert queue; overflow is
  lost;
- the analyzer serves one alert at a time with exponential service at
  rate ``μ_a`` (``a`` = alerts present), *blocked* while the recovery
  queue is full;
- the scheduler executes one recovery unit at a time at rate ``ξ_r``,
  only while the alert queue is empty or the analyzer is blocked —
  scan and recovery never run in parallel (Section IV-C);
- scanning *preempts* recovery: an arrival during a recovery service
  (with queue space left) aborts it back to the queue — exponential
  services make the preempt-restart equivalent to the CTMC's
  state-dependent rates;
- rate changes mid-service (another alert arriving during a scan)
  resample the remaining service time, again matching the Markov model
  exactly.

Because these *rules* reproduce the CTMC's generator, the emergent
occupancies must match Equation 1's steady state — asserted in
``tests/test_architecture_sim.py``.  Divergence would mean the paper's
architectural description and its Markov model disagree.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.markov.stg import RecoverySTG, State, StateCategory
from repro.sim.ctmc_sim import GillespieResult
from repro.sim.events import Event
from repro.sim.simulator import Simulator

__all__ = ["ArchitectureSimulator"]


class ArchitectureSimulator:
    """Event-driven simulation of the recovery architecture's rules.

    Parameters
    ----------
    stg:
        Supplies λ, the μ/ξ schedules and the buffer sizes; the
        simulator does *not* read the STG's transition table — the
        point is to re-derive it from the operating rules.
    rng:
        Randomness source.
    """

    def __init__(
        self,
        stg: RecoverySTG,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._stg = stg
        self._rng = rng if rng is not None else random.Random(0)

    def run(self, horizon: float) -> GillespieResult:
        """Simulate ``[0, horizon]``; returns occupancy statistics."""
        if horizon <= 0:
            raise SimulationError(f"horizon must be > 0, got {horizon}")
        stg, rng = self._stg, self._rng
        sim = Simulator()

        # Mutable architecture state.
        alerts = 0           # alerts queued (including the one in scan)
        units = 0            # recovery units queued (incl. in execution)
        scan_event: Optional[Event] = None
        recovery_event: Optional[Event] = None

        time_in: Dict[State, float] = {}
        last_change = 0.0
        arrivals = 0
        arrivals_lost = 0

        def account() -> None:
            nonlocal last_change
            state = State(alerts, units)
            now = min(sim.now, horizon)
            time_in[state] = time_in.get(state, 0.0) + (now - last_change)
            last_change = now

        def dispatch() -> None:
            """Start/stop services according to the operating rules."""
            nonlocal scan_event, recovery_event
            analyzer_blocked = units >= stg.recovery_buffer
            scan_wanted = alerts > 0 and not analyzer_blocked
            recovery_wanted = units > 0 and (
                alerts == 0 or analyzer_blocked
            )
            # Scan preempts recovery; they never run together.
            if scan_wanted:
                if recovery_event is not None:
                    recovery_event.cancel()
                    recovery_event = None
                if scan_event is None:
                    rate = stg.scan_schedule(alerts)
                    if rate > 0:
                        scan_event = sim.schedule(
                            rng.expovariate(rate), scan_done, "scan"
                        )
            elif recovery_wanted:
                if scan_event is not None:  # pragma: no cover - defensive
                    scan_event.cancel()
                    scan_event = None
                if recovery_event is None:
                    rate = stg.recovery_schedule(units)
                    if rate > 0:
                        recovery_event = sim.schedule(
                            rng.expovariate(rate), recovery_done,
                            "recovery",
                        )

        def resample_scan() -> None:
            """The scan rate is μ_a; when a changes mid-service the
            remaining time must be redrawn (memorylessness makes this
            exactly the Markov semantics)."""
            nonlocal scan_event
            if scan_event is not None:
                scan_event.cancel()
                scan_event = None

        def arrival() -> None:
            nonlocal alerts, arrivals, arrivals_lost
            account()
            arrivals += 1
            if alerts >= stg.alert_buffer:
                arrivals_lost += 1
            else:
                alerts += 1
                resample_scan()
            sim.schedule(rng.expovariate(stg.arrival_rate), arrival,
                         "arrival")
            dispatch()

        def scan_done() -> None:
            nonlocal alerts, units, scan_event
            account()
            scan_event = None
            alerts -= 1
            units += 1
            dispatch()

        def recovery_done() -> None:
            nonlocal units, recovery_event
            account()
            recovery_event = None
            units -= 1
            dispatch()

        if stg.arrival_rate > 0:
            sim.schedule(rng.expovariate(stg.arrival_rate), arrival,
                         "arrival")
        sim.run_until(horizon)
        account()

        result = GillespieResult(
            horizon=horizon,
            occupancy={s: t / horizon for s, t in time_in.items()},
            loss_time_fraction=sum(
                t / horizon
                for s, t in time_in.items()
                if s.alerts >= stg.alert_buffer
            ),
            arrivals=arrivals,
            arrivals_lost=arrivals_lost,
            jumps=sim.events_fired,
        )
        cats: Dict[StateCategory, float] = {c: 0.0 for c in StateCategory}
        for s, frac in result.occupancy.items():
            cats[s.category] += frac
        result.category_occupancy = cats
        return result
