"""Tests: the architecture's operating rules reproduce the CTMC.

The Gillespie simulator samples the CTMC's transitions directly.  The
oracle below instead implements Figure 2's *operating rules* as an
event-driven server system and lets the state process emerge:

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

The CTMC was derived from the same rules by hand, so the emergent
occupancies must match Equation 1's steady state.  Their agreement is
the consistency check between the paper's Section IV prose and its
Markov model.
"""

import itertools
import random
from typing import Dict, Optional

import pytest

from repro.errors import SimulationError
from repro.markov.metrics import loss_probability
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, State, StateCategory
from repro.sim.ctmc_sim import GillespieResult
from repro.sim.simulator import Simulator


class ArchitectureSimulator:
    """Event-driven simulation of the recovery architecture's rules.

    ``stg`` supplies λ, the μ/ξ schedules and the buffer sizes; the
    simulator does *not* read the STG's transition table — the point is
    to re-derive it from the operating rules.

    Each service's pending completion carries a token.  Preempting or
    resampling a service forgets its token, so the stale completion
    returns without acting when it fires.  The trajectory does not
    change, because the clock is read only inside live handlers.
    """

    def __init__(self, stg: RecoverySTG,
                 rng: Optional[random.Random] = None) -> None:
        self._stg = stg
        self._rng = rng if rng is not None else random.Random(0)

    def run(self, horizon: float) -> GillespieResult:
        """Simulate ``[0, horizon]``; returns occupancy statistics."""
        if horizon <= 0:
            raise SimulationError(f"horizon must be > 0, got {horizon}")
        stg, rng = self._stg, self._rng
        sim = Simulator()
        tokens = itertools.count()

        # Mutable architecture state.
        alerts = 0           # alerts queued (including the one in scan)
        units = 0            # recovery units queued (incl. in execution)
        scan: Optional[int] = None      # token of the pending scan
        recovery: Optional[int] = None  # token of the pending recovery

        time_in: Dict[State, float] = {}
        last_change = 0.0
        arrivals = arrivals_lost = jumps = 0

        def account() -> None:
            nonlocal last_change
            state = State(alerts, units)
            now = min(sim.now, horizon)
            time_in[state] = time_in.get(state, 0.0) + (now - last_change)
            last_change = now

        def jump() -> None:
            """Close the interval of the state a live event leaves."""
            nonlocal jumps
            account()
            jumps += 1

        def dispatch() -> None:
            """Start/stop services according to the operating rules."""
            nonlocal scan, recovery
            analyzer_blocked = units >= stg.recovery_buffer
            # Scan preempts recovery; they never run together.
            if alerts > 0 and not analyzer_blocked:
                recovery = None
                if scan is None:
                    rate = stg.scan_schedule(alerts)
                    if rate > 0:
                        scan = token = next(tokens)
                        sim.schedule(rng.expovariate(rate),
                                     lambda: scan_done(token))
            elif units > 0:  # alert queue empty or analyzer blocked
                if recovery is None:
                    rate = stg.recovery_schedule(units)
                    if rate > 0:
                        recovery = token = next(tokens)
                        sim.schedule(rng.expovariate(rate),
                                     lambda: recovery_done(token))

        def arrival() -> None:
            nonlocal alerts, arrivals, arrivals_lost, scan
            jump()
            arrivals += 1
            if alerts >= stg.alert_buffer:
                arrivals_lost += 1
            else:
                alerts += 1
                # μ_a changed mid-service: memorylessness makes a fresh
                # draw exactly the Markov semantics.
                scan = None
            sim.schedule(rng.expovariate(stg.arrival_rate), arrival)
            dispatch()

        def scan_done(token: int) -> None:
            nonlocal alerts, units, scan
            if token != scan:
                return
            jump()
            scan = None
            alerts -= 1
            units += 1
            dispatch()

        def recovery_done(token: int) -> None:
            nonlocal units, recovery
            if token != recovery:
                return
            jump()
            recovery = None
            units -= 1
            dispatch()

        if stg.arrival_rate > 0:
            sim.schedule(rng.expovariate(stg.arrival_rate), arrival)
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
            jumps=jumps,
        )
        cats: Dict[StateCategory, float] = {c: 0.0 for c in StateCategory}
        for s, frac in result.occupancy.items():
            cats[s.category] += frac
        result.category_occupancy = cats
        return result


class TestRulesReproduceModel:
    @pytest.mark.parametrize("params", [
        dict(arrival_rate=0.8, buffer_size=5),
        dict(arrival_rate=2.0, buffer_size=5),
        dict(arrival_rate=1.0, mu1=2.0, xi1=3.0, buffer_size=5),
    ])
    def test_occupancy_matches_steady_state(self, params):
        stg = RecoverySTG.paper_default(**params)
        chain = stg.ctmc()
        pi = steady_state(chain)
        result = ArchitectureSimulator(stg, random.Random(42)).run(
            30_000.0
        )
        for state in stg.states:
            analytic = pi[chain.index_of(state)]
            empirical = result.occupancy.get(state, 0.0)
            assert empirical == pytest.approx(analytic, abs=0.025), state

    def test_loss_matches_model(self):
        stg = RecoverySTG.paper_default(arrival_rate=2.5, buffer_size=4)
        pi = steady_state(stg.ctmc())
        result = ArchitectureSimulator(stg, random.Random(7)).run(
            30_000.0
        )
        assert result.loss_time_fraction == pytest.approx(
            loss_probability(stg, pi), abs=0.02
        )
        assert result.arrivals_lost > 0

    def test_category_occupancy_sums_to_one(self):
        stg = RecoverySTG.paper_default(buffer_size=4)
        result = ArchitectureSimulator(stg, random.Random(1)).run(2_000.0)
        assert sum(result.category_occupancy.values()) == pytest.approx(
            1.0
        )


class TestRules:
    def test_no_arrivals_stays_normal(self):
        stg = RecoverySTG.paper_default(arrival_rate=0.0, buffer_size=3)
        result = ArchitectureSimulator(stg).run(100.0)
        assert result.occupancy == {State(0, 0): 1.0}
        assert result.arrivals == 0

    def test_scan_and_recovery_never_overlap(self):
        """Emergent check: no time is spent in states where both a scan
        and a recovery would have to be in flight — the occupancy is a
        distribution over the same (a, r) grid as the CTMC."""
        stg = RecoverySTG.paper_default(arrival_rate=3.0, buffer_size=3)
        result = ArchitectureSimulator(stg, random.Random(3)).run(5_000.0)
        for state in result.occupancy:
            assert 0 <= state.alerts <= stg.alert_buffer
            assert 0 <= state.units <= stg.recovery_buffer

    def test_deterministic_per_seed(self):
        stg = RecoverySTG.paper_default(buffer_size=3)
        r1 = ArchitectureSimulator(stg, random.Random(5)).run(500.0)
        r2 = ArchitectureSimulator(stg, random.Random(5)).run(500.0)
        assert r1.occupancy == r2.occupancy

    def test_bad_horizon_rejected(self):
        stg = RecoverySTG.paper_default(buffer_size=3)
        with pytest.raises(SimulationError):
            ArchitectureSimulator(stg).run(0.0)
