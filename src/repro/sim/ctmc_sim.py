"""Exact stochastic simulation of the recovery pipeline state process.

The recovery system's CTMC (Section IV) is simulated directly with the
Gillespie algorithm: in each state, sample an exponential holding time
from the total outgoing rate, then jump to a successor with probability
proportional to its rate.  Because the simulated process *is* the CTMC,
long-run state occupancies must converge to the analytic steady state —
this is the cross-validation used by ``benchmarks/bench_sim_vs_ctmc.py``.

Beyond occupancy, the simulator counts what the analytic model can only
imply: the actual number of alerts lost to a full alert buffer.

The loop runs over integers: it walks the STG's cached
:meth:`~repro.markov.stg.RecoverySTG.jump_table` (per state the total
rate, cumulative successor rates and successor indices), so one jump is
a few list lookups, one ``bisect`` and exactly the RNG draws that
``random.Random.expovariate`` and a cumulative-rate scan would make.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from math import log
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.markov.stg import RecoverySTG, State, StateCategory
from repro.obs.events import (
    AlertEnqueued,
    AlertLost,
    EventBus,
    StateTransition,
    UnitEmitted,
)
from repro.obs.health import (
    ConformanceReport,
    HealthConfig,
    HealthMonitor,
    ModelPrediction,
)

__all__ = ["GillespieResult", "GillespieSimulator", "run_replication"]


def run_replication(
    stg: RecoverySTG,
    horizon: float,
    seed: int,
    start: Optional[State] = None,
    bus: Optional[EventBus] = None,
    health: Optional[ModelPrediction] = None,
    health_config: Optional[HealthConfig] = None,
) -> "GillespieResult":
    """One seeded Gillespie replication.

    Module-level (hence picklable) entry point used by
    :mod:`repro.sim.batch` to fan replications out over a process pool;
    running it with the same ``(stg, horizon, seed, start)`` always
    reproduces the same trajectory, worker placement notwithstanding.

    With ``health`` (a picklable :class:`ModelPrediction`), a
    :class:`HealthMonitor` rides the replication's event stream and the
    result carries its :class:`ConformanceReport` — a deterministic
    function of ``(stg, horizon, seed, start, health, health_config)``,
    so batch merging stays bit-identical at any worker count.
    """
    monitor: Optional[HealthMonitor] = None
    if health is not None:
        if bus is None:
            bus = EventBus()
        monitor = HealthMonitor(health, config=health_config).attach(bus)
    result = GillespieSimulator(stg, random.Random(seed), bus=bus).run(
        horizon, start=start
    )
    if monitor is not None:
        result.conformance = monitor.report()
    return result


@dataclass
class GillespieResult:
    """Statistics from one simulated trajectory.

    Attributes
    ----------
    horizon:
        Simulated duration.
    occupancy:
        Fraction of time in each visited state (sums to 1).
    category_occupancy:
        Fraction of time in NORMAL / SCAN / RECOVERY.
    loss_time_fraction:
        Fraction of time spent in the STG's loss states (alert buffer
        full) — the empirical counterpart of Definition 3's loss
        probability.
    arrivals, arrivals_lost:
        Alert arrivals generated / rejected by a full alert buffer.
    jumps:
        Number of state transitions taken.
    conformance:
        Per-replication SLO/drift verdict when the run was health-
        monitored (see :func:`run_replication`); ``None`` otherwise.
    """

    horizon: float
    occupancy: Dict[State, float] = field(default_factory=dict)
    category_occupancy: Dict[StateCategory, float] = field(default_factory=dict)
    loss_time_fraction: float = 0.0
    arrivals: int = 0
    arrivals_lost: int = 0
    jumps: int = 0
    conformance: Optional[ConformanceReport] = None

    @property
    def alert_loss_fraction(self) -> float:
        """Fraction of generated alerts that were lost."""
        if self.arrivals == 0:
            return 0.0
        return self.arrivals_lost / self.arrivals


class GillespieSimulator:
    """Simulates the trajectory of a :class:`RecoverySTG`.

    Parameters
    ----------
    stg:
        The recovery-system STG (its rates drive the simulation).
    rng:
        Source of randomness; defaults to a fixed-seed generator.
    bus:
        Optional :class:`repro.obs.events.EventBus`; when attached, the
        trajectory is published as typed events — every jump as a
        :class:`~repro.obs.events.StateTransition` (full ``(a, r)``
        state string plus NORMAL/SCAN/RECOVERY category), every accepted
        arrival as an :class:`~repro.obs.events.AlertEnqueued`, every
        lost arrival as an :class:`~repro.obs.events.AlertLost` — all
        stamped with simulated time.  This is how the empirical CTMC
        validation measures occupancy and loss through the same
        observability layer the operational system uses.
    """

    def __init__(
        self,
        stg: RecoverySTG,
        rng: Optional[random.Random] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self._stg = stg
        self._rng = rng if rng is not None else random.Random(0)
        self._bus = bus
        self._table = stg.jump_table()

    def run(
        self,
        horizon: float,
        start: Optional[State] = None,
        max_jumps: int = 50_000_000,
    ) -> GillespieResult:
        """Simulate one trajectory of length ``horizon``.

        Arrivals while the alert buffer is full do not correspond to any
        chain transition; they are sampled as part of the same Poisson
        stream and counted as lost, so the loss *count* is observable,
        not just the loss-time fraction.
        """
        if horizon <= 0:
            raise SimulationError(f"horizon must be > 0, got {horizon}")
        table = self._table
        states = table.states
        totals, cums, succs = table.total, table.cum, table.succ
        arrivals_at, loss_at = table.arrival, table.loss
        uniform = self._rng.random
        i = table.index[start if start is not None
                        else self._stg.normal_state]
        lam = self._stg.arrival_rate
        bus = self._bus if self._bus is not None and self._bus.active \
            else None

        # Occupancy per state index, in first-visit order.
        time_in: Dict[int, float] = {}
        time_in_get = time_in.get
        now = 0.0
        jumps = 0
        arrivals = 0
        arrivals_lost = 0
        loss_time = 0.0

        while now < horizon:
            if jumps >= max_jumps:
                raise SimulationError(
                    f"exceeded {max_jumps} jumps before horizon {horizon}"
                )
            total = totals[i]
            # random.Random.expovariate(total), drawn inline.
            dwell = -log(1.0 - uniform()) / total if total > 0 \
                else horizon - now
            end = now + dwell
            if end > horizon:
                end = horizon
            elapsed = end - now
            time_in[i] = time_in_get(i, 0.0) + elapsed
            if loss_at[i]:  # alert buffer full: arrivals are lost
                loss_time += elapsed
                mean = lam * elapsed
                if mean > 0:
                    # Arrivals into the full buffer: a Poisson count
                    # from summed unit exponentials.
                    lost_here = 0
                    acc = -log(1.0 - uniform())
                    while acc < mean:
                        lost_here += 1
                        acc += -log(1.0 - uniform())
                    arrivals += lost_here
                    arrivals_lost += lost_here
                    if bus is not None:
                        for _ in range(lost_here):
                            bus.publish(AlertLost(
                                end, uid="", queue_depth=states[i].alerts,
                            ))
            now = end
            if now >= horizon or total <= 0:
                break
            k = bisect_left(cums[i], uniform() * total)
            nxt = succs[i][k]
            if arrivals_at[i][k]:
                arrivals += 1  # an accepted alert arrival
                if bus is not None:
                    bus.publish(AlertEnqueued(
                        now, uid="", queue_depth=states[nxt].alerts,
                    ))
            elif bus is not None \
                    and states[nxt].units == states[i].units + 1:
                # A scan jump moves one alert into the recovery queue.
                bus.publish(UnitEmitted(
                    now, units=1, queue_depth=states[nxt].units,
                ))
            if bus is not None:
                old, new = states[i], states[nxt]
                bus.publish(StateTransition(
                    now, old=str(old), new=str(new),
                    old_category=old.category.name,
                    new_category=new.category.name,
                ))
            i = nxt
            jumps += 1

        result = GillespieResult(
            horizon=horizon,
            occupancy={states[j]: t / horizon for j, t in time_in.items()},
            loss_time_fraction=loss_time / horizon,
            arrivals=arrivals,
            arrivals_lost=arrivals_lost,
            jumps=jumps,
        )
        cat: Dict[StateCategory, float] = {c: 0.0 for c in StateCategory}
        for s, frac in result.occupancy.items():
            cat[s.category] += frac
        result.category_occupancy = cat
        return result
