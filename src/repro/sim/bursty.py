"""Bursty (Markov-modulated) attack arrivals.

Section IV-D: "intrusions occur sporadically, with long time periods
where there are no successful attacks, interspersed with short bursts of
multiple attacks.  However, there is still no agreement about what
probability distribution best describes the intrusions."  The paper then
adopts Poisson arrivals for tractability; Section VI compensates by
telling designers to size the alert buffer "according to the peak rate".

This module quantifies what that Poisson simplification hides: an
on/off Markov-modulated Poisson process (MMPP) drives the same recovery
pipeline, and the simulator measures how much more loss a bursty stream
causes than a Poisson stream *of the same mean rate* — the empirical
basis for the peak-rate sizing guideline (benchmarked in
``bench_bursty_arrivals.py``).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ModelError, SimulationError
from repro.markov.stg import RecoverySTG, StateCategory
from repro.sim.ctmc_sim import GillespieResult

__all__ = ["BurstModel", "BurstySimulator"]


@dataclass(frozen=True)
class BurstModel:
    """Two-phase MMPP arrival model.

    Attributes
    ----------
    quiet_rate:
        Alert arrival rate in the quiet phase (often ≈ 0).
    burst_rate:
        Alert arrival rate during a burst (the *peak* rate of Section
        VI's sizing guideline).
    onset_rate:
        Rate of quiet → burst transitions (bursts per quiet time unit).
    decay_rate:
        Rate of burst → quiet transitions (1 / mean burst length).
    """

    quiet_rate: float
    burst_rate: float
    onset_rate: float
    decay_rate: float

    def __post_init__(self) -> None:
        for name in ("quiet_rate", "burst_rate", "onset_rate",
                     "decay_rate"):
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0")
        if self.onset_rate == 0 and self.quiet_rate == 0:
            raise ModelError("model would never generate any arrival")

    @property
    def burst_fraction(self) -> float:
        """Long-run fraction of time spent in the burst phase."""
        total = self.onset_rate + self.decay_rate
        if total == 0:
            return 0.0
        return self.onset_rate / total

    @property
    def mean_rate(self) -> float:
        """Long-run mean arrival rate (for Poisson-equivalent comparison)."""
        p = self.burst_fraction
        return p * self.burst_rate + (1 - p) * self.quiet_rate

    @classmethod
    def with_mean(
        cls,
        mean_rate: float,
        peak_to_mean: float,
        mean_burst_length: float,
        quiet_rate: float = 0.0,
    ) -> "BurstModel":
        """Construct a model with a prescribed mean rate.

        Parameters
        ----------
        mean_rate:
            Target long-run rate (matches the Poisson baseline).
        peak_to_mean:
            Burst rate divided by the mean rate (> 1).
        mean_burst_length:
            Expected duration of one burst.
        quiet_rate:
            Arrival rate between bursts.
        """
        if peak_to_mean <= 1:
            raise ModelError("peak_to_mean must exceed 1")
        burst_rate = mean_rate * peak_to_mean
        if burst_rate <= quiet_rate:
            raise ModelError("burst rate must exceed the quiet rate")
        # mean = p·burst + (1-p)·quiet  ⇒  p = (mean-quiet)/(burst-quiet)
        p = (mean_rate - quiet_rate) / (burst_rate - quiet_rate)
        if not 0 < p < 1:
            raise ModelError(
                f"mean rate {mean_rate} unreachable with peak_to_mean="
                f"{peak_to_mean} and quiet_rate={quiet_rate}"
            )
        decay = 1.0 / mean_burst_length
        onset = decay * p / (1 - p)
        return cls(quiet_rate, burst_rate, onset, decay)


class BurstySimulator:
    """Gillespie simulation of the recovery STG under MMPP arrivals.

    The joint process over (phase, STG state) is still a CTMC; the
    simulator tracks it exactly, reusing the STG's scan/recovery rates
    and replacing its Poisson arrivals with the modulated stream.
    """

    def __init__(
        self,
        stg: RecoverySTG,
        burst: BurstModel,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._stg = stg
        self._burst = burst
        self._rng = rng if rng is not None else random.Random(0)
        # Service transitions only (arrivals handled by the modulation).
        self._service = RecoverySTG(
            arrival_rate=0.0,
            scan=stg.scan_schedule,
            recovery=stg.recovery_schedule,
            recovery_buffer=stg.recovery_buffer,
            alert_buffer=stg.alert_buffer,
        ).jump_table()

    def run(
        self,
        horizon: float,
        max_jumps: int = 50_000_000,
    ) -> GillespieResult:
        """Simulate one trajectory; statistics as in
        :class:`~repro.sim.ctmc_sim.GillespieResult`."""
        if horizon <= 0:
            raise SimulationError(f"horizon must be > 0, got {horizon}")
        stg, burst, rng = self._stg, self._burst, self._rng
        service = self._service
        states = service.states
        # States are alert-major: one more queued alert is this stride.
        up = stg.recovery_buffer + 1
        i = service.index[stg.normal_state]
        in_burst = False

        time_in: Dict[int, float] = {}
        loss_time = 0.0
        arrivals = arrivals_lost = jumps = 0
        now = 0.0

        while now < horizon:
            if jumps >= max_jumps:
                raise SimulationError(
                    f"exceeded {max_jumps} jumps before horizon"
                )
            lam = burst.burst_rate if in_burst else burst.quiet_rate
            mod_rate = burst.decay_rate if in_burst else burst.onset_rate
            service_total = service.total[i]
            full = service.loss[i]
            arrival_rate = 0.0 if full else lam
            lost_rate = lam - arrival_rate
            total = service_total + arrival_rate + lost_rate + mod_rate
            dwell = rng.expovariate(total) if total > 0 else horizon - now
            end = min(now + dwell, horizon)
            elapsed = end - now
            time_in[i] = time_in.get(i, 0.0) + elapsed
            if full:
                loss_time += elapsed
            now = end
            if now >= horizon or total <= 0:
                break
            x = rng.random() * total
            if x < service_total:
                cum = service.cum[i]
                k = bisect_left(cum, x)
                if k < len(cum):
                    i = service.succ[i][k]
            elif x < service_total + arrival_rate:
                arrivals += 1
                i += up
            elif x < service_total + arrival_rate + lost_rate:
                arrivals += 1
                arrivals_lost += 1  # arrival into a full alert buffer
            else:
                in_burst = not in_burst
            jumps += 1

        result = GillespieResult(
            horizon=horizon,
            occupancy={states[j]: t / horizon for j, t in time_in.items()},
            loss_time_fraction=loss_time / horizon,
            arrivals=arrivals,
            arrivals_lost=arrivals_lost,
            jumps=jumps,
        )
        cats: Dict[StateCategory, float] = {c: 0.0 for c in StateCategory}
        for s, frac in result.occupancy.items():
            cats[s.category] += frac
        result.category_occupancy = cats
        return result
