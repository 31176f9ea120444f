"""Bursty (Markov-modulated) attack arrivals.

Section IV-D: "intrusions occur sporadically, with long time periods
where there are no successful attacks, interspersed with short bursts of
multiple attacks.  However, there is still no agreement about what
probability distribution best describes the intrusions."  The paper then
adopts Poisson arrivals for tractability; Section VI compensates by
telling designers to size the alert buffer "according to the peak rate".

This module quantifies what that Poisson simplification hides.  An
on/off Markov-modulated Poisson process (MMPP) drives the same recovery
STG, and the (burst phase, STG state) process is itself a finite CTMC:
its steady state gives the loss of a bursty stream exactly, to compare
with a Poisson stream *of the same mean rate* — the basis for the
peak-rate sizing guideline (benchmarked in ``bench_bursty_arrivals.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.errors import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, State

__all__ = ["BurstModel", "bursty_loss"]


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


def _product_chain(stg: RecoverySTG, burst: BurstModel) -> CTMC:
    """The MMPP × STG chain on ``(phase, State)``, phase 0 quiet and
    1 burst.

    Each phase carries the STG's λ = 0 service transitions; arrivals
    move ``a → a+1`` at the phase's rate while ``a < A`` (an arrival
    into a full alert buffer is lost and leaves the state alone), and
    the phase flips at ``onset_rate`` / ``decay_rate``.  A burst that
    never starts (``onset_rate == 0``) leaves the burst phase
    unreachable from the quiet start, so it is left out — otherwise the
    chain would have two closed classes when ``decay_rate`` is 0 too.
    """
    service = RecoverySTG(
        arrival_rate=0.0,
        scan=stg.scan_schedule,
        recovery=stg.recovery_schedule,
        recovery_buffer=stg.recovery_buffer,
        alert_buffer=stg.alert_buffer,
    ).transition_rates()
    phases = [(burst.quiet_rate, burst.onset_rate)]
    if burst.onset_rate > 0:
        phases.append((burst.burst_rate, burst.decay_rate))
    states: List[Hashable] = []
    rates: Dict[Tuple[Hashable, Hashable], float] = {}
    for phase, (arrival, switch) in enumerate(phases):
        for (src, dst), rate in service.items():
            rates[((phase, src), (phase, dst))] = rate
        for s in stg.states:
            states.append((phase, s))
            if s.alerts < stg.alert_buffer:
                up = State(s.alerts + 1, s.units)
                rates[((phase, s), (phase, up))] = arrival
            if len(phases) == 2:
                rates[((phase, s), (1 - phase, s))] = switch
    return CTMC.from_rates(states, rates)


def bursty_loss(stg: RecoverySTG, burst: BurstModel) -> float:
    """Steady-state loss-time fraction under MMPP arrivals.

    Definition 3 over the product chain: the long-run fraction of time
    the alert buffer is full (``a == A``), in either phase.  The STG
    supplies the μ/ξ schedules and buffer sizes; its own λ is replaced
    by the modulated stream.
    """
    chain = _product_chain(stg, burst)
    pi = steady_state(chain)
    return float(sum(
        p for (_, s), p in zip(chain.states, pi)
        if s.alerts == stg.alert_buffer
    ))
