"""Sliding-window estimators and drift detectors for live conformance.

The CTMC's promises — loss probability (Definition 3), ε-convergence
(Definition 4) — are statements about rates and occupancies.  Checking
them *while the system runs* needs online estimators that forget old
data (a rate measured since t=0 can never see a mid-run shift) and
sequential change detectors with bounded false-alarm behaviour.  This
module provides the statistical primitives; :mod:`repro.obs.health`
assembles them into SLO verdicts.

Everything is driven by the caller's timestamps (simulated or wall
clock — the estimators never read a clock themselves), so the same
code monitors a Gillespie run in sim-time and a live deployment in
wall time, and replaying a flight log reproduces every estimate
exactly.

- :class:`SlidingWindow` — ring buffer of ``(time, value)`` samples
  evicted by age, with their running total;
- :class:`RateWindow` — event-rate estimator (``λ̂``) with a Poisson
  confidence interval;
- :class:`OccupancyWindow` — time-weighted occupancy histogram over
  integer levels (queue depths), the empirical side of the G-test;
- :class:`Cusum` — two-sided CUSUM on a standardized sample stream;
- :class:`PageHinkley` — Page–Hinkley mean-shift detector;
- :func:`g_test` — log-likelihood-ratio goodness-of-fit test of an
  observed histogram against model probabilities (χ² p-value via the
  Wilson–Hilferty approximation; no scipy needed).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ObsError

__all__ = [
    "SlidingWindow",
    "RateWindow",
    "OccupancyWindow",
    "Cusum",
    "PageHinkley",
    "GTestResult",
    "g_test",
    "chi2_sf",
]


class SlidingWindow:
    """Ring buffer of timestamped samples with age-based eviction.

    Parameters
    ----------
    horizon:
        Maximum sample age: a sample recorded at ``t`` is forgotten
        once the window is advanced past ``t + horizon``.
    max_samples:
        Hard cap on retained samples (ring-buffer bound) so a burst
        cannot grow memory without limit.
    """

    def __init__(self, horizon: float, max_samples: int = 4096) -> None:
        if horizon <= 0:
            raise ObsError(f"window horizon must be > 0, got {horizon}")
        if max_samples < 1:
            raise ObsError(
                f"max_samples must be >= 1, got {max_samples}"
            )
        self.horizon = float(horizon)
        self._samples: Deque[Tuple[float, float]] = deque(
            maxlen=max_samples
        )
        self._now = 0.0
        self._total = 0.0

    def add(self, time: float, value: float) -> None:
        """Record ``value`` at ``time`` (times must not decrease)."""
        self.advance(time)
        samples = self._samples
        value = float(value)
        if len(samples) == samples.maxlen:
            # The ring drops its oldest sample to make room.
            self._total -= samples[0][1]
        samples.append((time, value))
        self._total += value

    def advance(self, now: float) -> None:
        """Move the window edge to ``now``, evicting aged-out samples."""
        if now > self._now:
            self._now = now
        edge = self._now - self.horizon
        samples = self._samples
        while samples and samples[0][0] < edge:
            self._total -= samples.popleft()[1]

    @property
    def total(self) -> float:
        """Sum of the retained sample values, kept as samples enter and
        leave: equal to ``sum()`` over them while they are whole
        numbers, as event weights are (``0`` when none is retained)."""
        return self._total if self._samples else 0

    def values(self) -> List[float]:
        """The retained sample values, oldest first."""
        return [v for _, v in self._samples]


class RateWindow:
    """Sliding-window event-rate estimator with a Poisson CI.

    ``observe(t)`` records one event; :meth:`rate` is the event count
    in the trailing window divided by the covered span.  The span is
    clipped to the time actually observed, so early estimates are not
    biased low by the not-yet-elapsed window.
    """

    def __init__(self, horizon: float, max_samples: int = 8192) -> None:
        self._window = SlidingWindow(horizon, max_samples=max_samples)
        self._t0: Optional[float] = None

    def observe(self, time: float, weight: float = 1.0) -> None:
        """Record ``weight`` events at ``time``."""
        if self._t0 is None:
            self._t0 = time
        self._window.add(time, weight)

    def advance(self, now: float) -> None:
        """Age the window to ``now`` without recording an event."""
        if self._t0 is None:
            self._t0 = now
        self._window.advance(now)

    @property
    def count(self) -> float:
        """Weighted event count inside the window (a running total:
        every caller observes whole events, so it is exact)."""
        return self._window.total

    def span(self, now: float) -> float:
        """The window span actually covered at ``now``."""
        if self._t0 is None:
            return 0.0
        return min(self._window.horizon, max(now - self._t0, 0.0))

    def rate(self, now: float) -> float:
        """Events per time unit over the trailing window (0 if no
        span has been covered yet)."""
        span = self.span(now)
        if span <= 0:
            return 0.0
        self._window.advance(now)
        return self.count / span

    def confidence_interval(
        self, now: float, z: float = 1.96
    ) -> Tuple[float, float]:
        """Normal-approximation Poisson CI for the rate: ``λ̂ ±
        z·√n/T`` (clipped at 0)."""
        span = self.span(now)
        if span <= 0:
            return (0.0, 0.0)
        self._window.advance(now)
        n = self.count
        half = z * math.sqrt(max(n, 1.0)) / span
        rate = n / span
        return (max(rate - half, 0.0), rate + half)


class OccupancyWindow:
    """Time-weighted occupancy histogram over integer levels.

    Tracks how long the monitored quantity (a queue depth) spent at
    each level within a trailing window, as a list of dwell segments.
    :meth:`histogram` returns time-in-level; :meth:`jump_counts`
    returns how many dwell segments *ended* at each level — the
    effective sample counts the G-test needs (dwell segments, not
    time, are the independent observations of a CTMC trajectory).
    """

    def __init__(self, horizon: float, max_samples: int = 8192) -> None:
        if horizon <= 0:
            raise ObsError(f"window horizon must be > 0, got {horizon}")
        self.horizon = float(horizon)
        self._segments: Deque[Tuple[float, float, int]] = deque(
            maxlen=max_samples
        )  # (start, end, level)
        self._level: Optional[int] = None
        self._since = 0.0
        self._now = 0.0

    @property
    def level(self) -> Optional[int]:
        """The current level (``None`` before the first set)."""
        return self._level

    def set_level(self, time: float, level: int) -> None:
        """The quantity moved to ``level`` at ``time``; closes the
        previous dwell segment."""
        if self._level is not None and time > self._since:
            self._segments.append((self._since, time, self._level))
        self._level = int(level)
        self._since = time
        self.advance(time)

    def advance(self, now: float) -> None:
        """Age out segments wholly older than the window."""
        if now > self._now:
            self._now = now
        edge = self._now - self.horizon
        segments = self._segments
        while segments and segments[0][1] <= edge:
            segments.popleft()

    def histogram(self, now: Optional[float] = None) -> Dict[int, float]:
        """Time spent per level inside the trailing window, the open
        segment included."""
        if now is not None:
            self.advance(now)
        t1 = self._now
        edge = t1 - self.horizon
        out: Dict[int, float] = {}
        for start, end, level in self._segments:
            weight = min(end, t1) - max(start, edge)
            if weight > 0:
                out[level] = out.get(level, 0.0) + weight
        if self._level is not None and t1 > max(self._since, edge):
            out[self._level] = out.get(self._level, 0.0) + (
                t1 - max(self._since, edge)
            )
        return out

    def jump_counts(self) -> Dict[int, int]:
        """Closed dwell segments per level inside the window — the
        independent-observation counts for the G-test."""
        out: Dict[int, int] = {}
        for _, _, level in self._segments:
            out[level] = out.get(level, 0) + 1
        return out


class Cusum:
    """Two-sided CUSUM detector on a standardized sample stream.

    Feed samples expected to have mean ``target`` under the null; the
    upper branch ``S⁺`` accumulates evidence of an upward mean shift,
    the lower branch ``S⁻`` of a downward one, each drifting back by
    the slack ``k`` per sample.  An alarm fires when either branch
    exceeds ``h``.  For exponential inter-arrival times scaled by the
    model rate (mean 1 under conformance), ``k≈0.25``/``h≈8`` detects
    a 2× rate change within tens of events at a negligible false-alarm
    rate.
    """

    def __init__(self, target: float = 1.0, k: float = 0.25,
                 h: float = 8.0) -> None:
        if h <= 0 or k < 0:
            raise ObsError(
                f"need h > 0 and k >= 0, got h={h}, k={k}"
            )
        self.target = float(target)
        self.k = float(k)
        self.h = float(h)
        self.s_pos = 0.0
        self.s_neg = 0.0
        self.samples = 0

    @property
    def statistic(self) -> float:
        """The larger branch statistic."""
        return max(self.s_pos, self.s_neg)

    @property
    def tripped(self) -> bool:
        """Is either branch above the alarm level?"""
        return self.statistic > self.h

    def update(self, x: float) -> bool:
        """Fold in one sample; returns ``True`` while either branch is
        above the alarm level."""
        dev = float(x) - self.target
        self.s_pos = max(0.0, self.s_pos + dev - self.k)
        self.s_neg = max(0.0, self.s_neg - dev - self.k)
        self.samples += 1
        return self.tripped

    @property
    def direction(self) -> str:
        """Which branch dominates (``"up"`` / ``"down"`` / ``""``)."""
        if self.s_pos > self.s_neg and self.s_pos > 0:
            return "up"
        if self.s_neg > self.s_pos and self.s_neg > 0:
            return "down"
        return ""

class PageHinkley:
    """Two-sided Page–Hinkley test for a mean shift in a sample stream.

    Each side keeps its own cumulative deviation from the running mean
    with the drift allowance ``delta`` applied *against* that side's
    shift direction: the upward sum ``Σ(x − x̄ − δ)`` alarms when it
    rises more than ``threshold`` above its running minimum, the
    downward sum ``Σ(x − x̄ + δ)`` when it falls more than
    ``threshold`` below its running maximum.  (A single shared sum —
    a common implementation shortcut — makes the downward statistic
    grow without bound whenever typical samples sit below
    ``mean + δ``, i.e. always.)
    """

    def __init__(self, delta: float = 0.05,
                 threshold: float = 10.0,
                 min_samples: int = 10) -> None:
        if threshold <= 0:
            raise ObsError(
                f"threshold must be > 0, got {threshold}"
            )
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self._mean = 0.0
        self._cum_up = 0.0
        self._min_up = 0.0
        self._cum_dn = 0.0
        self._max_dn = 0.0
        self.samples = 0

    @property
    def stat_up(self) -> float:
        """Evidence of an upward mean shift."""
        return self._cum_up - self._min_up

    @property
    def stat_down(self) -> float:
        """Evidence of a downward mean shift."""
        return self._max_dn - self._cum_dn

    @property
    def statistic(self) -> float:
        """Max of the two one-sided deviations."""
        return max(self.stat_up, self.stat_down)

    @property
    def direction(self) -> str:
        """Which side dominates (``"up"`` / ``"down"`` / ``""``)."""
        if self.stat_up > self.stat_down:
            return "up"
        if self.stat_down > self.stat_up:
            return "down"
        return ""

    @property
    def tripped(self) -> bool:
        """Is the statistic above threshold (after warm-up)?"""
        return (self.samples >= self.min_samples
                and self.statistic > self.threshold)

    def update(self, x: float) -> bool:
        """Fold in one sample; returns ``True`` when the alarm fires."""
        x = float(x)
        self.samples += 1
        self._mean += (x - self._mean) / self.samples
        self._cum_up += x - self._mean - self.delta
        self._min_up = min(self._min_up, self._cum_up)
        self._cum_dn += x - self._mean + self.delta
        self._max_dn = max(self._max_dn, self._cum_dn)
        return self.tripped

def _normal_sf(z: float) -> float:
    """Survival function of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_sf(x: float, df: int) -> float:
    """χ² survival function via the Wilson–Hilferty cube-root normal
    approximation — accurate to a few 1e-3 for df ≥ 1, which is ample
    for alarm thresholds (no scipy dependency)."""
    if df < 1:
        raise ObsError(f"df must be >= 1, got {df}")
    if x <= 0:
        return 1.0
    t = (x / df) ** (1.0 / 3.0)
    mu = 1.0 - 2.0 / (9.0 * df)
    sigma = math.sqrt(2.0 / (9.0 * df))
    return _normal_sf((t - mu) / sigma)


class GTestResult:
    """Outcome of one G-test: statistic, degrees of freedom, p-value."""

    __slots__ = ("statistic", "df", "p_value", "n")

    def __init__(self, statistic: float, df: int, p_value: float,
                 n: float) -> None:
        self.statistic = statistic
        self.df = df
        self.p_value = p_value
        self.n = n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GTestResult(G={self.statistic:.3g}, df={self.df}, "
                f"p={self.p_value:.3g}, n={self.n:g})")


def g_test(
    observed: Dict[int, float],
    expected_probs: Sequence[float],
) -> Optional[GTestResult]:
    """Log-likelihood-ratio goodness-of-fit of ``observed`` counts
    against model cell probabilities.

    ``observed`` maps level → count (levels beyond the model's support
    are folded into the last cell); cells whose expected count falls
    below one are pooled with their neighbour so the χ²
    approximation holds.  Returns ``None`` when there is not enough
    data (fewer than two populated cells after pooling or zero total
    count) — callers treat that as "no verdict yet", never as a pass
    or fail.
    """
    k = len(expected_probs)
    if k < 2:
        return None
    total_prob = float(sum(expected_probs))
    if total_prob <= 0:
        return None
    obs = [0.0] * k
    for level, count in observed.items():
        cell = min(max(int(level), 0), k - 1)
        obs[cell] += float(count)
    n = sum(obs)
    if n <= 0:
        return None
    exp = [n * p / total_prob for p in expected_probs]

    # Pool adjacent low-expectation cells (right to left) so every
    # remaining cell has expected count >= 1.
    pooled_obs: List[float] = []
    pooled_exp: List[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= 1.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    if len(pooled_exp) < 2:
        return None

    g = 0.0
    for o, e in zip(pooled_obs, pooled_exp):
        if o > 0:
            g += o * math.log(o / e)
    g *= 2.0
    df = len(pooled_exp) - 1
    return GTestResult(g, df, chi2_sf(g, df), n)
