"""Performance metrics over STG distributions.

Implements Definition 3 (loss probability), Definition 4
(ε-convergence), the category probabilities P(NORMAL) / P(SCAN) /
P(RECOVERY) plotted in Figure 5, and the expected queue lengths of
Figures 5(b)/(d)/(f).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ModelError
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, StateCategory

__all__ = [
    "loss_probability",
    "category_probabilities",
    "expected_alerts",
    "expected_recovery_units",
    "epsilon_convergence",
    "convergence_time",
    "expected_lost_alerts",
    "occupancy_correlation_time",
]


def _check(stg: RecoverySTG, pi: np.ndarray) -> np.ndarray:
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (len(stg.states),):
        raise ModelError(
            f"distribution has shape {pi.shape}, expected "
            f"({len(stg.states)},)"
        )
    return pi


def loss_probability(stg: RecoverySTG, pi: np.ndarray) -> float:
    """Definition 3: probability mass on the STG's right edge.

    ``lp_π = Σ_{i ∈ E} p_i`` where ``E`` is the set of states with the
    recovery-task queue full — the states in which the system is at its
    limit and IDS alerts are (about to be) lost.
    """
    pi = _check(stg, pi)
    chain = stg.ctmc()
    return float(sum(pi[chain.index_of(s)] for s in stg.loss_states()))


def category_probabilities(
    stg: RecoverySTG, pi: np.ndarray
) -> Dict[StateCategory, float]:
    """Mass on NORMAL / SCAN / RECOVERY (the Figure 5 series)."""
    pi = _check(stg, pi)
    chain = stg.ctmc()
    out: Dict[StateCategory, float] = {c: 0.0 for c in StateCategory}
    for s in stg.states:
        out[s.category] += float(pi[chain.index_of(s)])
    return out


def expected_alerts(stg: RecoverySTG, pi: np.ndarray) -> float:
    """Expected number of IDS alerts in the queue under ``pi``."""
    pi = _check(stg, pi)
    chain = stg.ctmc()
    return float(
        sum(s.alerts * pi[chain.index_of(s)] for s in stg.states)
    )


def expected_recovery_units(stg: RecoverySTG, pi: np.ndarray) -> float:
    """Expected number of recovery-task units in the queue under ``pi``."""
    pi = _check(stg, pi)
    chain = stg.ctmc()
    return float(
        sum(s.units * pi[chain.index_of(s)] for s in stg.states)
    )


def expected_lost_alerts(
    stg: RecoverySTG,
    t: float,
    pi0: Optional[np.ndarray] = None,
) -> float:
    """Expected number of IDS alerts lost over ``[0, t]``.

    Alerts arrive as a Poisson stream of rate λ and are lost exactly
    while the system occupies a loss state, so the expected loss count
    is ``λ · Σ_{s ∈ E} l_s(t)`` with ``l`` the cumulative state times of
    Equation 3.  This quantifies the transient question the paper asks
    of Figure 6: "how many IDS alerts have been lost before the system
    enters its steady state".
    """
    from repro.markov.transient import cumulative_times

    chain = stg.ctmc()
    if pi0 is None:
        pi0 = stg.initial_distribution()
    lt = cumulative_times(chain, pi0, t)
    on_edge = sum(lt[chain.index_of(s)] for s in stg.loss_states())
    return float(stg.arrival_rate * on_edge)


def epsilon_convergence(stg: RecoverySTG,
                        pi: Optional[np.ndarray] = None) -> float:
    """Definition 4: the ``ε`` such that the system is ε-convergent.

    The loss probability at the steady state; computed from ``pi`` when
    given, otherwise from the STG's own steady state.  A 1-convergent
    system is useless; designers aim for ε as small as possible.
    """
    if pi is None:
        pi = steady_state(stg.ctmc())
    return loss_probability(stg, pi)


def occupancy_correlation_time(stg: RecoverySTG) -> float:
    """π-weighted integrated autocorrelation time of the alert levels.

    For each alert-queue level ``k`` the indicator ``1{alerts = k}``
    has an integrated autocorrelation time ``τ_k`` under the chain's
    stationary law; this returns ``Σ_k π_k τ_k`` (each cell weighted by
    its stationary mass), the *design effect* timescale of the
    occupancy histogram: a window of length ``T`` carries roughly
    ``T / (2 τ̄)`` independent histogram observations, not one per
    dwell segment.  The conformance monitor uses this to keep its
    occupancy G-test honest on slowly-mixing workloads, where dwell
    segments are long, few, and heavily dependent.

    Computed exactly from the generator via the Poisson equation: with
    ``f̄ = f − π·f`` the solution of ``Q h = −f̄`` is
    ``h = (1πᵀ − Q)⁻¹ f̄``, the asymptotic variance rate is
    ``2 π·(f̄ ∘ h)``, and ``τ = σ²_as / (2 σ²_f)``.  One dense solve
    over all level indicators at once.
    """
    chain = stg.ctmc()
    pi = steady_state(chain)
    n = len(pi)
    levels = sorted({s.alerts for s in stg.states})
    indicators = np.zeros((n, len(levels)))
    col = {k: j for j, k in enumerate(levels)}
    for s in stg.states:
        indicators[chain.index_of(s), col[s.alerts]] = 1.0
    mass = pi @ indicators
    centered = indicators - mass[np.newaxis, :]
    a = np.outer(np.ones(n), pi) - chain.generator
    h = np.linalg.solve(a, centered)
    asym = 2.0 * np.einsum("i,ij,ij->j", pi, centered, h)
    var = pi @ (centered * centered)
    tau_bar = 0.0
    for j, k in enumerate(levels):
        if var[j] > 1e-15:
            tau_bar += mass[j] * max(asym[j] / (2.0 * var[j]), 0.0)
    return float(max(tau_bar, 0.0))


def convergence_time(
    stg: RecoverySTG,
    tol: float = 1e-3,
    horizon: float = 50.0,
    step: float = 0.5,
    pi0: Optional[np.ndarray] = None,
    backend: Optional[str] = None,
) -> Optional[float]:
    """Time until the transient loss probability settles at ε (Def. 4).

    Scans ``π(t)`` on a ``step``-spaced grid over ``[0, horizon]`` and
    returns the earliest grid time from which the transient loss
    probability stays within ``tol`` of the steady-state ε for the rest
    of the grid — the "how long before the model's promise holds"
    number Figure 6 asks for.  Returns ``None`` when the system has not
    settled by ``horizon``.

    The grid is walked incrementally — each point propagates the
    previous point's distribution by one ``step`` (the Markov property
    makes that exact) — so the total work is one uniformization pass
    over ``[0, horizon]``, not one pass per grid point.  Long horizons
    with coarse steps stay cheap; the slowly-mixing loss tail of the
    paper's configuration needs horizons in the thousands.
    """
    from repro.markov.transient import transient_probabilities

    if tol <= 0:
        raise ModelError(f"tol must be > 0, got {tol}")
    if horizon <= 0 or step <= 0:
        raise ModelError(
            f"horizon and step must be > 0, got {horizon}, {step}"
        )
    chain = stg.ctmc()
    eps = epsilon_convergence(stg)
    if pi0 is None:
        pi0 = stg.initial_distribution()
    pi_t = np.asarray(pi0, dtype=float)
    settled_at: Optional[float] = None
    t = 0.0
    while t <= horizon + 1e-12:
        if abs(loss_probability(stg, pi_t) - eps) <= tol:
            if settled_at is None:
                settled_at = t
        else:
            settled_at = None
        t += step
        if t <= horizon + 1e-12:
            pi_t = transient_probabilities(chain, pi_t, step,
                                           backend=backend)
    return settled_at
