"""Section VI: guidelines for designing a recovery system.

The paper gives a step-by-step sizing procedure for target parameters
``λ`` (expected attack rate) and ``ε`` (acceptable steady-state loss
probability):

1. evaluate the degradation schedules ``μ_k``, ``ξ_k`` of the candidate
   analyzing/scheduling algorithms;
2. grow the recovery-task buffer from 2 until the loss probability
   stops improving (it can *worsen* for fast-degrading schedules);
3. accept the first buffer size achieving ε-convergence; otherwise
   report that the algorithms must be redesigned (faster base rates or
   slower degradation);
4. size the alert buffer for the peak (transient) rate, not the mean.

:func:`design_system` automates steps 1–3; step 4 is supported through
:func:`peak_resilience`, which measures how long a system at NORMAL can
absorb a given attack rate before its loss probability exceeds ε (the
paper's Case 6 observation: "the system can resist such high attacking
rate about 5 time-units").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.markov.degradation import RateFunction
from repro.markov.metrics import loss_probability
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG
from repro.markov.transient import transient_probabilities

__all__ = ["DesignResult", "sweep_buffer_sizes", "design_system",
           "peak_resilience", "cost_effective_rate"]


@dataclass
class DesignResult:
    """Outcome of the Section VI sizing procedure.

    Attributes
    ----------
    feasible:
        Whether some buffer size achieved the target ε.
    buffer_size:
        The chosen recovery-task buffer size (smallest achieving ε), or
        the best-effort size when infeasible.
    achieved_epsilon:
        Steady-state loss probability at ``buffer_size``.
    swept:
        ``buffer size → loss probability`` for every size tried.
    """

    feasible: bool
    buffer_size: int
    achieved_epsilon: float
    swept: Dict[int, float] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable account."""
        verdict = "feasible" if self.feasible else "INFEASIBLE"
        return (
            f"design {verdict}: buffer={self.buffer_size}, "
            f"ε={self.achieved_epsilon:.3g} "
            f"(swept {min(self.swept)}..{max(self.swept)})"
        )


def sweep_buffer_sizes(
    arrival_rate: float,
    scan: RateFunction,
    recovery: RateFunction,
    sizes: Optional[List[int]] = None,
) -> Dict[int, float]:
    """Steady-state loss probability for each buffer size (Figure 4's
    x-axis sweep, square ``n × n`` STGs)."""
    if sizes is None:
        sizes = list(range(2, 31))
    out: Dict[int, float] = {}
    for n in sizes:
        stg = RecoverySTG(
            arrival_rate=arrival_rate,
            scan=scan,
            recovery=recovery,
            recovery_buffer=n,
        )
        pi = steady_state(stg.ctmc())
        out[n] = loss_probability(stg, pi)
    return out


def design_system(
    arrival_rate: float,
    epsilon: float,
    scan: RateFunction,
    recovery: RateFunction,
    max_buffer: int = 30,
) -> DesignResult:
    """Steps 1–3 of the Section VI procedure.

    Grows the recovery-task buffer from 2 to ``max_buffer``, stopping
    early once the loss probability starts rising again (larger queues
    only slow the degraded system further), and picks the smallest size
    achieving the target ``epsilon``.
    """
    swept: Dict[int, float] = {}
    best_size, best_loss = 2, float("inf")
    chosen: Optional[int] = None
    rising_streak = 0
    for n in range(2, max_buffer + 1):
        stg = RecoverySTG(
            arrival_rate=arrival_rate,
            scan=scan,
            recovery=recovery,
            recovery_buffer=n,
        )
        lp = loss_probability(stg, steady_state(stg.ctmc()))
        swept[n] = lp
        if lp < best_loss:
            best_loss, best_size = lp, n
            rising_streak = 0
        else:
            rising_streak += 1
        if chosen is None and lp <= epsilon:
            chosen = n
            break
        if rising_streak >= 3:
            break  # loss is getting worse; stop growing the buffer
    if chosen is not None:
        return DesignResult(
            feasible=True,
            buffer_size=chosen,
            achieved_epsilon=swept[chosen],
            swept=swept,
        )
    return DesignResult(
        feasible=False,
        buffer_size=best_size,
        achieved_epsilon=best_loss,
        swept=swept,
    )


def cost_effective_rate(
    arrival_rate: float,
    which: str,
    other_rate: float,
    buffer_size: int = 15,
    tolerance: float = 0.05,
    candidates: Optional[List[float]] = None,
) -> float:
    """The knee of the Section V cost-effectiveness curve.

    Cases 3 and 4 observe that "after exceeding a specific value, μ₁ and
    ξ₁ have no significant impacts on improving the steady probability
    of the NORMAL [state].  There exists a cost effective range."  This
    finds the smallest base rate whose steady-state P(NORMAL) is within
    ``tolerance`` of the best achievable over the candidate range — the
    rate past which spending more buys nothing.

    Parameters
    ----------
    arrival_rate:
        λ of the target environment.
    which:
        ``"mu"`` to sweep the scan rate (``other_rate`` is ξ₁) or
        ``"xi"`` to sweep the recovery rate (``other_rate`` is μ₁).
    other_rate:
        The base rate held fixed.
    buffer_size, tolerance, candidates:
        Sweep configuration; candidates default to 1..30.
    """
    from repro.markov.metrics import category_probabilities
    from repro.markov.stg import StateCategory

    if which not in ("mu", "xi"):
        raise ValueError(f"which must be 'mu' or 'xi', got {which!r}")
    if candidates is None:
        candidates = [float(v) for v in range(1, 31)]
    candidates = sorted(candidates)

    def p_normal(rate: float) -> float:
        mu1, xi1 = (rate, other_rate) if which == "mu" else (other_rate,
                                                             rate)
        stg = RecoverySTG(
            arrival_rate=arrival_rate,
            scan=RateFunction("1/k", mu1, lambda b, k: b / k),
            recovery=RateFunction("1/k", xi1, lambda b, k: b / k),
            recovery_buffer=buffer_size,
        )
        pi = steady_state(stg.ctmc())
        return category_probabilities(stg, pi)[StateCategory.NORMAL]

    values = {rate: p_normal(rate) for rate in candidates}
    best = max(values.values())
    for rate in candidates:
        if values[rate] >= best - tolerance:
            return rate
    return candidates[-1]  # pragma: no cover - best is in values


def peak_resilience(
    stg: RecoverySTG,
    epsilon: float,
    horizon: float = 50.0,
    step: float = 0.25,
) -> float:
    """How long a system starting at NORMAL withstands its configured
    attack rate before the transient loss probability exceeds
    ``epsilon``.

    Returns ``horizon`` when the loss probability never exceeds
    ``epsilon`` within the horizon (the system absorbs the peak).  This
    quantifies the paper's Case 6 remark that an under-provisioned
    system "can resist such high attacking rate about 5 time-units".
    """
    pi0 = stg.initial_distribution()
    chain = stg.ctmc()
    t = step
    while t <= horizon + 1e-12:
        pi_t = transient_probabilities(chain, pi0, t)
        if loss_probability(stg, pi_t) > epsilon:
            return t
        t += step
    return horizon
