"""Parameter sensitivity of the recovery system's steady state.

Section VI asks designers to decide *where to spend*: faster base rates
(μ₁, ξ₁), flatter degradation, or bigger buffers.  Elasticities answer
that quantitatively: the percent change of a metric per percent change
of a parameter at the design point,

    E_p = (∂m / m) / (∂p / p)   (central finite differences)

An elasticity of −8 for ξ₁ means a 1 % faster scheduler cuts the metric
(e.g. loss probability) by ≈8 % — far better value than a parameter
with elasticity −0.5.  Buffer size is discrete, so its entry reports
the relative metric change for one extra slot instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import ModelError
from repro.markov.degradation import power_law
from repro.markov.metrics import (
    category_probabilities,
    loss_probability,
)
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, StateCategory

__all__ = ["Sensitivity", "loss_sensitivities", "normal_sensitivities"]


@dataclass(frozen=True)
class Sensitivity:
    """Elasticity of one metric with respect to one parameter.

    Attributes
    ----------
    parameter:
        ``"lambda"``, ``"mu1"``, ``"xi1"`` or ``"buffer"``.
    base_value:
        Parameter value at the design point.
    metric_at_base:
        Metric value at the design point.
    elasticity:
        ``d(log metric) / d(log parameter)``; for the discrete buffer,
        the relative metric change per added slot.
    """

    parameter: str
    base_value: float
    metric_at_base: float
    elasticity: float


def _metric_at(
    lam: float,
    mu1: float,
    xi1: float,
    buffer_size: int,
    alpha: float,
    metric: Callable[[RecoverySTG], float],
) -> float:
    # Each evaluation builds a fresh STG, but generator assembly hits
    # the per-shape structure cache in repro.markov.stg — a sweep over
    # λ/μ/ξ only refills rate values, never rebuilds the pattern.
    stg = RecoverySTG(
        arrival_rate=lam,
        scan=power_law(mu1, alpha),
        recovery=power_law(xi1, alpha),
        recovery_buffer=buffer_size,
    )
    return metric(stg)


def _sensitivities(
    lam: float,
    mu1: float,
    xi1: float,
    buffer_size: int,
    alpha: float,
    metric: Callable[[RecoverySTG], float],
    rel_step: float,
) -> List[Sensitivity]:
    if not 0 < rel_step < 0.5:
        raise ModelError(f"rel_step must be in (0, 0.5), got {rel_step}")
    base = _metric_at(lam, mu1, xi1, buffer_size, alpha, metric)
    floor = 1e-12
    out: List[Sensitivity] = []
    for name, value in (("lambda", lam), ("mu1", mu1), ("xi1", xi1)):
        lo_params = {"lambda": lam, "mu1": mu1, "xi1": xi1}
        hi_params = dict(lo_params)
        lo_params[name] = value * (1 - rel_step)
        hi_params[name] = value * (1 + rel_step)
        lo = _metric_at(lo_params["lambda"], lo_params["mu1"],
                        lo_params["xi1"], buffer_size, alpha, metric)
        hi = _metric_at(hi_params["lambda"], hi_params["mu1"],
                        hi_params["xi1"], buffer_size, alpha, metric)
        # Central difference of log(metric) w.r.t. log(parameter).
        import math

        d_log_metric = math.log(max(hi, floor)) - math.log(max(lo, floor))
        d_log_param = math.log(1 + rel_step) - math.log(1 - rel_step)
        out.append(
            Sensitivity(name, value, base, d_log_metric / d_log_param)
        )
    # Discrete buffer: relative change for one extra slot.
    bumped = _metric_at(lam, mu1, xi1, buffer_size + 1, alpha, metric)
    rel_change = (bumped - base) / max(base, floor)
    out.append(
        Sensitivity("buffer", float(buffer_size), base, rel_change)
    )
    return out


def loss_sensitivities(
    lam: float = 1.0,
    mu1: float = 15.0,
    xi1: float = 20.0,
    buffer_size: int = 15,
    alpha: float = 1.0,
    rel_step: float = 0.05,
    backend: Optional[str] = None,
) -> List[Sensitivity]:
    """Elasticities of the steady-state **loss probability**.

    ``backend`` is forwarded to every
    :func:`~repro.markov.steady_state.steady_state` solve of the sweep
    (``None`` = auto by state count).
    """

    def metric(stg: RecoverySTG) -> float:
        return loss_probability(
            stg, steady_state(stg.ctmc(), backend=backend)
        )

    return _sensitivities(lam, mu1, xi1, buffer_size, alpha, metric,
                          rel_step)


def normal_sensitivities(
    lam: float = 1.0,
    mu1: float = 15.0,
    xi1: float = 20.0,
    buffer_size: int = 15,
    alpha: float = 1.0,
    rel_step: float = 0.05,
    backend: Optional[str] = None,
) -> List[Sensitivity]:
    """Elasticities of the steady-state **P(NORMAL)**.

    ``backend`` selects the steady-state solver path for every
    evaluation in the sweep, exactly as in
    :func:`loss_sensitivities`.
    """

    def metric(stg: RecoverySTG) -> float:
        pi = steady_state(stg.ctmc(), backend=backend)
        return category_probabilities(stg, pi)[StateCategory.NORMAL]

    return _sensitivities(lam, mu1, xi1, buffer_size, alpha, metric,
                          rel_step)
