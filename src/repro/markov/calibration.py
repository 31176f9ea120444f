"""Calibrating the CTMC from the real analyzer and healer.

Section VI, step one: "design and evaluate the performance degradation
of analyzing algorithm and scheduling algorithm.  Evaluate μ_k and ξ_k,
where 1 ≤ k ≤ n."  The paper assumes those schedules are given; this
module *measures* them on the implementation:

- :func:`measure_scan_rates` times the recovery analyzer on alert
  batches of growing size — the processing rate with ``k`` queued
  alerts is ``k / (time to analyze a k-batch)``;
- :func:`measure_recovery_rates` times the healer over incidents with
  growing numbers of recovery units;
- :func:`fit_power_law` fits ``rate_k = r₁ / k^α`` by least squares in
  log-log space; ``power_law(fit.base, fit.alpha)`` is the schedule
  :class:`~repro.markov.stg.RecoverySTG` takes.

The result closes the loop between the operational system and the
analytic model: the CTMC's parameters come from the code it models.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.core.analyzer import RecoveryAnalyzer
from repro.errors import ModelError
from repro.sim.recovery_sim import run_pipeline
from repro.sim.workload import WorkloadConfig, WorkloadGenerator

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "measure_scan_rates",
    "measure_recovery_rates",
]


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``rate_k = base / k^alpha``.

    Attributes
    ----------
    base:
        Fitted rate at ``k = 1``.
    alpha:
        Fitted degradation exponent (0 = no degradation).
    residual:
        Root-mean-square error of the fit in log space.
    """

    base: float
    alpha: float
    residual: float

def fit_power_law(rates: Mapping[int, float]) -> PowerLawFit:
    """Fit ``rate_k = base / k^alpha`` to measured ``{k: rate}`` pairs.

    Raises
    ------
    ModelError
        With fewer than two distinct ``k`` values or non-positive rates.
    """
    ks = sorted(rates)
    if len(ks) < 2:
        raise ModelError("need at least two batch sizes to fit")
    if any(rates[k] <= 0 for k in ks):
        raise ModelError("rates must be positive")
    x = np.log([float(k) for k in ks])
    y = np.log([rates[k] for k in ks])
    # y = log(base) − α·x
    a = np.vstack([np.ones_like(x), -x]).T
    (log_base, alpha), *_ = np.linalg.lstsq(a, y, rcond=None)
    fitted = log_base - alpha * x
    residual = float(np.sqrt(np.mean((fitted - y) ** 2)))
    return PowerLawFit(
        base=float(math.exp(log_base)),
        alpha=float(alpha),
        residual=residual,
    )


def _timed(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()  # lint: allow[DET001] host benchmark timing, not simulated time
        fn()
        best = min(best, time.perf_counter() - start)  # lint: allow[DET001] host benchmark timing, not simulated time
    return best


# Building an attacked pipeline (generate a workload, run it with a
# campaign, collect the log) dominates calibration time, and sweeps
# call measure_scan_rates / measure_recovery_rates repeatedly with the
# same seed.  The result is memoized per (seed, n_attacks, tasks); the
# cached log/specs are only *read* by the analyzers built on top.
_PIPELINE_CACHE: Dict[Tuple[int, int, int], Tuple[object, object]] = {}


def _attacked_pipeline(seed: int, n_attacks: int, tasks: int = 10):
    key = (seed, n_attacks, tasks)
    cached = _PIPELINE_CACHE.get(key)
    if cached is not None:
        return cached
    gen = WorkloadGenerator(
        WorkloadConfig(n_workflows=4, tasks_per_workflow=tasks,
                       branch_probability=0.3),
        random.Random(seed),
    )
    workload = gen.generate()
    campaign = gen.pick_attacks(workload, n_attacks=n_attacks)
    result = run_pipeline(workload, campaign, seed=seed)
    _PIPELINE_CACHE[key] = (workload, result)
    return workload, result


def measure_scan_rates(
    batch_sizes: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
    repeats: int = 3,
) -> Dict[int, float]:
    """Alert-processing rate (alerts per second) with ``k`` items of
    work in the system.

    The rate ``μ_k`` is the speed of admitting one alert while ``k−1``
    recovery units are already queued: the analyzer must cross-check
    the new unit against every outstanding one (Section V-A), so the
    per-alert rate falls as the queue grows.
    """
    workload, attacked = _attacked_pipeline(
        seed, n_attacks=max(max(batch_sizes), 4), tasks=14
    )
    analyzer = RecoveryAnalyzer(attacked.log, attacked.specs_by_instance)
    alerts = list(attacked.malicious_ground_truth)
    if not alerts:
        raise ModelError("attacked pipeline produced no malicious uids")
    # One fixed outstanding unit, replicated, so that only the queue
    # *length* varies between measurements — not the unit contents.
    base_unit = analyzer.analyze([alerts[0]])
    new_alert = alerts[1 % len(alerts)]
    analyzer.analyze([new_alert], outstanding=[base_unit])  # warm-up
    rates: Dict[int, float] = {}
    for k in batch_sizes:
        queued = [base_unit] * (k - 1)
        seconds = _timed(
            lambda q=queued: analyzer.analyze(
                [new_alert], outstanding=q
            ),
            repeats,
        )
        rates[k] = 1.0 / seconds if seconds > 0 else float("inf")
    return rates


def measure_recovery_rates(
    unit_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
    repeats: int = 2,
) -> Dict[int, float]:
    """Recovery-task dispatch rate (actions per second) vs queue size.

    "The scheduler needs to check dependence relations to all items in
    queues": dispatching ``minimal(S, ≺)`` means finding an action with
    no pending predecessor, which costs more the more units are queued.
    The measurement times one scheduler dispatch from a partial order
    holding ``k`` units' worth of recovery actions (identical unit
    contents, so only the queue length varies).
    """
    from repro.core.actions import Action
    from repro.workflow.precedence import PartialOrder
    from repro.workflow.scheduler import PartialOrderScheduler

    workload, attacked = _attacked_pipeline(seed, n_attacks=4, tasks=14)
    analyzer = RecoveryAnalyzer(attacked.log, attacked.specs_by_instance)
    alerts = list(attacked.malicious_ground_truth)
    if not alerts:
        raise ModelError("attacked pipeline produced no malicious uids")
    unit = analyzer.analyze(alerts[:1])
    unit_actions = sorted(unit.order.elements())

    def build_order(k: int) -> PartialOrder:
        """A queue of k units: each unit's actions, chained FIFO."""
        order: PartialOrder = PartialOrder()
        previous: list = []
        for i in range(k):
            current = []
            for action in unit_actions:
                tagged = Action(action.kind, f"u{i}:{action.uid}")
                order.add_element(tagged)
                current.append(tagged)
            for before, after in unit.order.edges():
                order.add_edge(
                    Action(before.kind, f"u{i}:{before.uid}"),
                    Action(after.kind, f"u{i}:{after.uid}"),
                )
            for prior in previous:
                order.add_edge(prior, current[0])  # FIFO across units
            previous = current
        return order

    rates: Dict[int, float] = {}
    for k in unit_counts:
        order = build_order(k)

        def dispatch_one(o=order):
            PartialOrderScheduler(o, lambda a: None).step()

        dispatch_one()  # warm-up
        seconds = _timed(dispatch_one, repeats)
        rates[k] = 1.0 / seconds if seconds > 0 else float("inf")
    return rates
