"""Calibrating the CTMC from the real analyzer and healer.

Section VI, step one: "design and evaluate the performance degradation
of analyzing algorithm and scheduling algorithm.  Evaluate μ_k and ξ_k,
where 1 ≤ k ≤ n."  The paper assumes those schedules are given; this
module *measures* them on the implementation:

- :func:`measure_scan_rates` times the damage analysis (Theorems 1–2
  on a fresh dependency index) of alert batches of growing size — the
  processing rate with ``k`` queued alerts is ``k / (time to analyze
  a k-batch)``;
- :func:`measure_recovery_rates` times one batch heal
  (:meth:`~repro.core.epochs.EpochManager.heal`) of incidents with
  growing numbers of recovery units — ``k / (time to heal k units)``;
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
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.undo_redo import (
    RedoAnalysis,
    UndoAnalysis,
    find_redo_tasks,
    find_undo_tasks,
)
from repro.errors import ModelError
from repro.sim.recovery_sim import run_pipeline
from repro.sim.workload import WorkloadConfig, WorkloadGenerator
from repro.workflow.dependency import DependencyAnalyzer

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


def _timed(fn: Callable[[], object]) -> float:
    """Wall seconds of one call of ``fn``."""
    start = time.perf_counter()  # lint: allow[DET001] host benchmark timing, not simulated time
    fn()
    return time.perf_counter() - start  # lint: allow[DET001] host benchmark timing, not simulated time


def _attacked_pipeline(seed: int, batch: int):
    """A freshly attacked pipeline with room for ``batch`` alerts.

    Twice as many tasks are tampered with as alerts are needed: some
    sit on branches the run never takes, and so never execute."""
    gen = WorkloadGenerator(
        WorkloadConfig(n_workflows=4, tasks_per_workflow=14,
                       branch_probability=0.3),
        random.Random(seed),
    )
    workload = gen.generate()
    campaign = gen.pick_attacks(workload, n_attacks=2 * batch)
    return run_pipeline(workload, campaign, seed=seed)


def _alerts(attacked, k: int) -> List[str]:
    """The first ``k`` malicious uids of an attacked pipeline, sorted."""
    alerts = sorted(attacked.malicious_ground_truth)
    if len(alerts) < k:
        raise ModelError(
            f"attacked pipeline produced {len(alerts)} malicious uids, "
            f"fewer than the batch size {k}"
        )
    return alerts[:k]


def _decided(attacked, alerts: Sequence[str]
             ) -> Tuple[UndoAnalysis, RedoAnalysis]:
    """The Theorem 1/2 sets of ``alerts`` over an attacked pipeline's
    log, decided on a fresh dependency index."""
    index = DependencyAnalyzer(attacked.log, attacked.specs_by_instance)
    undo_analysis = find_undo_tasks(index, alerts)
    return undo_analysis, find_redo_tasks(index, undo_analysis.definite)


def measure_scan_rates(
    batch_sizes: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
    repeats: int = 3,
) -> Dict[int, float]:
    """Alert-processing rate (alerts per second) with ``k`` alerts
    queued: ``k / (time to analyze the k-batch)``.

    Each timed call builds the dependency index and decides the
    Theorem 1/2 sets from scratch (:func:`_decided`); the attacked log
    is built once, outside the timer, and only read.
    """
    attacked = _attacked_pipeline(seed, max(batch_sizes))
    rates: Dict[int, float] = {}
    for k in batch_sizes:
        alerts = _alerts(attacked, k)
        best = float("inf")
        for __ in range(repeats):
            best = min(best, _timed(lambda: _decided(attacked, alerts)))
        rates[k] = k / best if best > 0 else float("inf")
    return rates


def measure_recovery_rates(
    unit_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
    repeats: int = 2,
) -> Dict[int, float]:
    """Recovery rate (units per second) of one batch heal of ``k``
    units: ``k / (time of one EpochManager.heal of a k-alert
    incident)``.

    A heal repairs its store and rolls its epoch, so every repeat heals
    a freshly attacked pipeline, built outside the timer.
    """
    rates: Dict[int, float] = {}
    for k in unit_counts:
        best = float("inf")
        for __ in range(repeats):
            attacked = _attacked_pipeline(seed, max(unit_counts))
            alerts = _alerts(attacked, k)
            best = min(best, _timed(
                lambda: attacked.manager.heal(alerts)))
        rates[k] = k / best if best > 0 else float("inf")
    return rates
