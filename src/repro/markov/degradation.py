"""Rate-degradation families ``f`` and ``g``.

Section IV-D: alert processing and recovery execution slow down as queues
fill, because the analyzer and scheduler check dependences against every
queued item: ``μ_k = f(μ_1, k)`` and ``ξ_k = g(ξ_1, k)`` with
``μ_1 ≥ μ_2 ≥ ...`` and ``ξ_1 ≥ ξ_2 ≥ ...``.  "We use function f and g to
simulate the degradation of performance when the number of items in
queues increases."

This module provides the standard families used in the evaluation
(Figure 4 sweeps them) plus the exact presets for Figure 4's four panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Tuple

__all__ = [
    "RateFunction",
    "constant",
    "inverse_k",
    "power_law",
    "fig4_cases",
]


@dataclass(frozen=True)
class RateFunction:
    """A non-increasing rate schedule ``k ↦ rate_k`` for ``k ≥ 1``.

    Attributes
    ----------
    name:
        Identifier used in reports (e.g. ``"mu1/k"``).
    base:
        The rate at ``k = 1`` (the paper's ``μ_1`` / ``ξ_1``).
    fn:
        Maps ``(base, k)`` to the rate with ``k`` queued items.
    """

    name: str
    base: float
    fn: Callable[[float, int], float]

    def __call__(self, k: int) -> float:
        """Rate with ``k`` items queued (``k ≥ 1``)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        rate = self.fn(self.base, k)
        if rate < 0:
            raise ValueError(
                f"rate function {self.name!r} produced negative rate "
                f"{rate} at k={k}"
            )
        return rate

# The standard families use module-level functions (plus functools
# partials for parameterized ones) rather than lambdas so a RateFunction
# — and any RecoverySTG holding one — pickles cleanly across the
# process-pool boundary of repro.sim.batch.

def _constant_fn(b: float, k: int) -> float:
    return b


def _inverse_k_fn(b: float, k: int) -> float:
    return b / k


def _power_law_fn(alpha: float, b: float, k: int) -> float:
    return b / (k ** alpha)


def constant(base: float) -> RateFunction:
    """No degradation: ``rate_k = rate_1`` for all ``k``."""
    return RateFunction("const", base, _constant_fn)


def inverse_k(base: float) -> RateFunction:
    """Linear-work degradation: ``rate_k = rate_1 / k``.

    Matches an analyzer/scheduler whose per-item cost grows linearly
    with queue length (the realistic case the paper emphasizes).
    """
    return RateFunction("1/k", base, _inverse_k_fn)


def power_law(base: float, alpha: float) -> RateFunction:
    """``rate_k = rate_1 / k^alpha``; ``alpha`` ≈ 0 is "very slow"
    degradation (Figure 4(a)), ``alpha = 1`` is :func:`inverse_k`."""
    return RateFunction(
        f"1/k^{alpha:g}", base, partial(_power_law_fn, alpha)
    )


def fig4_cases(mu1: float, xi1: float) -> Dict[str, Tuple[RateFunction, RateFunction]]:
    """The four ``(f, g)`` pairs of Figure 4.

    - ``(a)`` very slow degradation of both rates — loss probability
      falls monotonically with buffer size;
    - ``(b)`` both degrade as ``1/k`` — loss is U-shaped in buffer size;
    - ``(c)`` only ``ξ`` degrades (``μ`` constant) — the adverse case;
    - ``(d)`` only ``μ`` degrades — better than (c): slowing the scan
      throttles the producer of recovery units while the drain stays
      fast.
    """
    return {
        "a": (power_law(mu1, 0.1), power_law(xi1, 0.1)),
        "b": (inverse_k(mu1), inverse_k(xi1)),
        "c": (constant(mu1), inverse_k(xi1)),
        "d": (inverse_k(mu1), constant(xi1)),
    }
