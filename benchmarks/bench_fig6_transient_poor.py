"""Figure 6(c)/(d) — transient behaviour of a *poor* system.

Case 6: λ=1, μ₁=2, ξ₁=3, buffer 15, starting from NORMAL, observed for
100 time units.  The attack rate is ~9× what the configuration was
designed for (it is perfectly adequate at λ=0.1).

Asserted shapes (the paper's remarks):

- performance degrades almost 100 % — P(NORMAL) → ≈0;
- the loss probability climbs quickly (< 30 time units) and stays in
  the 0.9–1.0 band;
- the system resists about 5 time units before the loss takes off;
- most of the cumulative time is spent losing alerts (right edge);
- at its design rate λ=0.1 the very same configuration is good.

A cumulative time is exact only to the solver's truncation error,
about ``ε·t`` (the entries sum to ``t``; ``ε`` is the float64 machine
epsilon), so the table prints a cumulative-time cell below that as 0:
its digits are rounding noise and change from run to run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.markov.metrics import category_probabilities, loss_probability
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, StateCategory
from repro.markov.transient import cumulative_times, transient_probabilities
from repro.report.series import Series, format_series

TIMES = [1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0, 75.0, 100.0]
MU1, XI1 = 2.0, 3.0


def resolved(value: float, t: float) -> float:
    """``value``, or 0 when it is below the ``ε·t`` truncation error of
    a cumulative time over ``[0, t]``."""
    return value if abs(value) >= np.finfo(float).eps * t else 0.0


def compute_fig6_poor():
    stg = RecoverySTG.paper_default(mu1=MU1, xi1=XI1)
    chain = stg.ctmc()
    pi0 = stg.initial_distribution()
    out = {
        "P(NORMAL)": Series("P(NORMAL)"),
        "P(SCAN)": Series("P(SCAN)"),
        "P(RECOVERY)": Series("P(RECOVERY)"),
        "loss": Series("loss probability"),
        "time@loss": Series("cumulative time on right edge"),
        "time@r=R": Series("cumulative time recovery queue full"),
    }
    loss_idx = [chain.index_of(s) for s in stg.loss_states()]
    full_r_idx = [
        chain.index_of(s)
        for s in stg.states
        if s.units == stg.recovery_buffer
    ]
    for t in TIMES:
        pi_t = transient_probabilities(chain, pi0, t)
        cats = category_probabilities(stg, pi_t)
        out["P(NORMAL)"].add(t, cats[StateCategory.NORMAL])
        out["P(SCAN)"].add(t, cats[StateCategory.SCAN])
        out["P(RECOVERY)"].add(t, cats[StateCategory.RECOVERY])
        out["loss"].add(t, loss_probability(stg, pi_t))
        lt = cumulative_times(chain, pi0, t)
        out["time@loss"].add(
            t, resolved(float(sum(lt[i] for i in loss_idx)), t))
        out["time@r=R"].add(
            t, resolved(float(sum(lt[i] for i in full_r_idx)), t))
    return stg, out


@pytest.fixture(scope="module")
def fig6poor():
    return compute_fig6_poor()


def test_fig6_poor_system(fig6poor, save_table, benchmark):
    benchmark.pedantic(compute_fig6_poor, rounds=1, iterations=1)
    stg, series = fig6poor

    # Degradation of performance is almost 100 %.
    assert series["P(NORMAL)"].y_at(100.0) < 0.01

    # Loss goes up quickly (< 30 time units) and stays in 0.9–1.0.
    assert series["loss"].y_at(30.0) > 0.5
    assert 0.85 <= series["loss"].y_at(100.0) <= 1.0

    # The system resists ≈5 time units before losing alerts.
    assert series["loss"].y_at(5.0) < 0.05
    assert series["loss"].y_at(20.0) > 0.2

    # Most cumulative time ends up on the right edge of the STG.
    assert series["time@loss"].y_at(100.0) > 0.5 * 100.0

    # The same configuration is GOOD at its design rate λ=0.1.
    design = RecoverySTG.paper_default(arrival_rate=0.1, mu1=MU1, xi1=XI1)
    pi = steady_state(design.ctmc())
    assert category_probabilities(design, pi)[StateCategory.NORMAL] > 0.8
    assert loss_probability(design, pi) < 1e-3

    save_table(
        "fig6_transient_poor",
        format_series(
            "Figure 6(c,d): transient behaviour, poor system "
            f"(lambda=1, mu1={MU1}, xi1={XI1}, buffer 15, start NORMAL)",
            list(series.values()),
            x_label="t",
        ),
    )
