"""Figure 6(a)/(b) — transient behaviour of a *good* system.

Case 5: λ=1, μ₁=15, ξ₁=20, buffer 15, starting from NORMAL, observed
for 4 time units (Equation 2 for probabilities, Equation 3 for
cumulative state times).

Asserted shapes: the system enters its steady state very quickly
(within ~1 time unit); the loss probability is not noticeable
(indistinguishable from the x-axis); most of the time is spent in
NORMAL — attacks are handled at little cost.
"""

from __future__ import annotations

import pytest

from repro.markov.metrics import (
    category_probabilities,
    convergence_time,
    epsilon_convergence,
    loss_probability,
)
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, StateCategory
from repro.markov.transient import cumulative_times, transient_probabilities
from repro.report.series import Series, format_series

TIMES = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


def compute_fig6_good():
    stg = RecoverySTG.paper_default()
    chain = stg.ctmc()
    pi0 = stg.initial_distribution()
    out = {
        "P(NORMAL)": Series("P(NORMAL)"),
        "P(SCAN)": Series("P(SCAN)"),
        "P(RECOVERY)": Series("P(RECOVERY)"),
        "loss": Series("loss probability"),
        "time@NORMAL": Series("cumulative time in NORMAL"),
        "time@loss": Series("cumulative time on right edge"),
    }
    loss_idx = [chain.index_of(s) for s in stg.loss_states()]
    normal_idx = chain.index_of(stg.normal_state)
    for t in TIMES:
        pi_t = transient_probabilities(chain, pi0, t)
        cats = category_probabilities(stg, pi_t)
        out["P(NORMAL)"].add(t, cats[StateCategory.NORMAL])
        out["P(SCAN)"].add(t, cats[StateCategory.SCAN])
        out["P(RECOVERY)"].add(t, cats[StateCategory.RECOVERY])
        out["loss"].add(t, loss_probability(stg, pi_t))
        lt = cumulative_times(chain, pi0, t)
        out["time@NORMAL"].add(t, float(lt[normal_idx]))
        out["time@loss"].add(t, float(sum(lt[i] for i in loss_idx)))
    return stg, out


@pytest.fixture(scope="module")
def fig6good():
    return compute_fig6_good()


def test_fig6_good_system(fig6good, save_table, save_metrics, benchmark):
    benchmark.pedantic(compute_fig6_good, rounds=1, iterations=1)
    stg, series = fig6good

    # Rapid convergence: by t=1 the distribution matches the steady
    # state on the NORMAL probability.
    pi_inf = steady_state(stg.ctmc())
    p_normal_inf = category_probabilities(stg, pi_inf)[
        StateCategory.NORMAL
    ]
    assert abs(series["P(NORMAL)"].y_at(1.0) - p_normal_inf) < 0.02

    # Loss probability "cannot be distinguished from the x axis".
    assert max(series["loss"].ys) < 1e-4
    assert max(series["time@loss"].ys) < 1e-3

    # The system spends most of its time executing normal tasks.
    assert series["P(NORMAL)"].y_at(4.0) > 0.8
    assert series["time@NORMAL"].y_at(4.0) > 0.8 * 4.0

    save_table(
        "fig6_transient_good",
        format_series(
            "Figure 6(a,b): transient behaviour, good system "
            "(lambda=1, mu1=15, xi1=20, buffer 15, start NORMAL)",
            list(series.values()),
            x_label="t",
        ),
    )

    # Definition 4 alongside the loss series: the ε the steady state
    # promises, and how long the transient takes to honour it.  The
    # bulk distribution settles within ~1 time unit (asserted above),
    # but the loss tail mixes on a far slower timescale — the sweep
    # must reach into the thousands to see it land.
    eps = epsilon_convergence(stg)
    t_conv = convergence_time(stg, tol=1e-3, horizon=8000.0, step=100.0)
    assert t_conv is not None, (
        "good system's loss tail should settle within the sweep horizon"
    )
    save_metrics("fig6_transient_good", {
        "repro_model_epsilon_convergence": eps,
        "repro_model_convergence_time": t_conv,
    })
