"""Extension A — discrete-event cross-validation of the CTMC.

The paper's evaluation is purely analytic.  Here an exact stochastic
(Gillespie) simulation of the same state process runs for a long
horizon and its empirical occupancies are compared with the analytic
steady state — category by category and on the loss probability —
for a healthy and an overloaded configuration.
"""

from __future__ import annotations

import random

from repro.markov.metrics import category_probabilities, loss_probability
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, StateCategory
from repro.report.tables import Table
from repro.sim.ctmc_sim import GillespieSimulator

CONFIGS = [
    ("healthy", dict(arrival_rate=0.8, mu1=15.0, xi1=20.0, buffer_size=6)),
    ("critical", dict(arrival_rate=2.0, mu1=15.0, xi1=20.0, buffer_size=6)),
    ("overloaded", dict(arrival_rate=1.0, mu1=2.0, xi1=3.0, buffer_size=6)),
]
HORIZON = 30_000.0


def cross_validate():
    rows = []
    for name, params in CONFIGS:
        stg = RecoverySTG.paper_default(**params)
        pi = steady_state(stg.ctmc())
        analytic_cats = category_probabilities(stg, pi)
        analytic_loss = loss_probability(stg, pi)
        sim = GillespieSimulator(stg, random.Random(1234))
        result = sim.run(horizon=HORIZON)
        rows.append(
            (name, analytic_cats, analytic_loss, result)
        )
    return rows


def test_simulation_validates_ctmc(save_table, benchmark):
    rows = benchmark.pedantic(cross_validate, rounds=1, iterations=1)

    table = Table(
        f"Extension A: Gillespie simulation vs CTMC (horizon {HORIZON:g})",
        ["config", "metric", "analytic", "simulated", "abs err"],
    )
    for name, cats, loss, result in rows:
        for cat in StateCategory:
            a = cats[cat]
            s = result.category_occupancy.get(cat, 0.0)
            assert abs(a - s) < 0.02, (name, cat, a, s)
            table.add_row(name, f"P({cat.value})", a, s, abs(a - s))
        s_loss = result.loss_time_fraction
        assert abs(loss - s_loss) < 0.02, (name, loss, s_loss)
        table.add_row(name, "loss prob", loss, s_loss, abs(loss - s_loss))
        # The overloaded system must actually drop alerts in simulation.
        if name == "overloaded":
            assert result.arrivals_lost > 0
    save_table("sim_vs_ctmc", table.render())
